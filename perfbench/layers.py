"""Per-layer metrics from the spans of a traced run.

Every request the benchmark sends carries ``?rid=<id>``; the launcher's
wrappers tag each span with the id of the request that caused it, so a
client-observed latency can be split into the front-door dispatch span
(``Router.dispatch`` when sharded, else ``ServiceAPI.dispatch``), the
self time of every layer below it, and the rest: the HTTP transport
(read/parse, JSON encode, socket write, and any stall on the wire).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from stats import median, percentile, self_time

OBJECTIVES = ("pca", "ica", "kurtosis", "axis")


@dataclass(frozen=True)
class Span:
    pid: int
    id: int
    parent: int
    name: str
    rid: str | None
    start: float
    end: float
    note: object

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def load_spans(trace_dir: Path) -> list[Span]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        data = json.loads(path.read_text())
        spans += [Span(data["pid"], *row) for row in data["spans"]]
    return spans


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Self time (s) of every span.

    A worker's ``worker.handle`` span runs in another process but inside
    the router's ``rpc.call`` for the same request, so it counts as that
    call's child; the call's self time is then the RPC overhead.
    """
    children = defaultdict(list)
    handles = defaultdict(list)
    for s in spans:
        if s.parent:
            children[(s.pid, s.parent)].append((s.start, s.end))
        if s.name == "worker.handle" and s.rid is not None:
            handles[s.rid].append((s.start, s.end))
    out = {}
    for s in spans:
        kids = children[(s.pid, s.id)]
        if s.name == "rpc.call" and s.rid is not None:
            kids = kids + handles[s.rid]
        out[s] = self_time(s.start, s.end, kids)
    return out


def front_doors(spans: list[Span]) -> dict[str, Span]:
    """The outermost server span of each benchmark request."""
    doors: dict[str, Span] = {}
    for s in spans:
        if s.rid is None or s.name not in ("router.dispatch", "api.dispatch"):
            continue
        held = doors.get(s.rid)
        if held is None or (held.name == "api.dispatch"
                            and s.name == "router.dispatch"):
            doors[s.rid] = s
    return doors


def breakdown(spans, exchanges, turns) -> dict[str, dict[str, float]]:
    """Seconds per layer summed over the requests of each kind.

    For each request kind (and ``turn`` = feedback + the view after it)
    the client-observed seconds split into ``transport`` plus the self
    time of each layer; the parts add up to ``client``.
    """
    selfs = self_times(spans)
    doors = front_doors(spans)
    per_rid = defaultdict(lambda: defaultdict(float))
    for s, sec in selfs.items():
        if s.rid is not None:
            per_rid[s.rid][s.layer] += sec
    sums: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def add(kind, ex):
        door = doors.get(ex.rid)
        if door is None:
            return
        bucket = sums[kind]
        bucket["client"] += ex.end - ex.start
        bucket["transport"] += (ex.end - ex.start) - (door.end - door.start)
        for layer, sec in per_rid[ex.rid].items():
            bucket[layer] += sec

    for ex in exchanges:
        add(ex.kind, ex)
    for fb, view in turns:
        add("turn", fb)
        add("turn", view)
    return sums


def layer_metrics(spans, exchanges, send_lag, overhead_ratio):
    """name -> (value or None, unit, detail string)."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    selfs = self_times(spans)
    doors = front_doors(spans)
    with_rid = {name: [s for s in group if s.rid is not None]
                for name, group in by.items()}
    out = {}

    def timing(name, group, unit="ms"):
        vals = [s.ms for s in group]
        out[name] = (median(vals), unit, f"n={len(vals)}")

    def busy(name, group):
        out[name] = (sum(s.end - s.start for s in group), "s",
                     f"n={len(group)}")

    def ratio(name, hits, total):
        out[name] = (hits / total if total else None, "ratio",
                     f"{hits}/{total}")

    transport = [ex.ms - doors[ex.rid].ms for ex in exchanges
                 if ex.rid in doors]
    out["server.transport_p50_ms"] = (median(transport), "ms",
                                      f"n={len(transport)}")
    sizes = [len(ex.body) for ex in exchanges]
    out["server.response_bytes_mean"] = (
        sum(sizes) / len(sizes) if sizes else None, "B", f"n={len(sizes)}")
    timing("api.dispatch_p50_ms", with_rid.get("api.dispatch", []))
    busy("api.view_to_dict_busy_s", by["api.view_to_dict"])
    timing("router.dispatch_p50_ms", with_rid.get("router.dispatch", []))
    timing("rpc.call_p50_ms", with_rid.get("rpc.call", []))
    timing("worker.handle_p50_ms", with_rid.get("worker.handle", []))
    overhead = [selfs[s] * 1e3 for s in with_rid.get("rpc.call", [])]
    out["rpc.overhead_p50_ms"] = (median(overhead), "ms",
                                  f"n={len(overhead)}")
    timing("manager.view_p50_ms", by["manager.view"])
    views_self = [selfs[s] * 1e3 for s in by["manager.view"]]
    out["manager.view_self_p50_ms"] = (median(views_self), "ms",
                                       f"n={len(views_self)}")
    timing("manager.feedback_p50_ms", by["manager.feedback"])
    timing("manager.create_p50_ms", by["manager.create"])
    fits = by["cache.fit"]
    ratio("cache.hit_ratio", sum(1 for s in fits if s.note), len(fits))
    busy("cache.fit_busy_s", fits)
    gets = by["cache.l2_get"]
    ratio("cache.l2_hit_ratio", sum(1 for s in gets if s.note), len(gets))
    timing("cache.l2_get_p50_ms", gets)
    timing("cache.l2_put_p50_ms", by["cache.l2_put"])
    solves = by["solver.fit"]
    out["solver.fit_count"] = (float(len(solves)), "count", "")
    timing("solver.fit_p50_ms", solves)
    busy("solver.fit_busy_s", solves)
    out["solver.sweeps_total"] = (
        float(sum(s.note or 0 for s in solves)), "count",
        f"fits={len(solves)}")
    busy("core.whiten_busy_s", by["core.whiten"])
    busy("core.row_surprise_busy_s", by["core.row_surprise"])
    for objective in OBJECTIVES:
        timing(f"projection.view_p50_ms.{objective}",
               [s for s in by["projection.view"] if s.note == objective])
    busy("projection.fastica_busy_s", by["projection.fastica"])
    timing("store.append_p50_ms", by["store.append"])
    timing("store.put_p50_ms", by["store.put"])
    lag = [x * 1e3 for x in send_lag]
    out["bench.send_lag_p90_ms"] = (percentile(lag, 0.9), "ms",
                                    f"n={len(lag)}")
    out["bench.tracing_overhead_ratio"] = overhead_ratio
    return out
