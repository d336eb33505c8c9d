"""End-to-end benchmark of the SIDER session service (``repro serve``).

Run from the repository root::

    python3 perfbench/run.py --workload explore-cold --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice for half the seconds each, untraced then traced, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Exit
code 0 means every reply passed its checks; see README.md.
"""

from __future__ import annotations

import os

from serverproc import PINNED_THREADS

# Pin this process's BLAS pool too, before numpy loads, so the in-process
# replay oracle runs the same arithmetic as the pinned server.
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from client import Connection  # noqa: E402
from serverproc import ServerProcess  # noqa: E402
from stats import median, percentile, valid_metric_name  # noqa: E402

HERE = Path(__file__).resolve().parent

#: ``repro serve`` options per workload (after ``--port 0``).
SERVE_ARGS = {
    "explore-cold": [],
    "twins-sharded": ["--workers", "2", "--store", "sqlite:store.db"],
    "views-keepalive": [],
}

#: Server launches per untraced run; setup_s is their median.
SETUP_REPEATS = 3

#: Client threads, each holding one keep-alive connection.
CLIENTS = max(1, min(2, os.cpu_count() or 1))


def machine() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "clients": CLIENTS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in sorted(PINNED_THREADS)},
    }


def run_once(root: Path, base: Path, workload: str, seed: int,
             seconds: float, trace_dir: Path | None, launches: int):
    """Launch the server ``launches`` times (keeping the last), run the
    workload on the last one, stop it.  Returns (outcome, setups, rss)."""
    setups = []
    for i in range(launches):
        server = ServerProcess(root, base / f"launch-{i}", SERVE_ARGS[workload],
                               trace_dir=trace_dir if i == launches - 1
                               else None)
        try:
            setups.append(server.wait_ready())
        except BaseException:
            server.stop()
            raise
        if i < launches - 1:
            server.stop()
    conns = [Connection(server.host, server.port, f"c{i}")
             for i in range(CLIENTS)]
    try:
        before = cpu_times()
        outcome = workloads.WORKLOADS[workload](conns, seed, seconds)
        after = cpu_times()
        rss = server.peak_rss_mb()
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    steal = (after[7] - before[7]) / max(1, sum(after) - sum(before))
    print(f"# cpu time stolen by the host during the workload: {steal:.1%}")
    return outcome, setups, rss


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (steal is field 8)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def verdict(workload: str, outcome) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every reply and cross-check."""
    problems, failed = [], 0
    for ex in outcome.exchanges:
        found = checks.problems(ex)
        failed += bool(found)
        problems += found
    if workload == "twins-sharded":
        groups: dict[int, list] = {}
        for s in outcome.sessions:
            if s.complete:
                groups.setdefault(s.script["twin"], []).append(s.views)
        for views in groups.values():
            twins = checks.twin_problems(views)
            failed += len(twins)
            problems += twins
    if workload == "explore-cold":
        replayed = next((s for s in outcome.sessions if s.complete
                         and s.script["dataset"] == "segmentation"), None)
        if replayed is None:
            problems.append("no complete segmentation session to replay")
            failed += 1
        else:
            diff = checks.replay_difference(replayed.script, replayed.views)
            print(f"# replay check: max |server - in-process| = {diff:.3g} "
                  f"(tolerance {checks.REPLAY_TOL:g})")
            if not diff <= checks.REPLAY_TOL:
                problems.append(f"replay differs by {diff:.3g}")
                failed += 1
    return len(outcome.exchanges), failed, problems


def samples(workload: str, outcome) -> dict[str, list[float]]:
    turns = [t for s in outcome.sessions for t in s.turns]
    if workload == "views-keepalive":
        views = outcome.view_exchanges
    else:
        views = [v for s in outcome.sessions for v in s.views]
    return {
        "first_view": [s.first_view_ms for s in outcome.sessions
                       if s.first_view_ms is not None],
        "view": [v.ms for v in views],
        "feedback": [fb.ms for fb, _ in turns],
        "turn": [(view.end - fb.start) * 1e3 for fb, view in turns],
    }


def closed_loop_rate(sessions, count) -> tuple:
    """Completions per second of a closed loop, summed over the clients,
    each over its own busy time (first request sent to last reply read),
    so one client finishing its last session early costs nothing."""
    by_client: dict[str, list] = {}
    for run in sessions:
        by_client.setdefault(run.exchanges[0].rid.split("-")[0], []).append(run)
    rate, total = 0.0, 0
    for runs in by_client.values():
        busy = (max(ex.end for run in runs for ex in run.exchanges)
                - min(ex.start for run in runs for ex in run.exchanges))
        done = sum(count(run) for run in runs)
        rate += done / busy
        total += done
    return rate, "1/s", f"{total} over {len(by_client)} clients"


def end_to_end(workload, outcome, setups, rss) -> dict:
    """name -> (value or None, unit, detail)."""
    s = samples(workload, outcome)
    out = {"setup_s": (median(setups), "s", f"n={len(setups)}")}

    def pct(name, key, q):
        vals = s[key]
        out[name] = (percentile(vals, q), "ms", f"n={len(vals)}")

    pct("first_view_p50_ms", "first_view", 0.5)
    pct("view_p50_ms", "view", 0.5)
    pct("view_p90_ms", "view", 0.9)
    pct("view_p99_ms", "view", 0.99)
    pct("feedback_p50_ms", "feedback", 0.5)
    pct("turn_p50_ms", "turn", 0.5)
    pct("turn_p90_ms", "turn", 0.9)
    out["turns_per_s"] = closed_loop_rate(outcome.sessions,
                                          lambda run: len(run.turns))
    if workload == "views-keepalive":
        views, span = outcome.closed_views, outcome.closed_seconds
        out["views_per_s"] = (views / span, "1/s",
                              f"{views} views in {span:.1f}s")
    else:
        out["views_per_s"] = closed_loop_rate(outcome.sessions,
                                              lambda run: len(run.views))
    out["server_rss_mb"] = (rss, "MB", "VmHWM, server + workers")
    if outcome.send_lag:
        lag = [x * 1e3 for x in outcome.send_lag]
        out["bench.send_lag_p90_ms"] = (percentile(lag, 0.9), "ms",
                                        f"n={len(lag)}, max {max(lag):.3g}")
    return out


def report(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit, detail) in metrics.items():
        shown = "unsupported" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit} ({detail})")


def print_breakdown(spans, outcome) -> None:
    turns = [t for s in outcome.sessions for t in s.turns]
    sums = layers.breakdown(spans, outcome.exchanges, turns)
    for kind in ("view", "feedback", "turn", "create"):
        bucket = sums.get(kind)
        if not bucket or not bucket["client"]:
            continue
        total = bucket.pop("client")
        parts = sorted(bucket.items(), key=lambda kv: -kv[1])
        shares = ", ".join(f"{k} {v / total:.1%}" for k, v in parts)
        print(f"# share of {kind} time ({total:.2f}s): {shares}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source under {root / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the replay oracle imports repro
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    base = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    try:
        if args.trace:
            half = args.seconds / 2
            plain, _, _ = run_once(root, base / "untraced", args.workload,
                                   args.seed, half, None, 1)
            trace_dir = base / "spans"
            outcome, _, _ = run_once(root, base / "traced", args.workload,
                                     args.seed, half, trace_dir, 1)
            spans = layers.load_spans(trace_dir)
            untraced = median(samples(args.workload, plain)["view"])
            traced = median(samples(args.workload, outcome)["view"])
            ratio = (traced / untraced, "ratio",
                     f"view p50 {traced:.4g} / {untraced:.4g} ms")
            metrics = layers.layer_metrics(spans, outcome.exchanges,
                                           outcome.send_lag, ratio)
            attempted, failed, problems = verdict(args.workload, plain)
            a2, f2, p2 = verdict(args.workload, outcome)
            attempted, failed, problems = (attempted + a2, failed + f2,
                                           problems + p2)
            report("per-layer metrics (traced run)", metrics)
            print_breakdown(spans, outcome)
        else:
            outcome, setups, rss = run_once(root, base, args.workload,
                                            args.seed, args.seconds, None,
                                            SETUP_REPEATS)
            metrics = end_to_end(args.workload, outcome, setups, rss)
            attempted, failed, problems = verdict(args.workload, outcome)
            report("end-to-end metrics", metrics)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass  # another run's state is still there
    rate = failed / attempted if attempted else 1.0
    print(f"error_rate = {rate:.6g} ratio ({failed} failed of "
          f"{attempted} attempted)")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    result, missing = {}, []
    for m in wanted:
        value, unit, _ = metrics[m["name"]]
        if not valid_metric_name(m["name"]) or unit != m["unit"]:
            raise ValueError(f"BENCHMARK.json declares {m} but the "
                             f"benchmark measures it in {unit!r}")
        if value is None:
            missing.append(m["name"])
        else:
            result[m["name"]] = {"value": value, "unit": unit}
    for name in missing:
        print(f"# FAILED metric {name} has no supported value")
    correct = not problems and not missing
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
