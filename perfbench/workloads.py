"""The three workloads: seeded scripts plus the client loops that run them.

Every input is a pure function of ``--seed``; the server only sees the
generated requests.  Clients are closed loops (the next request goes out
when the previous reply is fully read) except the open-loop phase of
``views-keepalive``, which sends on a fixed schedule and times each
request from its due time.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

from client import Connection, Exchange
from stats import run_open_loop

#: Rows and columns of the served datasets (checked against the server's
#: feedback replies).
SHAPES = {
    "x5": (1000, 5),
    "three-d": (150, 3),
    "segmentation": (2310, 19),
    "cytometry": (20000, 8),
}

#: View objectives of one session, in order: the first view, then the
#: view after each feedback turn.  Twins close with two extra PCA turns
#: so PCA turns are the clear majority (4 of 6) and the turn median reads
#: the PCA path instead of the gap between the PCA and ICA paths.
COLD_OBJECTIVES = ("pca", "pca", "pca", "ica", "pca")
TWIN_OBJECTIVES = ("pca", "ica", "pca", "ica", "pca", "pca", "pca")
#: Feedback kinds alternate: a cluster marking, then a view selection.
FEEDBACK_KINDS = ("cluster", "view")

#: views-keepalive session pool: (dataset, objective, warm-up feedback
#: turns) covering the four served datasets and the four registered
#: objectives.  Connection i warms entries i, i+2, ...; cytometry comes
#: first so both connections warm their cytometry session at the same
#: time in every run, and the peak RSS does not hang on whether they
#: happened to overlap.  Three-quarters of the warm-up turns fall on the
#: two small datasets, so the turn median sits inside their path rather
#: than between two datasets' paths.
POOL = (
    ("cytometry", "pca", 2), ("cytometry", "axis", 2),
    ("segmentation", "pca", 2), ("segmentation", "axis", 2),
    ("three-d", "ica", 6), ("three-d", "axis", 6),
    ("x5", "pca", 6), ("x5", "kurtosis", 6),
)

#: Open-loop rate of views-keepalive (requests per second, all
#: connections together), below today's ~45/s keep-alive capacity.
OPEN_LOOP_RATE = 20.0
#: Share of the measured seconds spent in the open-loop phase.
OPEN_LOOP_SHARE = 0.4


def session_script(rng: random.Random, dataset: str, objectives,
                   detail: bool) -> dict:
    """A session: its first-view objective, then one turn per further
    objective, each turn marking a seeded random tenth of the rows."""
    n, _ = SHAPES[dataset]
    first, *rest = objectives
    return {
        "dataset": dataset,
        "seed": rng.randrange(2**31),
        "standardize": True,
        "detail": detail,
        "objective": first,
        "turns": [
            ({"kind": FEEDBACK_KINDS[t % 2],
              "rows": sorted(rng.sample(range(n), n // 10))}, objective)
            for t, objective in enumerate(rest)
        ],
    }


#: explore-cold plays sessions in groups of one cytometry and two
#: segmentation sessions.  With one of each, half the first views are
#: cytometry's and half segmentation's, so the median first view would
#: sit in the gap between the two, and the p90 view in the gap between
#: their ICA paths; two to one puts both inside one dataset's path.
COLD_GROUP = ("cytometry", "segmentation", "segmentation")


def cold_scripts(seed: int, client: int, index: int) -> list[dict]:
    """explore-cold: fresh belief states, one session group per call.

    The clients start in phase, both on cytometry, so the run always
    holds two cytometry sessions at once and the peak RSS sees them.
    """
    rng = random.Random(f"explore-cold:{seed}:{client}:{index}")
    return [session_script(rng, dataset, COLD_OBJECTIVES, detail=True)
            for dataset in COLD_GROUP]


#: twins-sharded scripts per run.  Every session replays one of them, so
#: each belief state is reached by many twins; with a single script the
#: whole run's cost would hang on one seed's two ICA belief states.
TWIN_SCRIPTS = 4


def twin_scripts(seed: int) -> list[dict]:
    """twins-sharded: the scripts the sessions replay, round robin."""
    rng = random.Random(f"twins-sharded:{seed}")
    scripts = []
    for k in range(TWIN_SCRIPTS):
        script = session_script(rng, "segmentation", TWIN_OBJECTIVES,
                                detail=False)
        script["twin"] = k
        scripts.append(script)
    return scripts


@dataclass
class SessionRun:
    """What one scripted session did."""

    script: dict
    sid: str | None = None
    exchanges: list = field(default_factory=list)
    views: list = field(default_factory=list)
    first_view_ms: float | None = None
    turns: list = field(default_factory=list)   # (feedback, view) pairs
    complete: bool = False


@dataclass
class Outcome:
    """Everything a workload measured, for metrics and checks."""

    exchanges: list = field(default_factory=list)
    sessions: list = field(default_factory=list)
    view_exchanges: list = field(default_factory=list)
    closed_views: int = 0
    closed_seconds: float = 0.0
    send_lag: list = field(default_factory=list)


def _view_expect(dataset, objective, sid, detail):
    n, d = SHAPES[dataset]
    return {"objective": objective, "d": d, "n": n, "session_id": sid,
            "detail": detail}


def run_session(conn: Connection, script: dict,
                keep: bool = False) -> SessionRun:
    """Create a session, read its first view, play all the script's
    turns, then delete the session (unless ``keep``)."""
    run = SessionRun(script)
    dataset = script["dataset"]
    objective = script["objective"]
    n, d = SHAPES[dataset]
    detail = {"detail": "1"} if script["detail"] else {}
    created = conn.request(
        "create", "POST", "/v1/sessions",
        body={"dataset": dataset, "objective": objective,
              "standardize": script["standardize"], "seed": script["seed"]},
        expect={"dataset": dataset},
    )
    run.exchanges.append(created)
    if created.status != 201:
        return run
    sid = json.loads(created.body)["session_id"]
    run.sid = sid
    base = f"/v1/sessions/{sid}"
    view = conn.request("view", "GET", f"{base}/view", query=detail,
                        expect=_view_expect(dataset, objective, sid,
                                            script["detail"]))
    run.exchanges.append(view)
    run.views.append(view)
    run.first_view_ms = (view.end - created.start) * 1e3
    for item, turn_objective in script["turns"]:
        fb = conn.request("feedback", "POST", f"{base}/feedback",
                          body={"feedback": [item]}, expect={"n": n, "d": d})
        query = dict(detail)
        if turn_objective != objective:
            query["objective"] = turn_objective
        view = conn.request("view", "GET", f"{base}/view", query=query,
                            expect=_view_expect(dataset, turn_objective, sid,
                                                script["detail"]))
        run.exchanges += [fb, view]
        run.views.append(view)
        run.turns.append((fb, view))
    run.complete = len(run.turns) == len(script["turns"])
    if not keep:
        run.exchanges.append(
            conn.request("delete", "DELETE", base, expect={}))
    return run


def _in_threads(target, count: int) -> list:
    """Run ``target(i)`` on ``count`` threads; return results in order.

    A thread's exception is re-raised here, not lost.
    """
    results: list = [None] * count
    errors: list = []

    def body(i: int) -> None:
        try:
            results[i] = target(i)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def closed_sessions(conns, scripts_for, seconds: float,
                    min_groups: int) -> Outcome:
    """Each connection plays fresh session groups back to back for
    ``seconds``, and at least ``min_groups`` of them;
    ``scripts_for(client, index)`` gives one group.

    A group under way at the deadline plays to its end, so every run
    holds whole groups and the mix of datasets and objectives in the
    samples is the script's, not an accident of where the clock stopped.
    The floor keeps a run on a slowed-down machine above the 100 views a
    p90 needs; at normal speed the deadline comes later and decides.
    """
    deadline = time.perf_counter() + seconds

    def client(i: int) -> list:
        runs, index = [], 0
        while time.perf_counter() < deadline or index < min_groups:
            for script in scripts_for(i, index):
                runs.append(run_session(conns[i], script))
            index += 1
        return runs

    out = Outcome()
    for runs in _in_threads(client, len(conns)):
        for run in runs:
            out.sessions.append(run)
            out.exchanges += run.exchanges
    return out


def explore_cold(conns, seed: int, seconds: float) -> Outcome:
    return closed_sessions(
        conns, lambda i, index: cold_scripts(seed, i, index), seconds,
        min_groups=4)


def twins_sharded(conns, seed: int, seconds: float) -> Outcome:
    scripts = twin_scripts(seed)
    # The connections run different scripts at any one time: in lockstep
    # on one script, whether two twins share a worker is a coin flip per
    # session, and the figures were unsteady (see README.md).
    return closed_sessions(
        conns, lambda i, index: [scripts[(index + i) % len(scripts)]],
        seconds, min_groups=10)


def views_keepalive(conns, seed: int, seconds: float) -> Outcome:
    """Warm the pool, then an open-loop and a closed-loop view phase."""
    out = Outcome()
    pool = []

    def warm(i: int) -> list:
        runs = []
        for j in range(i, len(POOL), len(conns)):
            dataset, objective, turns = POOL[j]
            rng = random.Random(f"views-keepalive:{seed}:{j}")
            script = session_script(rng, dataset, [objective] * (1 + turns),
                                    detail=False)
            runs.append(run_session(conns[i], script, keep=True))
        return runs

    for runs in _in_threads(warm, len(conns)):
        for run in runs:
            out.sessions.append(run)
            out.exchanges += run.exchanges
            pool.append((run.sid, run.script["dataset"],
                         run.script["objective"]))

    open_seconds = seconds * OPEN_LOOP_SHARE
    closed_seconds = seconds - open_seconds
    interval = len(conns) / OPEN_LOOP_RATE
    per_conn = int(open_seconds / interval)
    start = time.perf_counter() + 0.05

    def view_of(i: int, k: int, when: float | None = None) -> Exchange:
        sid, dataset, objective = pool[(i + k) % len(pool)]
        return conns[i].request(
            "view", "GET", f"/v1/sessions/{sid}/view", start=when,
            expect=_view_expect(dataset, objective, sid, False))

    def open_client(i: int):
        done = []
        due, sent, _ = run_open_loop(
            per_conn, interval,
            lambda when: done.append(view_of(i, len(done), when)),
            time.perf_counter, time.sleep,
            start=start + i * interval / len(conns),
        )
        return done, [s - d for d, s in zip(due, sent)]

    for done, lag in _in_threads(open_client, len(conns)):
        out.view_exchanges += done
        out.send_lag += lag

    closed_start = time.perf_counter()
    closed_deadline = closed_start + closed_seconds

    def closed_client(i: int) -> list:
        done, k = [], 0
        while time.perf_counter() < closed_deadline:
            done.append(view_of(i, k))
            k += 1
        return done

    for done in _in_threads(closed_client, len(conns)):
        out.view_exchanges += done
        out.closed_views += sum(1 for ex in done if ex.end <= closed_deadline)
    out.closed_seconds = closed_seconds
    out.exchanges += out.view_exchanges
    return out


WORKLOADS = {
    "explore-cold": explore_cold,
    "twins-sharded": twins_sharded,
    "views-keepalive": views_keepalive,
}
