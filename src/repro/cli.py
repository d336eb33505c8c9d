"""Command-line interface: run experiments and inspect datasets.

Usage (after install)::

    python -m repro list                       # what can be run
    python -m repro experiment table1         # regenerate one table/figure
    python -m repro experiment all            # regenerate everything
    python -m repro dataset x5                 # describe a dataset
    python -m repro objectives                 # registered view objectives
    python -m repro explore x5 --rounds 2      # scripted exploration demo
    python -m repro explore --policy surprise --dataset three-d \\
        --rounds 5 --trace t.jsonl             # autonomous exploration
    python -m repro explore --replay t.jsonl   # verify a recorded trace
    python -m repro serve --port 8000          # multi-tenant session service
    python -m repro serve --store sqlite:sessions.db --fsync batch  # durable
    python -m repro serve --obs --obs-log events.jsonl  # ... with tracing
    python -m repro store verify sqlite:sessions.db     # integrity sweep
    python -m repro store inspect sqlite:sessions.db    # sessions + log tails
    python -m repro store compact sqlite:sessions.db    # fold logs offline
    python -m repro loadgen --sessions 8       # policy-driven load generator
    python -m repro loadgen --obs              # ... + server-side metrics
    python -m repro trace events.jsonl         # analyze a request-event log
    python -m repro bench --quick              # vectorized-core benchmarks
    python -m repro slo check --url http://127.0.0.1:8000  # gate SLOs (CI)
    python -m repro top --url http://127.0.0.1:8000        # live dashboard

The CLI is a thin veneer over :mod:`repro.experiments` and
:mod:`repro.datasets`; everything it prints is available programmatically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

import numpy as np

from repro.core.session import ExplorationSession
from repro.datasets import (
    bnc_surrogate,
    cytometry_surrogate,
    segmentation_surrogate,
    three_d_clusters,
    x5,
)
from repro.experiments import (
    fig1_loop,
    fig2_synthetic3d,
    fig3_x5_structure,
    fig5_convergence,
    fig6_whitening,
    fig7_bnc_first_view,
    fig8_bnc_iterations,
    fig9_segmentation,
    table1_ica_scores,
    table2_runtime,
)
from repro.explore.policies import policy_names
from repro.feedback import ClusterFeedback
from repro.projection import registry

#: Experiment registry: name -> callable returning an object with
#: ``format_table()``.
EXPERIMENTS: dict[str, Callable[[], object]] = {
    "fig1": lambda: fig1_loop.run(),
    "fig2": lambda: fig2_synthetic3d.run(),
    "fig3": lambda: fig3_x5_structure.run(),
    "table1": lambda: table1_ica_scores.run(),
    "fig5": lambda: fig5_convergence.run(),
    "fig6": lambda: fig6_whitening.run(),
    "table2": lambda: table2_runtime.run(),
    "fig7": lambda: fig7_bnc_first_view.run()[0],
    "fig8": lambda: fig8_bnc_iterations.run(),
    "fig9": lambda: fig9_segmentation.run(),
}

#: Dataset registry: name -> zero-argument constructor.
DATASETS: dict[str, Callable[[], object]] = {
    "three-d": lambda: three_d_clusters(seed=0),
    "x5": lambda: x5(seed=0),
    "bnc": lambda: bnc_surrogate(seed=0),
    "segmentation": lambda: segmentation_surrogate(seed=0),
    "cytometry": lambda: cytometry_surrogate(seed=0),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIDER reproduction: experiments, datasets, exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and datasets")

    exp = sub.add_parser("experiment", help="run an experiment harness")
    exp.add_argument(
        "name", choices=sorted(EXPERIMENTS) + ["all"], help="which experiment"
    )

    data = sub.add_parser("dataset", help="describe a dataset")
    data.add_argument("name", choices=sorted(DATASETS))

    sub.add_parser("objectives", help="list registered view objectives")

    explore = sub.add_parser(
        "explore",
        help="scripted exploration demo / autonomous policy runs",
    )
    explore.add_argument("name", nargs="?", choices=sorted(DATASETS))
    explore.add_argument(
        "--dataset",
        choices=sorted(DATASETS),
        default=None,
        help="dataset to explore (alternative to the positional name)",
    )
    explore.add_argument("--rounds", type=int, default=2)
    # Choices come from the objective registry, so objectives registered by
    # user code (e.g. via a sitecustomize or plugin import) show up here.
    explore.add_argument(
        "--objective", choices=registry.names(), default="pca"
    )
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument(
        "--policy",
        choices=policy_names(),
        default=None,
        help="run autonomously with this exploration policy",
    )
    explore.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record the run as a replayable JSONL trace",
    )
    explore.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="replay a recorded trace and verify its knowledge curve",
    )
    explore.add_argument(
        "--url",
        default=None,
        help="replay against a running service instead of in-process",
    )
    explore.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        metavar="NATS",
        help="absolute per-point slack when verifying a replayed knowledge "
        "curve (0 = bit-for-bit; use a small value when replaying "
        "warm-start traces against a server)",
    )
    explore.add_argument(
        "--warm-start",
        action="store_true",
        help="seed each refit from the previous solve (incremental path)",
    )
    explore.add_argument(
        "--plateau-nats",
        type=float,
        default=None,
        metavar="NATS",
        help="also stop after 2 rounds gaining less than NATS of knowledge",
    )
    explore.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="also stop once the run exceeds this wall-clock budget",
    )

    loadgen = sub.add_parser(
        "loadgen", help="drive concurrent policy sessions against a service"
    )
    loadgen.add_argument(
        "--url",
        default=None,
        help="service base URL (default: start a temporary in-process server)",
    )
    loadgen.add_argument("--sessions", type=int, default=8)
    loadgen.add_argument(
        "--workers",
        type=int,
        default=None,
        help="thread-pool size (default: min(sessions, 8))",
    )
    loadgen.add_argument(
        "--policy",
        action="append",
        choices=policy_names(),
        default=None,
        help="policy name; repeat to mix (round-robin over sessions)",
    )
    loadgen.add_argument(
        "--dataset",
        action="append",
        choices=sorted(DATASETS),
        default=None,
        help="dataset name; repeat to mix (default: all served datasets)",
    )
    loadgen.add_argument("--rounds", type=int, default=3)
    loadgen.add_argument(
        "--objective", choices=registry.names(), default="pca"
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--output",
        default="BENCH_loadgen.json",
        metavar="PATH",
        help="where to write the JSON report",
    )
    loadgen.add_argument(
        "--obs",
        action="store_true",
        help="enable observability (on the temporary server, or scrape an "
        "external one) and cross-check server-side /v1/metrics latency "
        "histograms against the client-side percentiles",
    )
    loadgen.add_argument(
        "--obs-log",
        default=None,
        metavar="PATH",
        help="with --obs and a temporary server: write the structured "
        "JSONL request-event log here (implies --obs)",
    )
    loadgen.add_argument(
        "--scrape-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="with --obs: scrape /v1/metrics this often during the run "
        "and record the series in the report (0 disables; default 0.5)",
    )
    loadgen.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="send X-Repro-Deadline-Ms on every request; shed and "
        "deadline-exceeded responses land in the report's resilience "
        "counters",
    )
    loadgen.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="client-side fault injection, e.g. "
        "'client.request:error:p=0.05' (grammar: point:kind[:k=v...]); "
        "exercises retries and the circuit breaker",
    )
    loadgen.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="seed for --chaos fault draws (reproducible fault trains)",
    )
    loadgen.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        metavar="N",
        help="without --url: run the temporary server sharded over N "
        "worker processes (sticky session routing over a shared "
        "temporary sqlite store)",
    )

    bench = sub.add_parser(
        "bench",
        help="run the vectorized-kernel benchmark suites, write BENCH_*.json",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (seconds, not minutes)",
    )
    bench.add_argument(
        "--suite",
        default="all",
        choices=("all", "core_solver", "projection", "store", "obs",
                 "resilience", "service"),
        help="which kernel suite to run (default: all)",
    )
    bench.add_argument(
        "--output-dir",
        default=".",
        metavar="DIR",
        help="where to write BENCH_<suite>.json artifacts",
    )
    bench.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="fail if vectorized timings regress past the baselines file "
        "(e.g. benchmarks/baselines.json)",
    )
    bench.add_argument(
        "--refresh-existing",
        action="store_true",
        help="also re-run the pytest benchmark smoke suites to refresh "
        "their BENCH_*.json artifacts",
    )
    bench.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve", help="run the HTTP session service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard the service over N worker processes behind a sticky "
        "session router (default: 1 = single process); pair with --store "
        "for rebalancing of a dead worker's sessions onto survivors",
    )
    serve.add_argument(
        "--l2-cache",
        default=None,
        metavar="PATH",
        help="SQLite file for the shared cross-process solve-cache tier "
        "(default with --workers > 1: a temporary file all workers "
        "share; single-process: no L2)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="URL",
        help="session store URL: sqlite:PATH (durable write-ahead log), "
        "wal:PATH (JSON checkpoints + JSONL log), dir:PATH (checkpoints "
        "only), memory: (default)",
    )
    serve.add_argument(
        "--store-dir",
        default=None,
        help="checkpoint sessions as JSON files here (shorthand for "
        "--store dir:PATH)",
    )
    serve.add_argument(
        "--fsync",
        default="batch",
        choices=("always", "batch", "off"),
        help="durability of write-ahead appends on sqlite:/wal: stores "
        "(default: batch)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="in-memory sessions before LRU eviction",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="expire sessions idle longer than this many seconds",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=128,
        help="solve-cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--obs",
        action="store_true",
        help="enable request tracing and the /v1/metrics endpoint",
    )
    serve.add_argument(
        "--obs-log",
        default=None,
        metavar="PATH",
        help="write structured request events to this JSONL file "
        "(implies --obs)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=500.0,
        metavar="MS",
        help="requests slower than this carry full span detail in the "
        "event log",
    )
    serve.add_argument(
        "--obs-rotate-mb",
        type=float,
        default=None,
        metavar="MB",
        help="rotate the --obs-log event file once it reaches this size "
        "(numeric .N suffixes; repro trace spans rotations)",
    )
    serve.add_argument(
        "--history-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="with --obs: metrics time-series recording cadence for "
        "/v1/metrics/history (default: 1s)",
    )
    serve.add_argument(
        "--history-capacity",
        type=int,
        default=600,
        metavar="SAMPLES",
        help="with --obs: ring-buffer retention in samples (default: 600)",
    )
    serve.add_argument(
        "--view-p99-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --obs: p99 view-latency SLO ceiling (default: the "
        "paper's interactivity budget)",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="start the sampling stack profiler (collapsed stacks at "
        "/v1/profile; slow requests carry a profile excerpt)",
    )
    serve.add_argument(
        "--profile-hz",
        type=float,
        default=100.0,
        metavar="HZ",
        help="profiler sampling rate (default: 100)",
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request deadline applied when the client sends no "
        "X-Repro-Deadline-Ms header; expired requests answer 503 "
        "deadline_exceeded (default: none)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission-control concurrency limit; excess requests are "
        "shed with 503 overloaded + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--drain-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="graceful-drain budget on SIGTERM or POST /v1/admin/drain: "
        "how long to wait for in-flight requests before checkpointing "
        "and exiting (default: 10)",
    )

    store_cmd = sub.add_parser(
        "store",
        help="inspect, verify, or compact a session store",
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    inspect = store_sub.add_parser(
        "inspect", help="summarise sessions, checkpoints, and log tails"
    )
    verify = store_sub.add_parser(
        "verify",
        help="integrity sweep: checkpoints parse, log tails are contiguous "
        "with valid checksums (exit 1 on any damage)",
    )
    verify.add_argument(
        "--policy",
        choices=("fail", "truncate"),
        default="fail",
        help="fail: any damage is an error (default); truncate: report "
        "what recovery would drop instead",
    )
    compact = store_sub.add_parser(
        "compact",
        help="fold feedback-log tails into fresh checkpoints offline",
    )
    compact.add_argument(
        "--session",
        default=None,
        metavar="ID",
        help="compact just this session (default: every session with a "
        "log tail)",
    )
    for store_action in (inspect, verify, compact):
        store_action.add_argument(
            "url",
            metavar="URL",
            help="store URL: sqlite:PATH, wal:PATH, or dir:PATH",
        )
        store_action.add_argument(
            "--json",
            action="store_true",
            help="print the full report as JSON",
        )

    trace = sub.add_parser(
        "trace",
        help="analyze a structured request-event log (REPRO_OBS_LOG)",
    )
    trace.add_argument(
        "log", metavar="PATH", help="JSONL event log written by the service"
    )
    trace.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many slowest requests to list (default: 10)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="print the full report as JSON instead of the table",
    )

    slo = sub.add_parser(
        "slo",
        help="evaluate service-level objectives over retained metrics",
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_sub.add_parser(
        "check",
        help="evaluate SLOs against a live server or a saved history; "
        "exit 1 when violated (CI gate)",
    )
    slo_check.add_argument(
        "--url",
        default=None,
        help="fetch /v1/metrics/history from this running service",
    )
    slo_check.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="evaluate a saved history instead: a /v1/metrics/history "
        "JSON dump, a bare sample list, or a BENCH_loadgen.json with a "
        "recorded obs series",
    )
    slo_check.add_argument(
        "--objective",
        action="append",
        default=None,
        metavar="NAME",
        help="gate only this objective (repeatable; unknown names fail); "
        "named objectives with no data also fail",
    )
    slo_check.add_argument(
        "--view-p99-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the p99 view-latency ceiling (default: the "
        "paper's interactivity budget)",
    )
    slo_check.add_argument(
        "--error-rate",
        type=float,
        default=0.01,
        metavar="RATIO",
        help="5xx-per-request ceiling (default: 0.01)",
    )
    slo_check.add_argument(
        "--cache-hit-floor",
        type=float,
        default=0.10,
        metavar="RATIO",
        help="windowed solve-cache hit-rate floor (default: 0.10)",
    )
    slo_check.add_argument(
        "--short-window", type=float, default=60.0, metavar="SECONDS"
    )
    slo_check.add_argument(
        "--long-window", type=float, default=300.0, metavar="SECONDS"
    )
    slo_check.add_argument(
        "--strict",
        action="store_true",
        help="also exit 1 on degraded (short-window) breaches",
    )
    slo_check.add_argument(
        "--json",
        action="store_true",
        help="print the full SLO report as JSON",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over /v1/metrics + /v1/health",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8000",
        help="service base URL (default: http://127.0.0.1:8000)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll/refresh interval (default: 2s)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    return parser


def cmd_list() -> int:
    print("experiments:", ", ".join(sorted(EXPERIMENTS)), "(or: all)")
    print("datasets:   ", ", ".join(sorted(DATASETS)))
    print("objectives: ", ", ".join(registry.names()))
    return 0


def cmd_objectives() -> int:
    width = max(len(row["name"]) for row in registry.describe())
    for row in registry.describe():
        print(f"{row['name']:<{width}}  {row['description']}")
    return 0


def cmd_experiment(name: str) -> int:
    names = sorted(EXPERIMENTS) if name == "all" else [name]
    for item in names:
        result = EXPERIMENTS[item]()
        print(result.format_table())  # type: ignore[attr-defined]
        print()
    return 0


def cmd_dataset(name: str) -> int:
    bundle = DATASETS[name]()
    print(f"name:     {bundle.name}")
    print(f"shape:    {bundle.data.shape}")
    print(f"features: {', '.join(bundle.feature_names[:10])}"
          + (" ..." if bundle.dim > 10 else ""))
    if bundle.labels is not None:
        classes = bundle.class_names()
        counts = {c: int(np.sum(bundle.labels == c)) for c in classes}
        print(f"classes:  {counts}")
    keys = [k for k in bundle.metadata if k != "seed"]
    if keys:
        print(f"metadata: {', '.join(keys)}")
    return 0


def cmd_explore(name: str, rounds: int, objective: str, seed: int) -> int:
    bundle = DATASETS[name]()
    if bundle.labels is None:
        print("dataset has no labels to script the feedback with", file=sys.stderr)
        return 1
    session = ExplorationSession(
        bundle.data, objective=objective, standardize=True, seed=seed
    )
    print(f"exploring {bundle.name} ({bundle.data.shape}) with {objective}")
    classes = bundle.class_names()
    for round_index in range(rounds):
        view = session.current_view()
        top = float(np.max(np.abs(view.scores)))
        print(f"round {round_index}: top |score| {top:.4f}")
        print("  " + view.axis_label(0, feature_names=list(bundle.feature_names)))
        if round_index < len(classes):
            rows = bundle.rows_with_label(classes[round_index])
            session.apply(
                ClusterFeedback(
                    rows=rows,
                    label=str(classes[round_index]),
                )
            )
            print(
                f"  marked class {classes[round_index]!r} "
                f"({rows.size} points) as a cluster"
            )
    final = session.current_view()
    print(f"final top |score| {float(np.max(np.abs(final.scores))):.4f}")
    return 0


def cmd_explore_policy(
    dataset: str,
    policy_name: str,
    rounds: int,
    objective: str,
    seed: int,
    trace_path: str | None,
    warm_start: bool,
    plateau_nats: float | None,
    max_seconds: float | None,
) -> int:
    """Autonomous exploration: a policy plays the user, headlessly."""
    from repro.explore import (
        InProcessDriver,
        KnowledgeGainPlateau,
        WallClockBudget,
        make_policy,
        run_exploration,
        save_trace,
    )

    bundle = DATASETS[dataset]()
    session = ExplorationSession(
        bundle.data,
        objective=objective,
        standardize=True,
        seed=seed,
        warm_start=warm_start,
    )
    driver = InProcessDriver(
        session,
        info={
            "dataset": dataset,
            "standardize": True,
            "session_seed": seed,
            "warm_start": warm_start,
        },
    )
    stopping = []
    if plateau_nats is not None:
        stopping.append(KnowledgeGainPlateau(min_gain_nats=plateau_nats))
    if max_seconds is not None:
        stopping.append(WallClockBudget(max_seconds=max_seconds))
    print(
        f"exploring {bundle.name} ({bundle.data.shape}) with "
        f"policy {policy_name!r}, objective {objective!r}, seed {seed}"
    )
    result = run_exploration(
        make_policy(policy_name),
        driver,
        rounds=rounds,
        stopping=stopping,
        seed=seed,
    )
    for record in result.rounds:
        kinds = ", ".join(type(fb).kind for fb in record.feedback) or "(none)"
        print(
            f"round {record.index}: objective {record.objective}, "
            f"top |score| {record.top_score:.4f}, feedback {kinds}, "
            f"knowledge {record.knowledge_nats:.3f} nats"
        )
    curve = result.knowledge_curve()
    print(f"knowledge curve (nats): {[round(k, 3) for k in curve]}")
    print(f"stopped by: {result.stopped_by}")
    if trace_path:
        save_trace(result, trace_path)
        print(f"trace written to {trace_path}")
    return 0


def cmd_explore_replay(
    trace_path: str, url: str | None, tolerance: float = 0.0
) -> int:
    """Replay a recorded trace and verify the knowledge curve matches."""
    from repro.explore import (
        in_process_driver_for,
        load_trace,
        remote_driver_for,
        replay_trace,
    )

    trace = load_trace(trace_path)
    dataset = trace.session_info.get("dataset")
    if url is not None:
        from repro.service import ServiceClient

        driver = remote_driver_for(trace, ServiceClient(url))
        where = url
    else:
        if dataset not in DATASETS:
            print(
                f"trace names unknown dataset {dataset!r}; "
                f"known: {sorted(DATASETS)}",
                file=sys.stderr,
            )
            return 1
        driver = in_process_driver_for(trace, DATASETS[dataset]().data)
        where = "in-process"
    result = replay_trace(trace, driver, tolerance=tolerance)
    print(f"replaying {trace_path} ({len(trace.rounds)} rounds, {where})")
    print(f"recorded curve: {[round(k, 3) for k in result.expected_curve]}")
    print(f"replayed curve: {[round(k, 3) for k in result.actual_curve]}")
    if result.matches:
        print("replay matches: identical feedback labels and knowledge curve")
        return 0
    print(f"replay MISMATCH: {result.mismatches}", file=sys.stderr)
    return 1


def cmd_loadgen(
    url: str | None,
    sessions: int,
    workers: int | None,
    policies: list[str] | None,
    datasets: list[str] | None,
    rounds: int,
    objective: str,
    seed: int,
    output: str,
    obs_enabled: bool = False,
    obs_log: str | None = None,
    scrape_interval: float = 0.5,
    deadline_ms: float | None = None,
    chaos_spec: str | None = None,
    chaos_seed: int | None = None,
    serve_workers: int = 1,
) -> int:
    """Policy-driven concurrent workload against a (possibly temp) server."""
    from repro.explore import (
        LoadGenConfig,
        format_report,
        run_loadgen,
        write_report,
    )

    obs_enabled = obs_enabled or obs_log is not None
    configured_obs = False
    if obs_enabled and url is None:
        # The temporary server runs in this process, so observability can
        # be switched on right here; against an external URL the server
        # operator controls it and loadgen only scrapes.
        from repro import obs as obs_module

        obs_module.configure(event_log=obs_log)
        configured_obs = True
    elif obs_log is not None:
        print(
            "--obs-log only applies to the temporary in-process server; "
            "an external server writes its own event log",
            file=sys.stderr,
        )
    server = None
    router = None
    if url is None and serve_workers > 1:
        import os
        import tempfile

        from repro.service import ReproServer
        from repro.service.router import ProcessWorker, Router, WorkerPool
        from repro.service.worker import WorkerConfig

        runtime_dir = tempfile.mkdtemp(prefix="repro-loadgen-shard-")
        store_url = f"sqlite:{os.path.join(runtime_dir, 'store.db')}"
        l2_path = os.path.join(runtime_dir, "solve-cache.db")

        def _factory(worker_id: int) -> ProcessWorker:
            return ProcessWorker(
                WorkerConfig(
                    worker_id=worker_id,
                    socket_path=os.path.join(
                        runtime_dir, f"worker-{worker_id}.sock"
                    ),
                    store_url=store_url,
                    l2_cache_path=l2_path,
                    obs=obs_enabled,
                )
            )

        print(f"starting temporary sharded service ({serve_workers} workers) ...")
        router = Router(
            WorkerPool(serve_workers, _factory),
            shared_store=True,
            dataset_names=sorted(DATASETS),
        )
        server = ReproServer(router, port=0).start_background()
        url = server.base_url
        print(f"started temporary sharded service on {url}")
    elif url is None:
        from repro.service import SessionManager, start_background

        server = start_background(SessionManager(DATASETS))
        url = server.base_url
        print(f"started temporary service on {url}")
    try:
        config = LoadGenConfig(
            url=url,
            sessions=sessions,
            workers=workers,
            policies=tuple(policies or ("objective-sweep",)),
            datasets=tuple(datasets) if datasets else None,
            rounds=rounds,
            objective=objective,
            seed=seed,
            obs=obs_enabled,
            scrape_interval=scrape_interval,
            deadline_ms=deadline_ms,
            chaos=chaos_spec,
            chaos_seed=chaos_seed,
        )
        print(
            f"loadgen: {config.sessions} session(s) x {config.rounds} "
            f"round(s), {config.resolved_workers()} worker(s), "
            f"policies {list(config.policies)}"
        )
        if chaos_spec:
            print(f"chaos: {chaos_spec}")
        report = run_loadgen(config)
    finally:
        if server is not None:
            server.stop()
        if router is not None:
            router.close()
        if configured_obs:
            from repro import obs as obs_module

            obs_module.disable()
    print(format_report(report))
    path = write_report(report, output)
    print(f"report written to {path}")
    if obs_log is not None and configured_obs:
        print(f"event log written to {obs_log} (analyze: repro trace {obs_log})")
    return 0 if report.totals["sessions_failed"] == 0 else 1


def cmd_bench(
    quick: bool,
    output_dir: str,
    check: str | None,
    refresh: bool,
    seed: int,
    suite: str = "all",
) -> int:
    """Run the vectorized-kernel benchmark suites; optionally gate on baselines."""
    from repro.bench import (
        SUITES,
        check_baselines,
        format_payload,
        refresh_existing,
        write_payload,
    )

    names = list(SUITES) if suite == "all" else [suite]
    failures: list[str] = []
    for name in names:
        payload = SUITES[name](quick=quick, seed=seed)
        print(format_payload(payload))
        path = write_payload(payload, output_dir)
        print(f"bench artifact: {path}")
        if check is not None:
            failures.extend(check_baselines(payload, check))

    status = 0
    if refresh:
        print("refreshing pytest benchmark artifacts ...")
        status = refresh_existing(output_dir)
    if check is not None:
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"baselines ok ({check})")
    return status


def cmd_serve(
    host: str,
    port: int,
    store_dir: str | None,
    max_sessions: int,
    ttl: float | None,
    cache_size: int,
    obs_enabled: bool = False,
    obs_log: str | None = None,
    slow_ms: float = 500.0,
    store_url: str | None = None,
    fsync: str = "batch",
    obs_rotate_mb: float | None = None,
    history_interval: float = 1.0,
    history_capacity: int = 600,
    view_p99_budget: float | None = None,
    profile: bool = False,
    profile_hz: float = 100.0,
    default_deadline_ms: float | None = None,
    max_inflight: int | None = None,
    drain_budget: float | None = None,
    workers: int = 1,
    l2_cache: str | None = None,
) -> int:
    import os
    import signal
    import threading

    from repro.resilience import (
        AdmissionController,
        run_drain,
    )
    from repro.resilience import chaos as chaos_module
    from repro.resilience.drain import DEFAULT_DRAIN_BUDGET
    from repro.service import (
        ReproServer,
        ServiceAPI,
        SessionManager,
        SolveCache,
        serve,
    )
    from repro.service.cache import L2SolveCache
    from repro.service.store import StoreError

    if drain_budget is None:
        drain_budget = DEFAULT_DRAIN_BUDGET

    if store_url is not None and store_dir is not None:
        print("--store and --store-dir are mutually exclusive", file=sys.stderr)
        return 2
    if store_url is None and store_dir is not None:
        store_url = f"dir:{store_dir}"
    if workers < 1:
        print(f"--workers must be >= 1, got {workers}", file=sys.stderr)
        return 2
    if workers > 1:
        return _cmd_serve_sharded(
            host=host,
            port=port,
            workers=workers,
            store_url=store_url,
            fsync=fsync,
            max_sessions=max_sessions,
            ttl=ttl,
            cache_size=cache_size,
            l2_cache=l2_cache,
            obs_enabled=obs_enabled,
            obs_log=obs_log,
            slow_ms=slow_ms,
            default_deadline_ms=default_deadline_ms,
            max_inflight=max_inflight,
            drain_budget=drain_budget,
        )
    store = None
    if store_url is not None:
        from repro.store import store_from_url

        try:
            store = store_from_url(store_url, fsync=fsync)
        except StoreError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if obs_enabled or obs_log is not None:
        from repro import obs as obs_module
        from repro.obs.slo import default_slos

        slos = default_slos(**(
            {"view_p99_budget": view_p99_budget}
            if view_p99_budget is not None else {}
        ))
        obs_module.configure(
            event_log=obs_log,
            slow_ms=slow_ms,
            event_log_max_bytes=(
                int(obs_rotate_mb * 1024 * 1024)
                if obs_rotate_mb and obs_log else None
            ),
            slos=slos,
            history_interval=history_interval,
            history_capacity=history_capacity,
        )
    if profile:
        from repro import obs as obs_module

        obs_module.start_profiler(interval=1.0 / profile_hz)
    chaos_registry = chaos_module.configure_from_env(os.environ)
    cache = None
    if cache_size > 0:
        l2 = L2SolveCache(l2_cache) if l2_cache else None
        cache = SolveCache(max_entries=cache_size, l2=l2)
    manager = SessionManager(
        DATASETS,
        store=store,
        cache=cache,
        max_sessions=max_sessions,
        ttl_seconds=ttl,
    )
    api = ServiceAPI(
        manager,
        admission=AdmissionController(max_inflight=max_inflight),
        default_deadline_ms=default_deadline_ms,
        drain_budget=drain_budget,
    )
    server = ReproServer(api, host=host, port=port, quiet=False)
    # POST /v1/admin/drain stops the serve loop once the drain finishes.
    api.shutdown_hook = server.shutdown
    actual_port = server.server_address[1]
    print(f"repro service on http://{host}:{actual_port}")
    print("routes: /v1/...")
    print(f"datasets:   {', '.join(manager.dataset_names())}")
    print(f"objectives: {', '.join(registry.names())}")
    if store is not None:
        durability = f", fsync={fsync}" if manager.durable else ""
        print(f"store: {store_url}{durability}")
    if obs_enabled or obs_log is not None:
        print(
            "observability: tracing on, metrics at /v1/metrics, history at "
            "/v1/metrics/history, SLOs in /v1/health"
            + (f", events -> {obs_log}" if obs_log else "")
        )
    if profile:
        print(
            f"profiler: sampling at {profile_hz:g} Hz, collapsed stacks "
            "at /v1/profile"
        )
    if max_inflight is not None or default_deadline_ms is not None:
        print(
            "resilience: "
            f"max-inflight={max_inflight if max_inflight else 'unbounded'}, "
            f"default-deadline-ms={default_deadline_ms or 'none'}, "
            f"drain-budget={drain_budget:g}s"
        )
    if chaos_registry is not None:
        print(
            "CHAOS INJECTION ACTIVE (REPRO_CHAOS): "
            + "; ".join(str(f.to_dict()) for f in chaos_registry.faults)
        )

    def checkpoint_on_shutdown() -> None:
        if manager.store is not None:
            print(f"checkpointed {manager.checkpoint_all()} session(s)")

    def drain_in_background() -> None:
        report = run_drain(
            api.admission,
            manager,
            budget_seconds=drain_budget,
            shutdown=server.shutdown,
        )
        print(
            f"drained: {report['checkpointed']} session(s) checkpointed, "
            f"{report['abandoned_inflight']} request(s) abandoned, "
            f"{report['elapsed_seconds']:.2f}s elapsed"
        )

    def handle_sigterm(signum, frame) -> None:
        # Graceful drain: stop admitting, let in-flight requests finish
        # inside the budget, checkpoint, then stop the serve loop.  Runs
        # on its own thread — server.shutdown() would deadlock if called
        # from a signal handler interrupting serve_forever's poll loop.
        print(f"SIGTERM: draining (budget {drain_budget:g}s) ...")
        threading.Thread(
            target=drain_in_background, name="repro-sigterm-drain",
            daemon=True,
        ).start()

    try:
        previous = signal.signal(signal.SIGTERM, handle_sigterm)
    except ValueError:
        previous = None  # not the main thread (embedded use); no handler
    try:
        serve(server, on_shutdown=checkpoint_on_shutdown)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_serve_sharded(
    host: str,
    port: int,
    workers: int,
    store_url: str | None,
    fsync: str,
    max_sessions: int,
    ttl: float | None,
    cache_size: int,
    l2_cache: str | None,
    obs_enabled: bool,
    obs_log: str | None,
    slow_ms: float,
    default_deadline_ms: float | None,
    max_inflight: int | None,
    drain_budget: float,
) -> int:
    """``repro serve --workers N``: router front-end + worker processes."""
    import os
    import signal
    import tempfile
    import threading

    from repro.resilience.admission import AdmissionController
    from repro.service import ReproServer, serve
    from repro.service.router import ProcessWorker, Router, WorkerPool
    from repro.service.store import StoreError
    from repro.service.worker import WorkerConfig

    if store_url is not None:
        # Validate the URL here, where the error message is readable —
        # workers opening a broken store would only report "never ready".
        from repro.store import store_from_url

        try:
            store_from_url(store_url, fsync=fsync).close()
        except StoreError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    shared_store = store_url is not None
    runtime_dir = tempfile.mkdtemp(prefix="repro-shard-")
    if cache_size > 0 and l2_cache is None:
        l2_cache = os.path.join(runtime_dir, "solve-cache.db")

    if obs_enabled or obs_log is not None:
        # Router-side observability: shed counters and the merge source
        # label; each worker configures its own registry (WorkerConfig).
        from repro import obs as obs_module

        obs_module.configure(slow_ms=slow_ms)

    def factory(worker_id: int) -> ProcessWorker:
        return ProcessWorker(
            WorkerConfig(
                worker_id=worker_id,
                socket_path=os.path.join(
                    runtime_dir, f"worker-{worker_id}.sock"
                ),
                store_url=store_url,
                fsync=fsync,
                cache_size=cache_size,
                l2_cache_path=l2_cache if cache_size > 0 else None,
                max_sessions=max_sessions,
                ttl_seconds=ttl,
                default_deadline_ms=default_deadline_ms,
                obs=obs_enabled or obs_log is not None,
                obs_log=(
                    f"{obs_log}.worker{worker_id}" if obs_log else None
                ),
                slow_ms=slow_ms,
            )
        )

    print(f"starting {workers} worker process(es) ...")
    try:
        pool = WorkerPool(workers, factory)
    except Exception as exc:  # noqa: BLE001 — report and exit cleanly
        print(f"failed to start worker pool: {exc}", file=sys.stderr)
        return 2
    router = Router(
        pool,
        shared_store=shared_store,
        admission=AdmissionController(max_inflight=max_inflight),
        drain_budget=drain_budget,
        dataset_names=sorted(DATASETS),
    )
    server = ReproServer(router, host=host, port=port, quiet=False)
    # POST /v1/admin/drain stops the serve loop once the fleet drains.
    router.shutdown_hook = server.shutdown
    actual_port = server.server_address[1]
    print(f"repro sharded service on http://{host}:{actual_port}")
    print(
        f"workers: {workers} (sticky session routing, "
        + (
            "rebalance + recovery on worker death"
            if shared_store
            else "static ring — no shared store, sessions die with "
            "their worker"
        )
        + ")"
    )
    if store_url is not None:
        print(f"store: {store_url} (shared, fsync={fsync})")
    if cache_size > 0 and l2_cache:
        print(
            f"solve cache: L1 {cache_size} entries/worker + shared L2 "
            f"at {l2_cache}"
        )

    def drain_in_background() -> None:
        report = router.drain(drain_budget)
        print(
            f"drained: {report['checkpointed']} session(s) checkpointed "
            f"across {len(report['workers'])} worker(s), "
            f"{report['abandoned_inflight']} request(s) abandoned, "
            f"{report['elapsed_seconds']:.2f}s elapsed"
        )
        server.shutdown()

    def handle_sigterm(signum, frame) -> None:
        print(f"SIGTERM: draining fleet (budget {drain_budget:g}s) ...")
        threading.Thread(
            target=drain_in_background, name="repro-sigterm-drain",
            daemon=True,
        ).start()

    try:
        previous = signal.signal(signal.SIGTERM, handle_sigterm)
    except ValueError:
        previous = None  # not the main thread (embedded use)
    try:
        serve(server, on_shutdown=router.close)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 0


def cmd_store(
    action: str,
    url: str,
    as_json: bool = False,
    policy: str = "fail",
    session: str | None = None,
) -> int:
    """``repro store inspect|verify|compact`` — offline store tooling."""
    import json

    from repro.service.store import SessionNotFoundError, StoreError
    from repro.store import (
        FeedbackLogStore,
        compact_offline,
        store_from_url,
        verify_store,
    )

    try:
        store = store_from_url(url)
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if action == "inspect":
        sessions = {}
        for sid in store.list_ids():
            try:
                payload = store.get(sid)
                info = {
                    "checkpointed": True,
                    "dataset": payload.get("dataset"),
                    "checkpoint_wal_seq": int(payload.get("wal_seq", 0)),
                }
            except SessionNotFoundError:
                info = {"checkpointed": False}
            except StoreError as exc:
                info = {"checkpointed": False, "error": str(exc)}
            if isinstance(store, FeedbackLogStore):
                tail, damage = store.feedback_tail(
                    sid, after_seq=info.get("checkpoint_wal_seq", 0)
                )
                info["tail_records"] = len(tail)
                info["last_seq"] = store.last_seq(sid)
                if damage:
                    info["damage"] = damage
            sessions[sid] = info
        report = {
            "url": url,
            "backend": type(store).__name__,
            "durable": isinstance(store, FeedbackLogStore),
            "sessions": sessions,
        }
        if as_json:
            print(json.dumps(report, indent=2))
        else:
            print(f"{url} ({report['backend']}, "
                  f"{'durable' if report['durable'] else 'checkpoint-only'})")
            if not sessions:
                print("no sessions")
            for sid, info in sessions.items():
                parts = [f"dataset={info.get('dataset')}"]
                if "tail_records" in info:
                    parts.append(
                        f"wal_seq={info.get('checkpoint_wal_seq', 0)}"
                        f" tail={info['tail_records']}"
                    )
                if "damage" in info:
                    parts.append(f"DAMAGE: {info['damage']}")
                if "error" in info:
                    parts.append(f"ERROR: {info['error']}")
                print(f"  {sid}: " + " ".join(parts))
        return 0

    if action == "verify":
        report = verify_store(store, policy=policy)
        if as_json:
            print(json.dumps(report, indent=2))
        else:
            for sid, info in report["sessions"].items():
                line = f"  {sid}: {info['tail_records']} tail record(s)"
                for warning in info["warnings"]:
                    line += f"\n    WARNING {warning}"
                print(line)
            for sid, why in report["errors"].items():
                print(f"  {sid}: CORRUPT — {why}")
            print("store OK" if report["ok"] else "store has damage")
        return 0 if report["ok"] else 1

    # compact
    if not isinstance(store, FeedbackLogStore):
        print(
            f"{url} has no feedback log to compact (checkpoint-only store)",
            file=sys.stderr,
        )
        return 2
    ids = [session] if session else store.list_ids()
    results = {}
    status = 0
    for sid in ids:
        try:
            payload = store.get(sid)
            dataset = payload.get("dataset")
            if dataset not in DATASETS:
                raise StoreError(
                    f"checkpoint names unknown dataset {dataset!r}"
                )
            results[sid] = compact_offline(
                store,
                sid,
                DATASETS[dataset]().data,
                standardize=bool(payload.get("standardize", False)),
                seed=payload.get("seed", 0),
            )
        except (StoreError, SessionNotFoundError) as exc:
            results[sid] = {"error": str(exc)}
            status = 1
    if as_json:
        print(json.dumps(results, indent=2))
    else:
        for sid, info in results.items():
            if "error" in info:
                print(f"  {sid}: FAILED — {info['error']}")
            else:
                print(
                    f"  {sid}: replayed {info['replayed']}, pruned "
                    f"{info['pruned']}, wal_seq -> {info['wal_seq']}"
                )
    return status


def cmd_trace(log: str, top: int, as_json: bool) -> int:
    """Analyze a JSONL request-event log (``repro trace events.jsonl``)."""
    import json

    from repro.obs.analyze import analyze_log, format_analysis

    try:
        report = analyze_log(log, top=top)
    except OSError as exc:
        print(f"cannot read {log}: {exc}", file=sys.stderr)
        return 1
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(format_analysis(report))
    return 0


def _load_history_samples(path: str) -> list[dict] | None:
    """Samples from a saved history file (several accepted shapes).

    Accepts a ``/v1/metrics/history`` dump (``{"samples": [...]}``), a
    bare sample list, or a ``BENCH_loadgen.json`` report carrying a
    recorded ``obs.series``.  Returns ``None`` when no samples are found.
    """
    import json

    with open(path, encoding="utf-8") as stream:
        payload = json.load(stream)
    if isinstance(payload, list):
        return payload
    if isinstance(payload, dict):
        if isinstance(payload.get("samples"), list):
            return payload["samples"]
        series = (payload.get("obs") or {}).get("series") or {}
        if isinstance(series.get("samples"), list):
            return series["samples"]
    return None


def cmd_slo_check(
    url: str | None,
    history: str | None,
    objectives: list[str] | None,
    view_p99_budget: float | None,
    error_rate: float,
    cache_hit_floor: float,
    short_window: float,
    long_window: float,
    strict: bool,
    as_json: bool,
) -> int:
    """``repro slo check`` — evaluate objectives, exit nonzero on breach.

    Exit codes: 0 objectives met, 1 violated (or degraded with
    ``--strict``, or an explicitly named objective has no data),
    2 usage/data errors (no source, unreachable server, empty history).
    """
    import json

    from repro.obs.slo import (
        INTERACTIVITY_BUDGET_SECONDS,
        default_slos,
        evaluate_samples,
    )

    if (url is None) == (history is None):
        print("slo check needs exactly one of --url or --history",
              file=sys.stderr)
        return 2
    if url is not None:
        from repro.service import ServiceClient

        payload = ServiceClient(url).metrics_history()
        if not payload.get("enabled"):
            print(
                f"{url} has no metrics history — start the server with "
                "`repro serve --obs`",
                file=sys.stderr,
            )
            return 2
        samples = payload.get("samples", [])
        source = url
    else:
        try:
            samples = _load_history_samples(history)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {history}: {exc}", file=sys.stderr)
            return 2
        if samples is None:
            print(
                f"{history} carries no metrics samples (expected a "
                "/v1/metrics/history dump, a sample list, or a loadgen "
                "report with an obs series)",
                file=sys.stderr,
            )
            return 2
        source = history
    if len(samples) < 2:
        print(
            f"{source}: {len(samples)} sample(s) retained — need at least "
            "2 to evaluate a window",
            file=sys.stderr,
        )
        return 2

    slos = default_slos(
        view_p99_budget=(
            view_p99_budget if view_p99_budget is not None
            else INTERACTIVITY_BUDGET_SECONDS
        ),
        error_rate_ceiling=error_rate,
        cache_hit_floor=cache_hit_floor,
    )
    if objectives:
        known = {slo.name for slo in slos}
        unknown = [name for name in objectives if name not in known]
        if unknown:
            print(
                f"unknown objective(s) {unknown}; known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        slos = tuple(slo for slo in slos if slo.name in objectives)
    report = evaluate_samples(
        samples, slos, short_window=short_window, long_window=long_window
    )
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(f"slo check ({source}, {report['samples']} samples)")
        for row in report["slos"]:
            short = row["short"]
            measured = short["measured"]
            burn = short["burn"]
            print(
                f"  {row['name']:<20} {row['status']:<10} "
                f"measured={'-' if measured is None else f'{measured:.4g}'} "
                f"threshold={short['threshold']:g} "
                f"burn={'-' if burn is None else f'{burn:.2f}'}"
            )
    failed = [r["name"] for r in report["slos"] if r["status"] == "violating"]
    if strict:
        failed += [r["name"] for r in report["slos"]
                   if r["status"] == "degraded"]
    if objectives:
        # A named objective we cannot measure is a failed gate, not a pass.
        failed += [r["name"] for r in report["slos"]
                   if r["status"] == "no_data"]
    if failed:
        print(f"SLO FAILED: {', '.join(sorted(set(failed)))}",
              file=sys.stderr)
        return 1
    print(f"slo ok ({report['status']})")
    return 0


def cmd_top(url: str, interval: float, iterations: int | None) -> int:
    """``repro top`` — live ops dashboard over a running service."""
    from repro.obs.top import run_top
    from repro.service.client import ServiceClientError

    try:
        return run_top(url, interval=interval, iterations=iterations)
    except ServiceClientError as exc:
        print(f"cannot reach {url}: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro`` and the console script."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "experiment":
        return cmd_experiment(args.name)
    if args.command == "dataset":
        return cmd_dataset(args.name)
    if args.command == "objectives":
        return cmd_objectives()
    if args.command == "explore":
        if args.replay is not None:
            return cmd_explore_replay(args.replay, args.url, args.tolerance)
        dataset = args.dataset or args.name
        if dataset is None:
            print(
                "explore needs a dataset (positional name or --dataset)",
                file=sys.stderr,
            )
            return 2
        if args.policy is not None:
            return cmd_explore_policy(
                dataset,
                args.policy,
                args.rounds,
                args.objective,
                args.seed,
                args.trace,
                args.warm_start,
                args.plateau_nats,
                args.max_seconds,
            )
        return cmd_explore(dataset, args.rounds, args.objective, args.seed)
    if args.command == "loadgen":
        return cmd_loadgen(
            args.url,
            args.sessions,
            args.workers,
            args.policy,
            args.dataset,
            args.rounds,
            args.objective,
            args.seed,
            args.output,
            args.obs,
            args.obs_log,
            args.scrape_interval,
            args.deadline_ms,
            args.chaos,
            args.chaos_seed,
            args.serve_workers,
        )
    if args.command == "bench":
        return cmd_bench(
            args.quick,
            args.output_dir,
            args.check,
            args.refresh_existing,
            args.seed,
            args.suite,
        )
    if args.command == "serve":
        return cmd_serve(
            args.host,
            args.port,
            args.store_dir,
            args.max_sessions,
            args.ttl,
            args.cache_size,
            args.obs,
            args.obs_log,
            args.slow_ms,
            args.store,
            args.fsync,
            args.obs_rotate_mb,
            args.history_interval,
            args.history_capacity,
            args.view_p99_budget,
            args.profile,
            args.profile_hz,
            args.default_deadline_ms,
            args.max_inflight,
            args.drain_budget,
            args.workers,
            args.l2_cache,
        )
    if args.command == "store":
        return cmd_store(
            args.store_command,
            args.url,
            as_json=args.json,
            policy=getattr(args, "policy", "fail"),
            session=getattr(args, "session", None),
        )
    if args.command == "trace":
        return cmd_trace(args.log, args.top, args.json)
    if args.command == "slo":
        return cmd_slo_check(
            args.url,
            args.history,
            args.objective,
            args.view_p99_budget,
            args.error_rate,
            args.cache_hit_floor,
            args.short_window,
            args.long_window,
            args.strict,
            args.json,
        )
    if args.command == "top":
        return cmd_top(args.url, args.interval, args.iterations)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
