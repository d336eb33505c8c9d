"""`repro.obs`: request tracing, structured events, exportable metrics.

One switch turns the whole layer on: :func:`configure` (or the
``REPRO_OBS=1`` / ``REPRO_OBS_LOG=path`` environment variables, read at
import) installs a process-wide :class:`Observability` state that the
service and the compute kernels consult at runtime:

* **Tracing** — the HTTP layer starts a :class:`~repro.obs.trace.Trace`
  per request (id from the ``X-Repro-Trace-Id`` header, or minted) and
  every ``repro.perf`` timer that fires while it is active becomes a
  span of that request, via the bridge installed at
  :data:`repro.perf.trace_sink`.
* **Events** — each completed request is emitted as one JSONL line
  (route, status, trace id, duration, span tree, solver/cache counters)
  to the configured :class:`~repro.obs.events.EventLog`; requests slower
  than ``slow_ms`` — and every 4xx/5xx, as a typed ``error`` event —
  carry full per-span detail.
* **Metrics** — a :class:`~repro.obs.metrics.MetricsRegistry` of
  counters/gauges/histograms (request duration per route, solve
  duration, cache hit/miss, feedback batch size, live sessions) exported
  at ``GET /v1/metrics`` in Prometheus text format (JSON variant via
  ``?format=json``).

While *disabled* (the default) every hook in the hot path is one module
attribute read plus a ``None`` check — the same cost class as a disabled
``perf.add`` — pinned by a micro-benchmark in the test suite.
"""

from __future__ import annotations

import os
import time

from repro import perf
from repro.obs import trace as trace_module
from repro.obs.events import EventLog, read_events
from repro.obs.metrics import (
    DEFAULT_FSYNC_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_SOLVE_BUCKETS,
    MetricsRegistry,
    bucket_bounds,
    histogram_quantile,
    parse_prometheus,
)
from repro.obs.profile import StackProfiler
from repro.obs.slo import SLO, SLOEngine, default_slos
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.trace import PerfBridge, Trace, accept_trace_id, new_trace_id

__all__ = [
    "EventLog",
    "MetricsRegistry",
    "Observability",
    "SLO",
    "SLOEngine",
    "StackProfiler",
    "TimeSeriesRecorder",
    "Trace",
    "accept_trace_id",
    "active",
    "bucket_bounds",
    "cache_lookup",
    "compaction",
    "configure",
    "deadline_exceeded",
    "default_slos",
    "disable",
    "feedback_batch",
    "feedback_deduplicated",
    "histogram_quantile",
    "is_enabled",
    "new_trace_id",
    "parse_prometheus",
    "profiler",
    "read_events",
    "recovery",
    "shed",
    "solve_completed",
    "start_profiler",
    "stop_profiler",
    "trace_module",
    "wal_append",
]

#: HTTP header carrying the trace id in both directions.
TRACE_HEADER = "X-Repro-Trace-Id"

class Observability:
    """Process-wide observability state: metrics + event sink + tracing.

    Construct directly for tests; production code goes through
    :func:`configure`, which also installs the instance as the active
    state and hooks the perf-timer span bridge.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        slow_ms: float = 500.0,
        tracing: bool = True,
        bucket_overrides: dict[str, tuple[float, ...]] | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events
        self.slow_ms = float(slow_ms)
        self.tracing = bool(tracing)
        self.history: TimeSeriesRecorder | None = None
        self.slo: SLOEngine | None = None
        overrides = dict(bucket_overrides or {})

        def _buckets(name: str, default: tuple[float, ...]):
            return tuple(overrides.get(name, default))

        m = self.metrics
        self._requests = m.counter(
            "repro_requests_total",
            "Service requests handled, by route and status code.",
            labelnames=("route", "status"),
        )
        self._request_duration = m.histogram(
            "repro_request_duration_seconds",
            "Server-side request duration, by route.",
            labelnames=("route",),
            buckets=_buckets(
                "repro_request_duration_seconds", DEFAULT_LATENCY_BUCKETS
            ),
        )
        self._slow_requests = m.counter(
            "repro_slow_requests_total",
            "Requests slower than the slow-request threshold, by route.",
            labelnames=("route",),
        )
        self._solve_duration = m.histogram(
            "repro_solve_duration_seconds",
            "MaxEnt solver wall-clock per solve (INIT + OPTIM).",
            buckets=_buckets(
                "repro_solve_duration_seconds", DEFAULT_SOLVE_BUCKETS
            ),
        ).default()
        self._solver_sweeps = m.counter(
            "repro_solver_sweeps_total",
            "Full solver sweeps across all solves.",
        ).default()
        self._cache_lookups = m.counter(
            "repro_solve_cache_lookups_total",
            "Solve-cache lookups, by result.",
            labelnames=("result",),
        )
        self._feedback_batch = m.histogram(
            "repro_feedback_batch_size",
            "Feedback items per applied batch.",
            buckets=_buckets("repro_feedback_batch_size", DEFAULT_SIZE_BUCKETS),
        ).default()
        self._wal_append = m.histogram(
            "repro_wal_append_seconds",
            "Durable write-ahead append per feedback batch.",
            buckets=_buckets("repro_wal_append_seconds", DEFAULT_FSYNC_BUCKETS),
        ).default()
        self._compactions = m.counter(
            "repro_store_compactions_total",
            "Feedback-log folds into a fresh checkpoint.",
        ).default()
        self._compacted_records = m.counter(
            "repro_store_compacted_records_total",
            "WAL records pruned by compaction.",
        ).default()
        self._recoveries = m.counter(
            "repro_store_recoveries_total",
            "Session resumes that replayed a feedback-log tail.",
        ).default()
        self._recovered_batches = m.counter(
            "repro_store_recovered_batches_total",
            "Feedback batches replayed from the log during recovery.",
        ).default()
        self._shed = m.counter(
            "repro_shed_total",
            "Requests shed by admission control, by reason "
            "(overloaded / draining).",
            labelnames=("reason",),
        )
        self._deadline_exceeded = m.counter(
            "repro_deadline_exceeded_total",
            "Requests aborted because their deadline budget expired.",
        ).default()
        self._feedback_dedup = m.counter(
            "repro_feedback_deduplicated_total",
            "Feedback batches answered from the idempotency dedup map "
            "instead of re-applied.",
        ).default()
        self._sessions_gauge = m.gauge(
            "repro_sessions_in_memory",
            "Live sessions held in memory by the manager.",
        ).default()
        self._hit_ratio_gauge = m.gauge(
            "repro_solve_cache_hit_ratio",
            "Lifetime solve-cache hit ratio (0 when no cache).",
        ).default()

    # ------------------------------------------------------------------
    # Retention + objectives (obs v2)
    # ------------------------------------------------------------------

    def enable_history(
        self, interval: float = 1.0, capacity: int = 600
    ) -> TimeSeriesRecorder:
        """Start (or return) the ring-buffer metrics recorder."""
        if self.history is None:
            self.history = TimeSeriesRecorder(
                self.metrics, interval=interval, capacity=capacity
            )
        self.history.start()
        return self.history

    def enable_slos(
        self,
        slos=None,
        short_window: float | None = None,
        long_window: float | None = None,
        history_interval: float = 1.0,
        history_capacity: int = 600,
    ) -> SLOEngine:
        """Attach an SLO engine (implies history retention).

        ``slos`` is a sequence of :class:`~repro.obs.slo.SLO`; ``None``
        installs :func:`~repro.obs.slo.default_slos`.
        """
        recorder = self.enable_history(
            interval=history_interval, capacity=history_capacity
        )
        kwargs = {}
        if short_window is not None:
            kwargs["short_window"] = short_window
        if long_window is not None:
            kwargs["long_window"] = long_window
        self.slo = SLOEngine(recorder, slos=slos, **kwargs)
        return self.slo

    def slo_report(self) -> dict | None:
        """Current SLO evaluation, or ``None`` when no engine is on."""
        return self.slo.report() if self.slo is not None else None

    def shutdown(self) -> None:
        """Stop owned background threads (recorder); sinks stay open."""
        if self.history is not None:
            self.history.stop()

    # ------------------------------------------------------------------
    # Request-level recording
    # ------------------------------------------------------------------

    def observe_request(
        self,
        method: str,
        path: str,
        status: int,
        seconds: float,
        *,
        route: str,
        session_id: str | None = None,
        trace: Trace | None = None,
        trace_id: str | None = None,
        error: str | None = None,
        error_kind: str | None = None,
        started: float | None = None,
    ) -> None:
        """Record one finished request: metrics always, one event if a
        sink is configured (typed ``error`` event for 4xx/5xx).

        ``route`` is the caller's route key (see
        :func:`repro.service.api.route_key`), the metrics label.
        """
        self._requests.labels(route=route, status=str(status)).inc()
        self._request_duration.labels(route=route).observe(seconds)
        duration_ms = seconds * 1e3
        slow = duration_ms >= self.slow_ms
        if slow:
            self._slow_requests.labels(route=route).inc()
        if self.events is None:
            return
        failed = status >= 400
        event: dict = {
            "event": "error" if failed else "request",
            "trace_id": trace.trace_id if trace is not None else trace_id,
            "route": route,
            "method": method,
            "path": path.split("?", 1)[0],
            "status": int(status),
            "duration_ms": duration_ms,
        }
        if session_id is not None:
            event["session_id"] = session_id
        if failed:
            event["error_kind"] = error_kind or "error"
            if error:
                event["error"] = error
        if slow:
            event["slow"] = True
        if trace is not None:
            counters = trace.counters
            if counters:
                event["counters"] = counters
                hits = counters.get("service.solve_cache_hits", 0)
                misses = counters.get("service.solves", 0)
                if hits or misses:
                    event["cache"] = "hit" if hits else "miss"
                sweeps = counters.get("solver.sweeps")
                if sweeps is not None:
                    event["solver_sweeps"] = int(sweeps)
            event["spans"] = trace.span_tree()
            if slow or failed:
                # Promote full per-span detail for the requests worth
                # staring at; routine fast requests stay one line.
                event["span_detail"] = trace.span_events()
        if slow:
            # Slow-request exemplar: if the sampling profiler is running,
            # attach its recent stacks for this handler thread, scoped to
            # the request's own lifetime — "p99 regressed" arrives with
            # the offending code path, not just a duration.
            prof = _profiler
            if prof is not None and prof.running:
                excerpt = prof.excerpt(since=started)
                if excerpt:
                    event["profile"] = excerpt
        self.events.emit(event)

    def update_service_gauges(self, manager) -> None:
        """Refresh scrape-time gauges from a session manager."""
        self._sessions_gauge.set(manager.live_session_count())
        cache = getattr(manager, "cache", None)
        ratio = cache.stats().get("hit_rate", 0.0) if cache is not None else 0.0
        self._hit_ratio_gauge.set(ratio)

    # ------------------------------------------------------------------
    # Kernel-level recording (module helpers forward here)
    # ------------------------------------------------------------------

    def record_solve(self, elapsed: float, sweeps: int) -> None:
        self._solve_duration.observe(elapsed)
        self._solver_sweeps.inc(sweeps)

    def record_cache_lookup(self, hit: bool) -> None:
        self._cache_lookups.labels(result="hit" if hit else "miss").inc()

    def record_feedback_batch(self, size: int) -> None:
        self._feedback_batch.observe(size)

    def record_wal_append(self, seconds: float) -> None:
        self._wal_append.observe(seconds)

    def record_compaction(self, pruned_records: int) -> None:
        self._compactions.inc()
        self._compacted_records.inc(pruned_records)

    def record_shed(self, reason: str) -> None:
        self._shed.labels(reason=reason).inc()

    def record_deadline_exceeded(self) -> None:
        self._deadline_exceeded.inc()

    def record_feedback_deduplicated(self) -> None:
        self._feedback_dedup.inc()

    def record_recovery(self, batches: int, warnings: int = 0) -> None:
        self._recoveries.inc()
        self._recovered_batches.inc(batches)
        if warnings and self.events is not None:
            self.events.emit(
                {"event": "recovery_warning", "warnings": int(warnings),
                 "replayed_batches": int(batches)}
            )


# ----------------------------------------------------------------------
# Process-wide state
# ----------------------------------------------------------------------

_active: Observability | None = None


def active() -> Observability | None:
    """The installed observability state, or ``None`` while disabled."""
    return _active


def is_enabled() -> bool:
    """Whether observability is currently on."""
    return _active is not None


def configure(
    event_log: str | EventLog | None = None,
    metrics: MetricsRegistry | None = None,
    slow_ms: float = 500.0,
    tracing: bool = True,
    bucket_overrides: dict[str, tuple[float, ...]] | None = None,
    event_log_max_bytes: int | None = None,
    history: bool = False,
    history_interval: float = 1.0,
    history_capacity: int = 600,
    slos=None,
    slo_short_window: float | None = None,
    slo_long_window: float | None = None,
) -> Observability:
    """Enable observability process-wide; returns the installed state.

    ``event_log`` may be a path (opened append-mode) or a pre-built
    :class:`EventLog`; ``None`` records metrics and traces without a
    JSONL sink.  ``event_log_max_bytes`` bounds a path-backed log via
    size rotation.  ``history=True`` starts the ring-buffer metrics
    recorder (``/v1/metrics/history``); ``slos`` attaches the SLO engine
    (``True`` for :func:`~repro.obs.slo.default_slos`, or an explicit
    sequence of :class:`~repro.obs.slo.SLO`) and implies history.
    ``bucket_overrides`` maps histogram family names to replacement
    bucket edges.  Reconfiguring replaces the previous state (its event
    log is closed if it was opened here; its recorder is stopped).
    """
    global _active
    previous = _active
    events = (
        EventLog(event_log, max_bytes=event_log_max_bytes)
        if isinstance(event_log, (str, os.PathLike))
        else event_log
    )
    state = Observability(
        metrics=metrics, events=events, slow_ms=slow_ms, tracing=tracing,
        bucket_overrides=bucket_overrides,
    )
    if slos is not None and slos is not False:
        state.enable_slos(
            slos=None if slos is True else slos,
            short_window=slo_short_window,
            long_window=slo_long_window,
            history_interval=history_interval,
            history_capacity=history_capacity,
        )
    elif history:
        state.enable_history(
            interval=history_interval, capacity=history_capacity
        )
    _active = state
    perf.trace_sink = PerfBridge() if tracing else None
    if previous is not None:
        previous.shutdown()
        if previous.events is not None and previous.events is not events:
            previous.events.close()
    return state


def disable() -> None:
    """Turn observability off, stop the recorder, close the event sink."""
    global _active
    state = _active
    _active = None
    perf.trace_sink = None
    if state is not None:
        state.shutdown()
        if state.events is not None:
            state.events.close()


# ----------------------------------------------------------------------
# Hot-path hooks (each is a no-op costing one global read while disabled)
# ----------------------------------------------------------------------


def solve_completed(elapsed: float, sweeps: int) -> None:
    """Called by the solver after every finished solve."""
    state = _active
    if state is not None:
        state.record_solve(elapsed, sweeps)


def cache_lookup(hit: bool) -> None:
    """Called by the solve cache on every lookup."""
    state = _active
    if state is not None:
        state.record_cache_lookup(hit)


def feedback_batch(size: int) -> None:
    """Called by the service when a feedback batch is applied."""
    state = _active
    if state is not None:
        state.record_feedback_batch(size)


def wal_append(seconds: float) -> None:
    """Called by the manager after each durable write-ahead append."""
    state = _active
    if state is not None:
        state.record_wal_append(seconds)


def compaction(pruned_records: int) -> None:
    """Called when a feedback log is folded into a checkpoint."""
    state = _active
    if state is not None:
        state.record_compaction(pruned_records)


def recovery(batches: int, warnings: int = 0) -> None:
    """Called when a resume replays a feedback-log tail."""
    state = _active
    if state is not None:
        state.record_recovery(batches, warnings)


def shed(reason: str) -> None:
    """Called when admission control refuses a request (``overloaded``
    / ``draining``)."""
    state = _active
    if state is not None:
        state.record_shed(reason)


def deadline_exceeded() -> None:
    """Called when a request is aborted by its deadline budget."""
    state = _active
    if state is not None:
        state.record_deadline_exceeded()


def feedback_deduplicated() -> None:
    """Called when an idempotency key answers a feedback batch from the
    dedup map instead of re-applying it."""
    state = _active
    if state is not None:
        state.record_feedback_deduplicated()


def request_envelope(
    method: str,
    path: str,
    route: str,
    session_id: str | None = None,
    trace_id: str | None = None,
):
    """Context manager tracing + recording one request (see ServiceAPI)."""
    return _RequestEnvelope(method, path, route, session_id, trace_id)


class _RequestEnvelope:
    """Times one request, traces it, and records it on exit.

    The HTTP layer and :meth:`ServiceAPI.dispatch` both use this; status
    and error typing are posted onto the envelope before exit via
    :meth:`set_result`.
    """

    __slots__ = (
        "method", "path", "route", "session_id", "trace_id", "trace",
        "started", "status", "error", "error_kind",
    )

    def __init__(
        self,
        method: str,
        path: str,
        route: str,
        session_id: str | None,
        trace_id: str | None,
    ) -> None:
        self.method = method
        self.path = path
        self.route = route
        self.session_id = session_id
        self.trace_id = trace_id
        self.trace: Trace | None = None
        self.started = 0.0
        self.status = 500
        self.error: str | None = None
        self.error_kind: str | None = None

    def __enter__(self) -> "_RequestEnvelope":
        state = _active
        if state is not None and state.tracing:
            self.trace = trace_module.start(self.trace_id)
            self.trace_id = self.trace.trace_id
        self.started = time.perf_counter()
        return self

    def set_result(
        self,
        status: int,
        error: str | None = None,
        error_kind: str | None = None,
    ) -> None:
        self.status = int(status)
        self.error = error
        self.error_kind = error_kind

    def __exit__(self, exc_type, exc, tb) -> None:
        seconds = time.perf_counter() - self.started
        if self.trace is not None:
            trace_module.finish(self.trace)
        state = _active
        if state is None:
            return None
        if exc_type is not None and self.error is None:
            # A bug that escaped the dispatcher's own error mapping.
            self.status = 500
            self.error = f"{exc_type.__name__}: {exc}"
            self.error_kind = "internal_error"
        state.observe_request(
            self.method,
            self.path,
            self.status,
            seconds,
            route=self.route,
            session_id=self.session_id,
            trace=self.trace,
            trace_id=self.trace_id,
            error=self.error,
            error_kind=self.error_kind,
            started=self.started,
        )
        return None


# ----------------------------------------------------------------------
# Continuous profiler (process-wide, decoupled from the obs switch)
# ----------------------------------------------------------------------

_profiler: StackProfiler | None = None


def profiler() -> StackProfiler | None:
    """The process profiler, or ``None`` if never started."""
    return _profiler


def start_profiler(
    interval: float | None = None,
) -> StackProfiler:
    """Start (or resume) the process-wide sampling profiler.

    ``interval`` seconds between samples (default ~100 Hz).  Idempotent;
    changing the interval while stopped replaces the profiler (and its
    accumulated stacks).
    """
    global _profiler
    from repro.obs import profile as profile_module

    if interval is None:
        interval = profile_module.DEFAULT_INTERVAL
    prof = _profiler
    if prof is None or (not prof.running and prof.interval != interval):
        prof = StackProfiler(interval=interval)
        _profiler = prof
    prof.start()
    return prof


def stop_profiler() -> StackProfiler | None:
    """Stop sampling; the collected stacks stay readable."""
    prof = _profiler
    if prof is not None:
        prof.stop()
    return prof


# Environment switch, read once at import: REPRO_OBS=1 enables the layer,
# REPRO_OBS_LOG both enables it and attaches the JSONL sink.
# REPRO_PROF=1 independently starts the sampling profiler
# (REPRO_PROF_HZ overrides the ~100 Hz default rate).
_env_log = os.environ.get("REPRO_OBS_LOG", "")
if os.environ.get("REPRO_OBS", "") == "1" or _env_log:
    configure(
        event_log=_env_log or None,
        slow_ms=float(os.environ.get("REPRO_OBS_SLOW_MS", "500")),
    )
if os.environ.get("REPRO_PROF", "") == "1":
    start_profiler(
        interval=1.0 / float(os.environ.get("REPRO_PROF_HZ", "100"))
    )
