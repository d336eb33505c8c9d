"""Run ``repro serve``, optionally timing calls into each layer.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launcher.py serve --port 0 [repro serve options]

With ``PERFBENCH_TRACE_DIR`` set, importing this module wraps the public
functions of each layer listed in :data:`LAYERS` with span recorders
before the service is built.  ``multiprocessing`` re-imports the parent's
main module in every ``spawn`` worker, so the worker processes of
``repro serve --workers N`` record their own spans too.  Spans stay in
memory and each process writes ``spans-<pid>.json`` into the trace
directory when it exits.  ``src/`` is not modified: the wrappers live
here, outside the program.

A span is ``[id, parent_id, name, rid, start, end, note]``: times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC on Linux, so comparable
across processes), ``rid`` is the benchmark's request id taken from the
``rid`` query parameter of the request that caused the call, and ``note``
is a small per-layer fact (a cache hit, the solver's sweep count, the
projection objective).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

TRACE_ENV = "PERFBENCH_TRACE_DIR"


def _rid_from_query(args, kwargs):
    query = kwargs.get("query")
    if query is None and len(args) > 4:
        query = args[4]
    return query.get("rid") if isinstance(query, dict) else None


def _rid_from_request(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("payload")
    if not isinstance(request, dict):
        return None
    query = request.get("query")
    return query.get("rid") if isinstance(query, dict) else None


#: (span name, module, attribute path, request-id extractor, note).
#: Functions looked up as module globals are wrapped in the module that
#: calls them (``most_informative_view`` where ``core.session`` finds it).
LAYERS = (
    ("router.dispatch", "repro.service.router", "Router.dispatch",
     _rid_from_query, None),
    ("rpc.call", "repro.service.router", "_BaseWorker.call",
     _rid_from_request, None),
    ("worker.handle", "repro.service.worker", "WorkerRuntime.handle",
     _rid_from_request, None),
    ("api.dispatch", "repro.service.api", "ServiceAPI.dispatch",
     _rid_from_query, None),
    ("api.view_to_dict", "repro.service.api", "view_to_dict", None, None),
    ("manager.create", "repro.service.manager", "SessionManager.create",
     None, None),
    ("manager.view", "repro.service.manager", "SessionManager.view",
     None, None),
    ("manager.feedback", "repro.service.manager",
     "SessionManager.apply_feedback", None, None),
    ("cache.fit", "repro.service.cache", "SolveCache.fit",
     None, lambda result: bool(result[1])),
    ("cache.l2_get", "repro.service.cache", "L2SolveCache.get",
     None, lambda result: result is not None),
    ("cache.l2_put", "repro.service.cache", "L2SolveCache.put", None, None),
    ("solver.fit", "repro.core.background", "BackgroundModel.fit",
     None, lambda result: int(result.sweeps)),
    ("core.whiten", "repro.core.background", "BackgroundModel.whiten",
     None, None),
    ("core.row_surprise", "repro.core.background",
     "BackgroundModel.row_surprise", None, None),
    ("projection.view", "repro.core.session", "most_informative_view",
     None, lambda result: result.objective),
    ("projection.fastica", "repro.projection.registry", "fit_fastica",
     None, None),
    ("store.append", "repro.store.sqlite", "SQLiteStore.append_feedback",
     None, None),
    # A durable store's checkpoint write (its put) is checkpoint_and_prune.
    ("store.put", "repro.store.sqlite", "SQLiteStore.checkpoint_and_prune",
     None, None),
)


class SpanRecorder:
    """In-memory span log of one process; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._ids_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, rid_of=None, note=None):
        """``fn`` with a span recorded around every call."""
        missing = object()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent_id, parent_rid = stack[-1] if stack else (0, None)
            rid = rid_of(args, kwargs) if rid_of is not None else None
            if rid is None:
                rid = parent_rid
            with self._ids_lock:
                span_id = next(self._ids)
            stack.append((span_id, rid))
            result = missing
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                fact = None
                if note is not None and result is not missing:
                    fact = note(result)
                self.spans.append(
                    [span_id, parent_id, name, rid, start, end, fact]
                )

        return traced

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer function in :data:`LAYERS` with ``recorder``."""
    for name, module_name, attr, rid_of, note in LAYERS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, recorder.wrap(name, getattr(owner, leaf),
                                           rid_of, note))


def _start_tracing(directory: str) -> None:
    recorder = SpanRecorder()
    install(recorder)
    done = threading.Event()

    def write_once() -> None:
        if not done.is_set():
            done.set()
            recorder.dump(directory)

    # The main process exits through atexit; spawn children end in
    # os._exit after multiprocessing runs its finalizers, never atexit.
    import atexit
    from multiprocessing import util

    atexit.register(write_once)
    util.Finalize(None, write_once, exitpriority=100)


# Runs on import on purpose: spawn workers import this module (as their
# ``__mp_main__``) before they unpickle and run the worker entry point.
if os.environ.get(TRACE_ENV):
    _start_tracing(os.environ[TRACE_ENV])


if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
