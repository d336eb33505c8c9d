"""Unit tests for the benchmark's own code (no server is started).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import checks
import layers
from launcher import SpanRecorder
from stats import (
    percentile,
    run_open_loop,
    self_time,
    supported,
    valid_metric_name,
)

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


# -- percentile rule ---------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert percentile(range(99), 0.9) is None
    assert percentile(range(100), 0.9) == pytest.approx(89.5, abs=0.5)
    assert percentile(range(999), 0.99) is None
    assert percentile(range(1000), 0.99) is not None
    assert not supported(0, 0.5)


def test_median_needs_one_sample():
    assert percentile([7.0], 0.5) == pytest.approx(7.0)
    assert percentile([3, 1, 2], 0.5) == pytest.approx(2.0)
    assert percentile([1, 2, 3, 4], 0.5) == pytest.approx(2.5)
    assert percentile([], 0.5) is None


def test_quantile_moves_smoothly_across_a_gap():
    # Two paths, 50 fast and 50 slow: one more slow sample shifts the
    # median a little, not from one path to the other.
    fast, slow = [100.0] * 50, [500.0] * 50
    even = percentile(fast + slow, 0.5)
    tipped = percentile(fast + slow + [500.0], 0.5)
    assert 100 < even < tipped < 500
    assert tipped - even < 100


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_nested_children_once():
    # child [1, 4] holds a grandchild-like nested interval [2, 3]
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 3.0)]) == 7.0


def test_self_time_with_overlapping_and_clipped_children():
    # [1, 3] and [2, 5] overlap (threads fanned out from one span);
    # [9, 12] runs past the parent and counts only up to its end.
    children = [(2.0, 5.0), (1.0, 3.0), (9.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10 - 4 - 1)
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def _span(pid, sid, parent, name, rid, start, end, note=None):
    return layers.Span(pid, sid, parent, name, rid, start, end, note)


def test_worker_handle_counts_as_child_of_the_rpc_call():
    spans = [
        _span(1, 1, 0, "router.dispatch", "c0-1", 0.0, 10.0),
        _span(1, 2, 1, "rpc.call", "c0-1", 1.0, 9.0),
        _span(2, 1, 0, "worker.handle", "c0-1", 2.0, 8.5),
        _span(2, 2, 1, "api.dispatch", "c0-1", 2.5, 8.0),
    ]
    selfs = layers.self_times(spans)
    assert selfs[spans[1]] == pytest.approx(1.5)      # RPC overhead
    assert selfs[spans[0]] == pytest.approx(2.0)
    door = layers.front_doors(spans)["c0-1"]
    assert door.name == "router.dispatch"


def test_span_recorder_nests_and_inherits_request_id():
    rec = SpanRecorder()

    def inner():
        return 3

    traced_inner = rec.wrap("inner", inner)

    def outer(query):
        return traced_inner()

    traced_outer = rec.wrap(
        "outer", outer, rid_of=lambda args, kwargs: args[0]["rid"])
    assert traced_outer({"rid": "c1-7"}) == 3
    by_name = {s[2]: s for s in rec.spans}
    assert by_name["inner"][1] == by_name["outer"][0]   # parent id
    assert by_name["inner"][3] == "c1-7"                # inherited rid
    assert by_name["outer"][1] == 0


# -- open loop ---------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_due_time_latency_charges_a_stall_to_later_requests():
    clock = FakeClock()
    costs = iter([0.35, 0.01, 0.01, 0.01, 0.01])

    def send(due):
        clock.now += next(costs)

    due, sent, done = run_open_loop(5, 0.1, send, clock, clock.sleep)
    latency = [b - a for a, b in zip(due, done)]
    lateness = [b - a for a, b in zip(due, sent)]
    assert latency == pytest.approx([0.35, 0.26, 0.17, 0.08, 0.01])
    assert lateness == pytest.approx([0.0, 0.25, 0.16, 0.07, 0.0])
    # Timed from the moment each went out, the stall would vanish.
    assert [b - a for a, b in zip(sent, done)][1] == pytest.approx(0.01)


# -- metric names ------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "view_p50_ms", "cache.hit_ratio",
                                  "projection.view_p50_ms.ica", "a-b", "9x"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", ".x", "_x", "a b", "a/b", "x" * 65,
                                  "p50ms!"])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_declared_metrics_follow_the_grammar():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for key in ("end_to_end", "per_layer"):
        for m in SPEC[key]:
            assert unit.fullmatch(m["unit"]), m
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in SPEC["end_to_end"])


# -- twin comparison ---------------------------------------------------------

def test_canonical_view_ignores_session_cache_and_wall_time():
    a = {"session_id": "a", "cache_hit": False, "axes": [[1.0, 0.0]],
         "solver": {"sweeps": 3, "elapsed": 0.5}}
    b = dict(a, session_id="b", cache_hit=True,
             solver={"sweeps": 3, "elapsed": 0.1})
    c = dict(b, solver={"sweeps": 4, "elapsed": 0.1})
    encode = lambda p: json.dumps(p).encode()  # noqa: E731
    assert checks.canonical_view(encode(a)) == checks.canonical_view(encode(b))
    assert checks.canonical_view(encode(a)) != checks.canonical_view(encode(c))
