"""Pure helpers: percentile rule, span self time, due-time latency, names.

Nothing here touches the network or the program under test, so the unit
tests in ``test_perfbench.py`` pin these rules directly.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.special import betainc

#: Samples a tail percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10

#: Metric names: letters, digits, ``_``, ``.`` and ``-``; starting with a
#: letter or digit; at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """True when ``name`` follows the metric-name grammar."""
    return METRIC_NAME.fullmatch(name) is not None


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support the ``q`` quantile (0 < q < 1).

    The median needs one sample; a tail quantile (q > 0.5) needs at least
    :data:`TAIL_SAMPLES` samples beyond it, i.e. ``n * (1 - q) >= 10``.
    """
    if n < 1:
        return False
    if q <= 0.5:
        return True
    return n * (1.0 - q) >= TAIL_SAMPLES - 1e-9


def percentile(values, q: float) -> float | None:
    """Harrell-Davis estimate of the ``q`` quantile, or None when the
    sample does not support it.

    The estimate is a Beta-weighted average of all order statistics
    instead of one or two of them, so it moves smoothly, and varies less
    from run to run, where a latency mix has a gap between two paths.
    """
    data = np.sort(np.asarray(list(values), dtype=np.float64))
    n = data.size
    if not supported(n, q):
        return None
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = betainc(a, b, np.arange(n + 1) / n)
    return float(np.diff(edges) @ data)


def median(values) -> float | None:
    return percentile(values, 0.5)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part its child spans cover.

    Children may nest inside each other or overlap (threads fanned out
    from one span); each covered instant is subtracted once.
    """
    return (end - start) - covered(children, start, end)


def run_open_loop(n: int, interval: float, send, clock, sleep, start=None):
    """Issue ``n`` requests one ``interval`` apart on one connection.

    ``send(due)`` performs one request and returns when it is fully read;
    it gets the due time so it can time the request from it.
    Returns ``(due, sent, done)`` timestamps.  A request whose due time
    passed while an earlier one was still in flight goes out at once,
    late; ``sent - due`` is how late the generator ran.
    """
    t0 = clock() if start is None else start
    due, sent, done = [], [], []
    for i in range(n):
        when = t0 + i * interval
        now = clock()
        if now < when:
            sleep(when - now)
        due.append(when)
        sent.append(clock())
        send(when)
        done.append(clock())
    return due, sent, done
