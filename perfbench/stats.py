"""Metric math shared by the benchmark: percentiles, capacity, self time.

Pure functions over plain Python numbers, no third-party imports, so the
self-tests in ``selftest.py`` pin them exactly.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it (the tail it summarises must be more than noise).
MIN_BEYOND = 10


def percentile(values, q: float) -> float | None:
    """The ``q``-th percentile (0 < q < 100) by nearest rank, or ``None``
    when fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return float(ordered[rank - 1])


def tail_percentile(values, q: float = 99.0) -> tuple[float, float] | None:
    """``(p, value)`` for the highest percentile ``p <= q`` that
    :func:`percentile` accepts, trying ``q`` then coarser tails down to the
    median; ``None`` when not even the median has enough samples beyond."""
    for p in (q, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0):
        if p > q:
            continue
        value = percentile(values, p)
        if value is not None:
            return p, value
    return None


def median(values) -> float:
    return float(statistics.median(values))


def capacity(steps, limit_ms: float, cap: float) -> float:
    """Load at which the tail latency crosses ``limit_ms``.

    ``steps`` is the ramp in order: ``(load, p99_ms, passed)`` tuples,
    stopping at the first failed step.  The crossing is interpolated
    log-linearly in both load and latency between the last passing step
    and the first failing one.  A failing step whose p99 is still under
    the limit (it failed on backlog or refusals) puts the crossing at the
    geometric mean of the two loads.  No failing step: the ramp's cap.
    No passing step: the first load scaled down by how far its p99
    overshot the limit.
    """
    passed = [s for s in steps if s[2]]
    failed = [s for s in steps if not s[2]]
    if not failed:
        return float(cap)
    n2, p2, _ = failed[0]
    if not passed:
        return float(n2) * min(1.0, limit_ms / max(p2, 1e-9))
    n1, p1, _ = passed[-1]
    if p2 <= limit_ms or p2 <= p1:
        return math.sqrt(n1 * n2)
    p1 = max(p1, 1e-9)
    frac = (math.log(limit_ms) - math.log(p1)) / (math.log(p2) - math.log(p1))
    frac = min(1.0, max(0.0, frac))
    return math.exp(math.log(n1) + frac * (math.log(n2) - math.log(n1)))


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the time its direct
    children cover.  ``spans`` maps span id -> ``(start, end, parent_id)``;
    a child may outlive its parent's end only through clock jitter, so
    its contribution is clipped to the parent's interval."""
    covered: dict[int, float] = {}
    for start, end, parent in spans.values():
        if parent is None or parent not in spans:
            continue
        p_start, p_end, _ = spans[parent]
        overlap = min(end, p_end) - max(start, p_start)
        if overlap > 0:
            covered[parent] = covered.get(parent, 0.0) + overlap
    return {
        sid: max(0.0, (end - start) - covered.get(sid, 0.0))
        for sid, (start, end, _) in spans.items()
    }
