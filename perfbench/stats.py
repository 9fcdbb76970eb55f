"""Small statistics helpers shared by the workloads and the self-tests."""

from __future__ import annotations

import math


# Share of ranks on each side of q whose samples `percentile` averages.
WINDOW = 0.05


def percentile(values, q: float) -> float:
    """Smoothed nearest-rank percentile: the mean of the samples whose
    nearest ranks lie from q - WINDOW to q + WINDOW.  Averaging neighbouring
    ranks keeps the value from jumping between two distant samples when
    their order flips."""
    return _rank_mean(values, q, WINDOW)


def _rank_mean(values, q: float, window: float) -> float:
    """Mean of the samples whose nearest ranks lie within `window` of q.
    With window 0 it is the nearest-rank percentile, the smallest sample with
    at least a share q of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"percentile rank must lie in (0, 1], got {q}")
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, math.ceil((q - window) * n) - 1)
    hi = min(n - 1, math.ceil((q + window) * n) - 1)
    return sum(ordered[lo:hi + 1]) / (hi - lo + 1)


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x) over (x, y) pairs: the
    exponent e in y ~ x**e."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        raise ValueError("a slope needs at least two positive points")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        raise ValueError("a slope needs two distinct x values")
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
