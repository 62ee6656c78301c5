"""Order statistics used for timings: nearest-rank percentiles and the tail rule.

A timing is reported as its median and the highest percentile that still has
at least ``MIN_BEYOND`` samples above its rank, so a tail is never read off a
handful of points.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)), 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples rank above the nearest-rank p-th percentile."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def tail_percentile(n: int):
    """Highest whole percentile in [50, 99] with at least MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    for p in range(99, 49, -1):
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None

