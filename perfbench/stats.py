"""Summary statistics shared by run.py and the workloads."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, int, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond it). The p-th percentile is
    the nearest-rank value sorted[ceil(p/100 * n) - 1]. With too few
    samples for any percentile to qualify, returns the maximum as
    percentile 100 with 0 beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0, 0
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return float(ordered[rank - 1]), p, n - rank
    return float(ordered[-1]), 100, 0
