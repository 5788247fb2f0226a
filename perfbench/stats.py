"""Summary statistics shared by the benchmark and the traced run."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a tail percentile to report it


def samples_beyond(n, q):
    """How many of `n` sorted samples lie above the nearest-rank `q` percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(samples, q):
    """Nearest-rank percentile, or None when too few samples back it.

    The median (q == 50) is always reported. Any higher percentile is
    reported only when at least MIN_BEYOND samples lie beyond it, so a p75
    needs 40 samples and a p90 needs 100.
    """
    if not samples:
        return None
    if q == 50:
        return statistics.median(samples)
    n = len(samples)
    if samples_beyond(n, q) < MIN_BEYOND:
        return None
    return sorted(samples)[max(1, math.ceil(q / 100.0 * n)) - 1]


def min_samples(q):
    """Smallest sample count for which `percentile(samples, q)` is reported."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n
