"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10   # samples a reported percentile must leave above it


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must lie in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def tail_count(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def samples_for_tail(q: float, tail: int = MIN_TAIL) -> int:
    """Fewest samples that leave `tail` of them above the q-th percentile."""
    n = tail
    while tail_count(n, q) < tail:
        n += 1
    return n


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
