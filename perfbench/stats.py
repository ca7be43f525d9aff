"""Order statistics the benchmark reports: medians, a supported tail
percentile, and the quartile spread used to judge run-to-run steadiness."""

from __future__ import annotations

import math
import statistics

# a percentile is reported only if at least this many samples lie above it
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def supported_percentile(n: int, min_beyond: int = MIN_BEYOND) -> int | None:
    """Highest whole percentile p with at least `min_beyond` of n samples above
    its nearest-rank value, or None when n is too small for any."""
    if n <= min_beyond:
        return None
    return 100 * (n - min_beyond) // n


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2

