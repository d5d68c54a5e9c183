"""Order statistics the benchmark reports: medians, quartiles, and the
highest percentile a sample can support.

Stdlib-only and pure, so ``compare.py`` can load result files in a
directory that has no ``src/`` tree.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: Candidate upper percentiles, highest first, each with the N of its
#: "one sample in N lies beyond it" (integers: no float error at the edge).
PERCENTILES: Tuple[Tuple[float, int], ...] = (
    (99.99, 10000), (99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10),
)

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (``0 < pct <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)  # ceil without float error
    return float(ordered[max(0, min(len(ordered) - 1, int(rank) - 1))])


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` that has at least
    :data:`MIN_SAMPLES_BEYOND` of *count* samples beyond it."""
    for pct, one_in in PERCENTILES:
        if count >= MIN_SAMPLES_BEYOND * one_in:
            return pct
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return (only, only, only)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (float(q1), float(q2), float(q3))


def spread_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
