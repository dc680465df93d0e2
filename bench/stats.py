"""Small-sample summaries: median, tail percentile, spreads."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: a percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    # The epsilon keeps p = 100 * (n - k) / n on rank n - k exactly.
    rank = max(1, math.ceil(len(ordered) * p / 100.0 - 1e-9))
    return float(ordered[rank - 1])


def tail_percentile(values: Sequence[float], want: float = 95.0,
                    beyond: int = SAMPLES_BEYOND) -> tuple[float, float]:
    """The highest percentile up to ``want`` with ``beyond`` samples above it.

    Returns ``(p, value)``.  With fewer than ``2 * beyond`` samples no
    percentile above the median qualifies and the median is returned as
    ``p == 50``: a tail read off a handful of samples is one outlier.
    """
    n = len(values)
    if n == 0:
        return 50.0, 0.0
    allowed = 100.0 * (n - beyond) / n
    if allowed < 50.0:
        return 50.0, median(values)
    p = min(want, allowed)
    return p, percentile(values, p)


def spread(values: Sequence[float]) -> float:
    """(max - min) / median: what the report prints beside a median."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median.

    The acceptance rule for the benchmark's steadiness (ten runs, each
    at another seed) is stated on this figure.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0
