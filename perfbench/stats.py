"""Summary statistics shared by the runner and the steadiness tools."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def p50(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, beyond)``: the highest percentile of
    ``values`` with at least :data:`TAIL_BEYOND` samples above it.

    With ``n`` samples the value of rank ``n - 11`` (0-based) has ten
    samples above it and sits at percentile ``100 (n - 10) / n``.
    Below ``2 * TAIL_BEYOND + 1`` samples that percentile would not be
    above the median; the tail is then the maximum (percentile 100,
    nothing beyond), which the caller reports as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return float(ordered[-1]), 100.0, 0
    rank = n - TAIL_BEYOND - 1
    return float(ordered[rank]), 100.0 * (rank + 1) / n, n - rank - 1


def spread(values) -> float:
    """Interquartile range as a share of the median (the steadiness
    measure: ``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")
