"""Order statistics over raw client-side samples.

Every percentile here is a *nearest-rank* percentile of the samples the
benchmark itself took, so a reported quantile is always one of the observed
values.  The program's own ``Histogram.quantile`` interpolates inside fixed
buckets and can report a p99 from a single sample; it is never used here.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], percent: float) -> float:
    """The ``percent``-th percentile of ``samples`` by the nearest-rank rule."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> Dict[str, float]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``{"value", "percentile", "beyond", "n"}``.  With eleven samples
    or fewer no such percentile above the median exists; the median is
    reported then, with its (smaller) ``beyond`` count, so the reader sees
    how little backs it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    best = 50
    for percent in range(99, 50, -1):
        if n - math.ceil(percent / 100.0 * n) >= TAIL_MIN_BEYOND:
            best = percent
            break
    rank = max(1, math.ceil(best / 100.0 * n))
    return {
        "value": nearest_rank(samples, best),
        "percentile": best,
        "beyond": n - rank,
        "n": n,
    }


def median(samples: Sequence[float]) -> float:
    return nearest_rank(samples, 50)


def mean(samples: Iterable[float]) -> float:
    values = list(samples)
    return sum(values) / len(values) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def describe(samples: List[float]) -> str:
    """``p50=… p<k>=… (n=…, …beyond)`` — a timing with its backing counts."""
    if not samples:
        return "n=0"
    high = tail(samples)
    return (
        f"p50={median(samples):.6f}s p{high['percentile']}={high['value']:.6f}s "
        f"(n={len(samples)}, {high['beyond']} beyond p{high['percentile']})"
    )
