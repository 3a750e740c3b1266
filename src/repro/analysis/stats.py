"""Statistics helpers for experiment reporting.

The paper reports every trace experiment as ``mean ± std`` over ten
repetitions; these helpers produce that presentation and the log-log
histogram series behind Fig. 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class MeanStd:
    """A mean with its (population) standard deviation."""

    mean: float
    std: float
    n: int

    def __format__(self, spec: str) -> str:
        spec = spec or ".3f"
        return f"{self.mean:{spec}} ±{self.std:{spec}}"

    def __str__(self) -> str:
        return format(self)


def aggregate(values: Sequence[float]) -> MeanStd:
    """Mean ± std of repeated measurements."""
    if not values:
        raise ValueError("aggregate needs at least one value")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return MeanStd(mean, math.sqrt(variance), n)


def loglog_histogram(
    size_histogram: Dict[int, int], bins_per_decade: int = 5
) -> List[Tuple[float, int]]:
    """Bucket a flow-size histogram into logarithmic bins.

    Returns ``(bin_center, flow_count)`` pairs -- the Fig. 6 series.  Sizes
    of 1 get their own bin (mice dominate every trace).
    """
    if not size_histogram:
        return []
    buckets: Dict[int, int] = {}
    for size, count in size_histogram.items():
        if size < 1:
            continue
        bin_index = int(math.floor(math.log10(size) * bins_per_decade)) if size > 1 else -1
        buckets[bin_index] = buckets.get(bin_index, 0) + count
    series = []
    for bin_index in sorted(buckets):
        if bin_index == -1:
            center = 1.0
        else:
            center = 10 ** ((bin_index + 0.5) / bins_per_decade)
        series.append((center, buckets[bin_index]))
    return series

