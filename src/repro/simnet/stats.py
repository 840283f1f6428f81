"""Statistics collector: a histogram with exact percentiles."""

from __future__ import annotations

import bisect
import math
from typing import List


class Histogram:
    """A value reservoir with exact quantiles (sorted-on-demand)."""

    def __init__(self):
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._values.sort()
            self._sorted = True

    def mean(self) -> float:
        if not self._values:
            raise ValueError("empty histogram")
        # Sum in sorted order so the result depends only on the observed
        # multiset, not insertion order -- a partitioned run merges
        # observations in a different order than the single-heap engine
        # and must still report bit-identical scalars.
        self._ensure_sorted()
        return sum(self._values) / len(self._values)

    def stddev(self) -> float:
        if len(self._values) < 2:
            return 0.0
        self._ensure_sorted()
        mu = self.mean()
        return math.sqrt(sum((v - mu) ** 2 for v in self._values)
                         / (len(self._values) - 1))

    def extend(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        if not other._values:
            return
        self._values.extend(other._values)
        self._sorted = False

    def _nearest_rank(self, scaled_rank: float) -> float:
        """The observation at 1-based rank ``ceil(scaled_rank)``, at
        least 1.  Percent and fraction callers each pass their own
        product with ``n``: converting first would round differently."""
        if not self._values:
            raise ValueError("empty histogram")
        self._ensure_sorted()
        return self._values[max(1, math.ceil(scaled_rank)) - 1]

    def percentile(self, p: float) -> float:
        """Exact percentile (nearest-rank), p in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        return self._nearest_rank(p / 100 * len(self._values))

    def quantile(self, q: float) -> float:
        """Exact quantile (nearest-rank), q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return self._nearest_rank(q * len(self._values))

    def min(self) -> float:
        self._ensure_sorted()
        if not self._values:
            raise ValueError("empty histogram")
        return self._values[0]

    def max(self) -> float:
        self._ensure_sorted()
        if not self._values:
            raise ValueError("empty histogram")
        return self._values[-1]

    def cdf_at(self, value: float) -> float:
        """Fraction of observations <= value."""
        if not self._values:
            raise ValueError("empty histogram")
        self._ensure_sorted()
        return bisect.bisect_right(self._values, value) / len(self._values)
