"""The capacity ladder: sorted distinct capacity levels of a cluster.

Algorithm 1 line 6 rounds the internal estimate to "the lowest resource
capacity within the cluster, greater than E_i" (the paper's own worked
example rounds 3.2 MB up to a 4 MB machine, so 'greater' is read as >=).
This rounding is what produces the hard 16 MB threshold of Figure 8: with
alpha = 2 a 32 MB request first descends to 16, and on a cluster whose second
tier is below 16 MB the round-up lands back on 32 — the estimate can never
reach the small machines.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional, Tuple

from repro.util.validation import check_positive


_MISS = object()  # round_up cache sentinel (None is a valid cached result)


class CapacityLadder:
    """Sorted unique capacity levels with round-up/round-down queries."""

    def __init__(self, levels: Iterable[float]) -> None:
        uniq = sorted(set(float(v) for v in levels))
        if not uniq:
            raise ValueError("a capacity ladder needs at least one level")
        for v in uniq:
            check_positive("capacity level", v)
        self._levels: Tuple[float, ...] = tuple(uniq)
        # Memoized round_up / levels_at_least results.  The ladder is
        # immutable, so entries never invalidate; estimators round the same
        # handful of values (levels divided by alpha powers) millions of
        # times per sweep.  Growth is bounded by the number of distinct query
        # values, at most one per estimate call in the degenerate case.
        self._up_cache: dict = {}
        self._at_least_cache: dict = {}

    @property
    def levels(self) -> Tuple[float, ...]:
        """Ascending distinct capacity levels."""
        return self._levels

    @property
    def min(self) -> float:
        return self._levels[0]

    @property
    def max(self) -> float:
        return self._levels[-1]

    def __len__(self) -> int:
        return len(self._levels)

    def __contains__(self, value: float) -> bool:
        i = bisect.bisect_left(self._levels, float(value))
        return i < len(self._levels) and self._levels[i] == float(value)

    def round_up(self, value: float) -> Optional[float]:
        """Lowest level >= ``value`` — Algorithm 1's ceiling operator.

        Returns ``None`` when ``value`` exceeds every level (no machine in
        the cluster can satisfy it).
        """
        hit = self._up_cache.get(value, _MISS)
        if hit is not _MISS:
            return hit
        i = bisect.bisect_left(self._levels, float(value))
        result = None if i == len(self._levels) else self._levels[i]
        self._up_cache[value] = result
        return result

    def round_down(self, value: float) -> Optional[float]:
        """Highest level <= ``value``; ``None`` if below the smallest level."""
        i = bisect.bisect_right(self._levels, float(value))
        if i == 0:
            return None
        return self._levels[i - 1]

    def levels_at_least(self, value: float) -> Tuple[float, ...]:
        """All levels >= ``value``, ascending (the feasible machine classes)."""
        hit = self._at_least_cache.get(value)
        if hit is not None:
            return hit
        i = bisect.bisect_left(self._levels, float(value))
        result = self._levels[i:]
        self._at_least_cache[value] = result
        return result

    def __repr__(self) -> str:
        return f"CapacityLadder({list(self._levels)})"
