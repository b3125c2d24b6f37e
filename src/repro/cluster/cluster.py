"""The cluster: heterogeneous nodes with level-grouped allocation.

Design (DESIGN.md §5): machines of equal memory capacity are interchangeable
for the paper's matching rule ("available resource capacity >= job request"),
so the allocator tracks a free-node **count per capacity level** instead of
individual machines.  Allocation of an n-node job with a per-node memory
requirement is then O(#levels), which is what lets the full 122k-job trace
simulate in seconds.

Allocation strategies
---------------------
* ``best_fit`` (default): fill from the **smallest** adequate level upward.
  This is the policy that realizes the paper's benefit — estimated-down jobs
  land on the small machines, keeping the big ones free for jobs that truly
  need them (the M1/M2 scenario of §1.1).
* ``worst_fit``: fill from the largest level downward (a deliberately
  adversarial baseline for the ablation benchmark).
* ``first_fit``: declaration order of the cluster's tiers.
"""

from __future__ import annotations

from typing import Dict, List, Literal, Mapping, Optional, Sequence, Tuple

from repro.cluster.ladder import CapacityLadder
from repro.util.validation import check_positive

AllocationStrategy = Literal["best_fit", "worst_fit", "first_fit"]

_STRATEGIES = ("best_fit", "worst_fit", "first_fit")


class Allocation:
    """Nodes granted to one job: a count per capacity level.

    ``min_capacity`` is the smallest allocated level — the binding constraint
    for failure: a parallel job runs one process per node, so it completes
    only if **every** node has enough memory, i.e. iff
    ``min_capacity >= used_mem``.

    ``n_nodes``/``min_capacity``/``max_capacity`` are derived from ``counts``
    once at construction: the engine reads them on every start, completion,
    and failure draw, so recomputing ``min``/``sum`` per access was a
    measurable share of the hot path.  A plain ``__slots__`` class rather
    than a frozen dataclass — one is built per started execution, and the
    frozen-dataclass ``object.__setattr__`` per field showed up in profiles.
    Treat instances as immutable; equality compares ``counts`` and
    ``requirement`` (the derived fields follow from them).
    """

    __slots__ = ("counts", "requirement", "n_nodes", "min_capacity", "max_capacity")

    def __init__(self, counts: Mapping[float, int], requirement: float) -> None:
        self.counts = counts
        self.requirement = requirement
        self.n_nodes = sum(counts.values())
        self.min_capacity = min(counts)
        self.max_capacity = max(counts)

    def satisfies(self, used_mem: float) -> bool:
        """Whether a job actually using ``used_mem`` MB/node can complete."""
        return self.min_capacity >= used_mem

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return self.counts == other.counts and self.requirement == other.requirement

    def __repr__(self) -> str:
        return f"Allocation(counts={self.counts!r}, requirement={self.requirement!r})"


class Cluster:
    """A heterogeneous cluster with level-grouped free-node accounting."""

    def __init__(
        self,
        tiers: Sequence[Tuple[int, float]],
        strategy: AllocationStrategy = "best_fit",
        name: str = "cluster",
    ) -> None:
        """
        Parameters
        ----------
        tiers:
            ``(node_count, mem_capacity_mb)`` pairs; tiers sharing a capacity
            are merged.  ``[(512, 32.0), (512, 24.0)]`` is the paper's
            Figure 5 cluster.
        strategy:
            Node-selection policy; see the module docstring.
        """
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick from {_STRATEGIES}")
        if not tiers:
            raise ValueError("a cluster needs at least one tier")
        merged: Dict[float, int] = {}
        declared_order: List[float] = []
        for count, cap in tiers:
            if count <= 0:
                raise ValueError(f"tier node count must be positive, got {count}")
            check_positive("tier capacity", cap)
            cap = float(cap)
            if cap not in merged:
                declared_order.append(cap)
                merged[cap] = 0
            merged[cap] += int(count)

        self.name = name
        self.strategy: AllocationStrategy = strategy
        self._best_fit = strategy == "best_fit"
        self.ladder = CapacityLadder(merged.keys())
        self._total: Dict[float, int] = {lvl: merged[lvl] for lvl in self.ladder.levels}
        self._free: Dict[float, int] = dict(self._total)
        # Nodes taken out of service by fault injection: neither free nor
        # allocated.  ``_total`` stays the hardware inventory, so feasibility
        # (:meth:`fits`) is judged against the repaired cluster — a job is
        # never *rejected* because of a transient outage, it waits.
        self._down: Dict[float, int] = {lvl: 0 for lvl in self.ladder.levels}
        self._declared_order: Tuple[float, ...] = tuple(declared_order)

    # ------------------------------------------------------------------ info
    @property
    def total_nodes(self) -> int:
        return sum(self._total.values())

    @property
    def free_nodes(self) -> int:
        return sum(self._free.values())

    @property
    def busy_nodes(self) -> int:
        return self.total_nodes - self.free_nodes - self.down_nodes

    @property
    def down_nodes(self) -> int:
        """Nodes currently out of service (fault injection)."""
        return sum(self._down.values())

    @property
    def in_service_nodes(self) -> int:
        return self.total_nodes - self.down_nodes

    def total_at_level(self, level: float) -> int:
        return self._total.get(float(level), 0)

    def free_at_level(self, level: float) -> int:
        return self._free.get(float(level), 0)

    def down_at_level(self, level: float) -> int:
        return self._down.get(float(level), 0)

    def in_service_by_level(self) -> Dict[float, int]:
        """In-service (total minus down) node count per capacity level."""
        return {
            lvl: self._total[lvl] - self._down[lvl] for lvl in self.ladder.levels
        }

    def free_with_capacity(self, min_capacity: float) -> int:
        """Free nodes whose capacity is >= ``min_capacity``."""
        # Plain loop, not sum(genexpr): called once per scheduling pass and
        # enqueue, and the generator frame was measurable there.
        free = self._free
        total = 0
        for lvl in self.ladder.levels_at_least(min_capacity):
            total += free[lvl]
        return total

    def total_with_capacity(self, min_capacity: float) -> int:
        """All nodes (busy or free) whose capacity is >= ``min_capacity``."""
        counts = self._total
        total = 0
        for lvl in self.ladder.levels_at_least(min_capacity):
            total += counts[lvl]
        return total

    def snapshot_free(self) -> Dict[float, int]:
        """Copy of the free-count map (for schedulers planning reservations)."""
        return dict(self._free)

    # ----------------------------------------------------------- allocation
    def _level_order(self, eligible: Sequence[float]) -> Sequence[float]:
        if self.strategy == "best_fit":
            return eligible  # ladder order is ascending
        if self.strategy == "worst_fit":
            return list(reversed(eligible))
        # first_fit: declaration order restricted to the eligible levels
        eligible_set = set(eligible)
        return [lvl for lvl in self._declared_order if lvl in eligible_set]

    def can_allocate(self, n_nodes: int, min_capacity: float) -> bool:
        """Whether ``n_nodes`` nodes of capacity >= ``min_capacity`` are free."""
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        return self.free_with_capacity(min_capacity) >= n_nodes

    def fits(self, n_nodes: int, min_capacity: float) -> bool:
        """Whether the job could *ever* run here (ignoring current usage)."""
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        return self.total_with_capacity(min_capacity) >= n_nodes

    def allocate(self, n_nodes: int, min_capacity: float) -> Optional[Allocation]:
        """Grant ``n_nodes`` nodes with capacity >= ``min_capacity``.

        Returns ``None`` (and changes nothing) when not enough adequate nodes
        are free.  On success the free counts drop accordingly.
        """
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        check_positive("min_capacity", min_capacity)
        eligible = self.ladder.levels_at_least(min_capacity)
        free_total = 0
        for lvl in eligible:
            free_total += self._free[lvl]
        if free_total < n_nodes:
            return None
        counts: Dict[float, int] = {}
        remaining = n_nodes
        # best_fit's order is the eligible tuple itself (ladder order is
        # ascending); skip the strategy dispatch on the common path.
        for lvl in eligible if self._best_fit else self._level_order(eligible):
            take = min(self._free[lvl], remaining)
            if take > 0:
                counts[lvl] = take
                remaining -= take
            if remaining == 0:
                break
        assert remaining == 0  # guaranteed by the free-count check above
        for lvl, take in counts.items():
            self._free[lvl] -= take
        return Allocation(counts=counts, requirement=float(min_capacity))

    def release(self, allocation: Allocation) -> None:
        """Return an allocation's nodes to the free pool.

        Releasing an allocation twice (or one from another cluster) is a
        bookkeeping bug; it is detected by the free <= total - down invariant.
        """
        for lvl, count in allocation.counts.items():
            new_free = self._free.get(lvl, 0) + count
            in_service = self._total.get(lvl, 0) - self._down.get(lvl, 0)
            if lvl not in self._total or new_free > in_service:
                raise ValueError(
                    f"release of {count} nodes at level {lvl} would exceed the "
                    f"cluster's capacity — double release or foreign allocation?"
                )
            self._free[lvl] = new_free

    # ------------------------------------------------------------- faults
    def fail_node(self, level: float) -> None:
        """Take one *free* node at ``level`` out of service.

        The engine is responsible for making the victim free first (killing
        and releasing whatever execution held it); calling this with no free
        node at the level is a sequencing bug and raises.
        """
        level = float(level)
        if self._free.get(level, 0) <= 0:
            raise ValueError(
                f"no free node at level {level:g} to fail — kill and release "
                f"the occupying execution first"
            )
        self._free[level] -= 1
        self._down[level] += 1

    def repair_node(self, level: float) -> None:
        """Return one downed node at ``level`` to service."""
        level = float(level)
        if self._down.get(level, 0) <= 0:
            raise ValueError(f"no downed node at level {level:g} to repair")
        self._down[level] -= 1
        self._free[level] += 1

    def reset(self) -> None:
        """Free every node (start of a fresh simulation run)."""
        self._free = dict(self._total)
        self._down = {lvl: 0 for lvl in self.ladder.levels}

    def __repr__(self) -> str:
        tiers = ", ".join(
            f"{self._total[lvl]}x{lvl:g}MB" for lvl in reversed(self.ladder.levels)
        )
        return f"Cluster({self.name}: {tiers}, strategy={self.strategy})"
