"""Multi-resource estimation — the §2.3 generalization.

Algorithm 1 handles a single resource.  The paper: "If one would attempt to
use this algorithm for simultaneous estimation of several resources,
modifying several of them at each step, it would be difficult to know which
of these resources causes the algorithm to terminate.  The algorithm can be
generalized for multiple resources using methods of multidimensional
optimization."

The classic multidimensional method that sidesteps the blame-assignment
problem is **coordinate descent**: reduce one resource at a time, holding
every other resource at its last safe value.  A failure is then unambiguously
attributable to the single resource that moved.
:class:`CoordinateDescentEstimator` implements this with one
single-resource successive-approximation state per resource and a rotating
"active" coordinate per similarity group.

This extension operates on :class:`MultiResourceTask` descriptions (a
requested and used capacity per named resource) rather than the simulator's
memory-centric :class:`~repro.workload.job.Job`: the trace format and all of
the paper's experiments are single-resource, and no scheduler runs this
estimator.  It is §2.3's estimator in isolation, driven one submission at a
time by :func:`run_episode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.ladder import CapacityLadder
from repro.util.validation import check_in_range, check_positive

#: A capacity per named resource, e.g. ``{"mem": 32.0, "disk": 2048.0}``.
ResourceVector = Dict[str, float]


@dataclass(frozen=True)
class MultiResourceTask:
    """One submission of a multi-resource job class.

    ``group`` is the similarity-group key; ``requested`` and ``used`` map
    resource names to capacities (``used`` is consumed only by the test
    harness / environment, never read by the estimator — feedback stays
    implicit, as in Algorithm 1).
    """

    group: Hashable
    requested: Mapping[str, float]
    used: Mapping[str, float]

    def __post_init__(self) -> None:
        if set(self.requested) != set(self.used):
            raise ValueError(
                f"requested and used must cover the same resources: "
                f"{sorted(self.requested)} vs {sorted(self.used)}"
            )
        for name, cap in self.requested.items():
            check_positive(f"requested[{name!r}]", cap)
        for name, cap in self.used.items():
            check_positive(f"used[{name!r}]", cap)


@dataclass
class _ResourceState:
    """Single-resource Algorithm 1 state (E_i, alpha_i, last safe E')."""

    estimate: float
    alpha: float
    request: float
    last_safe: Optional[float] = None

    @property
    def safe_value(self) -> float:
        return self.last_safe if self.last_safe is not None else self.request


@dataclass
class _MultiGroup:
    resources: Dict[str, _ResourceState]
    order: Tuple[str, ...]
    active_idx: int = 0

    @property
    def active(self) -> str:
        return self.order[self.active_idx]

    def rotate(self) -> None:
        self.active_idx = (self.active_idx + 1) % len(self.order)


class CoordinateDescentEstimator:
    """Coordinate-descent successive approximation over several resources.

    Per group, exactly one resource (the *active coordinate*) is probed below
    its safe value at a time; all others are pinned at their safe values.
    On success the active resource's estimate divides by its alpha and the
    coordinate advances; on failure the blame is unambiguous — only the
    active resource backs off (restore + alpha decay, floor 1), and the
    coordinate advances so a stuck resource cannot starve the others.

    ``ladders`` optionally maps resource names to the cluster's capacity
    ladders; resources without a ladder are treated as continuous (no
    rounding), which suits non-machine resources like licenses or disk quota.
    """

    name = "coordinate-descent"

    def __init__(
        self,
        alpha: float = 2.0,
        beta: float = 0.0,
        ladders: Optional[Mapping[str, CapacityLadder]] = None,
    ) -> None:
        if alpha <= 1.0:
            raise ValueError(f"alpha must be > 1, got {alpha}")
        check_in_range("beta", beta, 0.0, 1.0, high_inclusive=False)
        self.alpha = alpha
        self.beta = beta
        self.ladders: Mapping[str, CapacityLadder] = dict(ladders or {})
        self._groups: Dict[Hashable, _MultiGroup] = {}

    # ---------------------------------------------------------------- internals
    def _group_for(self, task: MultiResourceTask) -> _MultiGroup:
        group = self._groups.get(task.group)
        if group is None:
            group = _MultiGroup(
                resources={
                    name: _ResourceState(
                        estimate=req, alpha=self.alpha, request=req
                    )
                    for name, req in task.requested.items()
                },
                order=tuple(sorted(task.requested)),
            )
            self._groups[task.group] = group
        return group

    def _round(self, resource: str, value: float) -> float:
        ladder = self.ladders.get(resource)
        if ladder is None:
            return value
        rounded = ladder.round_up(value)
        return rounded if rounded is not None else value

    # ------------------------------------------------------------------ API
    def estimate(self, task: MultiResourceTask) -> ResourceVector:
        """Requirement vector for this submission.

        Only the group's active coordinate may sit below its safe value;
        every other resource is requested at its safe value (clamped to the
        task's own request — tasks within a group may differ slightly).
        """
        group = self._group_for(task)
        out: ResourceVector = {}
        for name in group.order:
            state = group.resources[name]
            request = task.requested.get(name, state.request)
            if name == group.active:
                value = self._round(name, state.estimate)
            else:
                value = self._round(name, state.safe_value)
            out[name] = min(value, request)
        return out

    def observe(
        self,
        task: MultiResourceTask,
        requirement: ResourceVector,
        succeeded: bool,
    ) -> None:
        """Fold in implicit feedback for the submission just estimated."""
        group = self._group_for(task)
        active = group.active
        state = group.resources[active]
        if succeeded:
            # Every requested value is now known safe for its resource.
            for name, value in requirement.items():
                res = group.resources[name]
                if res.last_safe is None or value < res.last_safe:
                    res.last_safe = value
            state.estimate = requirement[active] / state.alpha
        else:
            # Blame is unambiguous: only the active coordinate moved.
            state.alpha = max(state.alpha * self.beta, 1.0)
            state.estimate = state.safe_value / state.alpha
        group.rotate()

    def safe_vector(self, group_key: Hashable) -> Optional[ResourceVector]:
        """Current safe requirement per resource for a group (None if unseen)."""
        group = self._groups.get(group_key)
        if group is None:
            return None
        return {name: st.safe_value for name, st in group.resources.items()}

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def reset(self) -> None:
        self._groups.clear()


def run_episode(
    estimator: CoordinateDescentEstimator,
    tasks: Sequence[MultiResourceTask],
) -> List[Tuple[ResourceVector, bool]]:
    """Drive the estimator over a task sequence with exact success semantics.

    A submission succeeds iff every resource's requirement covers the task's
    actual usage.  Returns the (requirement, succeeded) pair per submission —
    a tiny environment for tests and examples, mirroring what the full
    simulator does for memory.
    """
    history: List[Tuple[ResourceVector, bool]] = []
    for task in tasks:
        requirement = estimator.estimate(task)
        succeeded = all(
            requirement[name] >= task.used[name] for name in task.used
        )
        estimator.observe(task, requirement, succeeded)
        history.append((requirement, succeeded))
    return history
