"""Online identification of similarity groups — a §4 future-work item.

The paper identifies similarity groups *offline*: a key is chosen by
trial-and-error over historical traces before the estimator is deployed
(§2.2).  Its future-work list asks for **online identification**: discover
the right granularity while the system runs.

:class:`AdaptiveKey` implements progressive key refinement.  It starts at
the coarsest of a chain of key levels (e.g. ``user -> user+app ->
user+app+req_mem``).  Observed usage (explicit feedback) is folded into the
current group; when a group's *similarity range* — max/min observed usage,
Figure 4's axis — exceeds ``split_range`` after ``min_observations``, the
group is **split**: jobs that keyed into it are re-keyed one level finer.
Tight groups stay coarse (more feedback per group, the Figure 3 desire);
loose groups get refined until they are tight or the key chain is exhausted.

A split invalidates learned state under the old key; the estimator simply
opens fresh groups at the finer keys, seeded from the request as always
(Algorithm 1 lines 3-4), so correctness is unaffected — only some learning
is repeated.  :class:`OnlineSimilarityEstimator` wires an
:class:`AdaptiveKey` to any similarity-based estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.similarity.keys import GroupKey, KeyFunction, by_user_app, by_user_app_reqmem
from repro.util.validation import check_positive
from repro.workload.job import Job


@dataclass
class _AdaptiveGroup:
    n: int = 0
    min_used: float = float("inf")
    max_used: float = 0.0

    @property
    def similarity_range(self) -> float:
        if self.n == 0 or self.min_used <= 0:
            return 1.0
        return self.max_used / self.min_used


class AdaptiveKey:
    """A stateful key function that refines loose groups online.

    Usable anywhere a plain key function is accepted (it is callable on a
    :class:`~repro.workload.job.Job`); feed it usage observations through
    :meth:`observe_usage` to drive refinement.
    """

    def __init__(
        self,
        levels: Sequence[KeyFunction] = (by_user_app, by_user_app_reqmem),
        split_range: float = 1.5,
        min_observations: int = 5,
    ) -> None:
        if not levels:
            raise ValueError("need at least one key level")
        check_positive("split_range", split_range)
        if split_range <= 1.0:
            raise ValueError(
                f"split_range must exceed 1 (a range of 1 means identical "
                f"usage), got {split_range}"
            )
        if min_observations < 2:
            raise ValueError(
                f"min_observations must be >= 2 (a range needs two points), "
                f"got {min_observations}"
            )
        self.levels: Tuple[KeyFunction, ...] = tuple(levels)
        self.split_range = split_range
        self.min_observations = min_observations
        self._split: set = set()
        self._groups: Dict[GroupKey, _AdaptiveGroup] = {}
        self._n_splits = 0

    # -------------------------------------------------------------- keying
    def _key_at_depth(self, job: Job, depth: int) -> GroupKey:
        return (depth,) + tuple(self.levels[d](job) for d in range(depth + 1))

    def __call__(self, job: Job) -> GroupKey:
        """The job's current effective group key."""
        depth = 0
        key = self._key_at_depth(job, 0)
        while key in self._split and depth + 1 < len(self.levels):
            depth += 1
            key = self._key_at_depth(job, depth)
        return key

    # ------------------------------------------------------------ feedback
    def observe_usage(self, job: Job, used: float) -> None:
        """Fold one explicit usage observation into the job's group."""
        check_positive("used", used)
        key = self(job)
        group = self._groups.get(key)
        if group is None:
            group = _AdaptiveGroup()
            self._groups[key] = group
        group.n += 1
        group.min_used = min(group.min_used, used)
        group.max_used = max(group.max_used, used)
        depth = key[0]
        if (
            group.n >= self.min_observations
            and group.similarity_range > self.split_range
            and depth + 1 < len(self.levels)
        ):
            self._split.add(key)
            self._n_splits += 1

    # -------------------------------------------------------- introspection
    @property
    def n_splits(self) -> int:
        return self._n_splits

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def is_split(self, job: Job) -> bool:
        """Whether this job's coarse group has been refined past level 0."""
        return self(job)[0] > 0

    def reset(self) -> None:
        self._split.clear()
        self._groups.clear()
        self._n_splits = 0
