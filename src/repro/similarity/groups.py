"""Similarity-group construction: online index and offline builder.

The paper distinguishes the *offline* identification of similarity groups
(trace analysis during estimator customization, §2.2) from the *online* use
inside the scheduler ("for every new job submission, the algorithm attempts
to find its similarity group; if none exists, a new group is defined",
Algorithm 1 lines 2-5).  :class:`SimilarityIndex` serves the online role;
:func:`build_groups` the offline one.  Both use the same key functions, so
online discovery converges to exactly the offline grouping — a property the
tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.similarity.keys import GroupKey, KeyFunction, by_user_app_reqmem
from repro.workload.job import Job


@dataclass
class GroupStats:
    """Aggregate usage statistics of one similarity group.

    ``min_used``/``max_used`` track **actual** memory, ``req_mem`` the
    group's requested memory (constant within a group under the paper's
    key).  The derived quantities are the two axes of Figure 4:

    * :attr:`similarity_range` = max_used / min_used — how similar the jobs
      really are (1.0 = identical usage; "the lower the value, the more
      similar the jobs"),
    * :attr:`potential_gain` = req_mem / max_used — the over-provisioning
      headroom an estimator could reclaim for the whole group.
    """

    key: GroupKey
    n_jobs: int = 0
    req_mem: float = 0.0
    min_used: float = float("inf")
    max_used: float = 0.0
    total_used: float = 0.0
    total_procs: int = 0
    first_seen: float = float("inf")
    last_seen: float = -float("inf")

    def add(self, job: Job) -> None:
        """Fold one member job into the statistics."""
        self.n_jobs += 1
        self.req_mem = max(self.req_mem, job.req_mem)
        self.min_used = min(self.min_used, job.used_mem)
        self.max_used = max(self.max_used, job.used_mem)
        self.total_used += job.used_mem
        self.total_procs += job.procs
        self.first_seen = min(self.first_seen, job.submit_time)
        self.last_seen = max(self.last_seen, job.submit_time)

    @property
    def mean_used(self) -> float:
        return self.total_used / self.n_jobs if self.n_jobs else 0.0

    @property
    def similarity_range(self) -> float:
        """max_used / min_used (Figure 4's horizontal axis)."""
        if self.n_jobs == 0 or self.min_used <= 0:
            return float("nan")
        return self.max_used / self.min_used

    @property
    def potential_gain(self) -> float:
        """req_mem / max_used (Figure 4's vertical axis)."""
        if self.n_jobs == 0 or self.max_used <= 0:
            return float("nan")
        return self.req_mem / self.max_used


class SimilarityIndex:
    """Online similarity-group lookup, as the scheduler uses it.

    ``lookup(job)`` returns the job's group key and whether the group already
    existed; ``observe(job)`` additionally folds the job into the group's
    statistics (explicit-feedback bookkeeping).  The index is intentionally
    tiny — estimators keep their *own* per-group state (Algorithm 1 stores
    only ``(E_i, alpha_i)`` per group); this class only owns the key->stats
    mapping shared by analyses.
    """

    def __init__(self, key_fn: Optional[KeyFunction] = None) -> None:
        self.key_fn: KeyFunction = key_fn or by_user_app_reqmem
        self._groups: Dict[GroupKey, GroupStats] = {}

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, key: GroupKey) -> bool:
        return key in self._groups

    def key_of(self, job: Job) -> GroupKey:
        """The group key this index assigns to ``job``."""
        return self.key_fn(job)

    def lookup(self, job: Job) -> "tuple[GroupKey, bool]":
        """Return ``(key, existed)`` and create the group if new."""
        key = self.key_fn(job)
        existed = key in self._groups
        if not existed:
            self._groups[key] = GroupStats(key=key)
        return key, existed

    def observe(self, job: Job) -> GroupStats:
        """Record a job's (explicit-feedback) usage into its group."""
        key, _ = self.lookup(job)
        stats = self._groups[key]
        stats.add(job)
        return stats

    def get(self, key: GroupKey) -> Optional[GroupStats]:
        return self._groups.get(key)

    def groups(self) -> List[GroupStats]:
        """All group statistics, in insertion (first-seen) order."""
        return list(self._groups.values())


def build_groups(
    jobs: Iterable[Job],
    key_fn: Optional[KeyFunction] = None,
) -> Dict[GroupKey, GroupStats]:
    """Offline group construction over a full trace (§2.2's analysis mode)."""
    index = SimilarityIndex(key_fn)
    for job in jobs:
        index.observe(job)
    return {g.key: g for g in index.groups()}
