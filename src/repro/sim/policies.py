"""Scheduling policies: FCFS (the paper's), SJF and EASY backfilling.

§3.1 uses first-come-first-served with no preemption; §3.1 conjectures that
"results of cluster utilization with more aggressive scheduling policies
like backfilling will be correlated with those for FCFS" and leaves them to
future work — provided here so the conjecture can be tested (the Figure 5
benchmark has a backfilling variant).

A policy never allocates; it only *selects* which queued job to start next,
given the queue, the cluster state and (for backfilling) the expected
completion times of running jobs.  The engine performs the allocation and
calls the policy again until it returns ``None``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.cluster import Allocation, Cluster
from repro.workload.job import Job


@dataclass(slots=True)
class QueuedJob:
    """A queue entry: one pending submission attempt.

    ``requirement`` is fixed at enqueue time — the estimator runs at
    submission (Figure 2's pipeline), not at every scheduling pass.

    ``req_version`` is engine bookkeeping for the late-binding refresh: the
    engine's estimator-state version (bumped on every ``observe``) at which
    ``requirement`` was last computed.  While the version is unchanged a
    re-estimate is provably a no-op — ``estimate`` is idempotent between
    ``observe`` calls — so the engine skips it (see
    ``Simulation._schedule_pass``).
    """

    job: Job
    attempt: int
    requirement: float
    enqueue_time: float
    req_version: int = -1


@dataclass(frozen=True, slots=True)
class RunningJob:
    """What a policy may know about a running job."""

    end_time: float
    allocation: Allocation
    procs: int


class Policy(abc.ABC):
    """Queue discipline: select the next queue index to start, or None."""

    name: str = "policy"
    #: Whether :meth:`select` reads the running-jobs view.  The engine skips
    #: building it for policies that don't (a per-pass O(#running) saving).
    needs_running: bool = False
    #: Whether appending a job to the *tail* of a non-empty queue can enable
    #: a start that was impossible before.  True for any policy that may
    #: select past the head (SJF, backfilling).  Strict head-of-line
    #: disciplines set it False, letting the engine skip the wakeup (and the
    #: whole scheduling pass) for tail arrivals while the head is blocked —
    #: see the lazy-scheduling invariant in ``engine._schedule_pass``.
    tail_wakes: bool = True

    @abc.abstractmethod
    def select(
        self,
        now: float,
        queue: Sequence[QueuedJob],
        cluster: Cluster,
        running: Sequence[RunningJob],
    ) -> Optional[int]:
        """Index into ``queue`` of a job the cluster can start *now*.

        Must only return an index whose job passes
        ``cluster.can_allocate(procs, requirement)``; returning ``None``
        ends this scheduling pass.
        """


class Fcfs(Policy):
    """First-come-first-served with strict head-of-line blocking (§3.1).

    Only the queue head may start; if the head does not fit, everything
    behind it waits.  Failed jobs re-enter at the head (the engine enforces
    that ordering), matching "once it fails, the job returns to the head of
    the queue".
    """

    name = "fcfs"
    tail_wakes = False  # only the head can ever start

    def select(
        self,
        now: float,
        queue: Sequence[QueuedJob],
        cluster: Cluster,
        running: Sequence[RunningJob],
    ) -> Optional[int]:
        if not queue:
            return None
        head = queue[0]
        if cluster.can_allocate(head.job.procs, head.requirement):
            return 0
        return None


class ShortestJobFirst(Policy):
    """SJF: the queued job with the shortest runtime *estimate* goes first.

    Head-of-line blocking applies to the shortest job: if it does not fit,
    nothing starts (no skipping — skipping plus runtime ordering is
    backfilling's territory).  Uses the user's runtime estimate, never the
    actual runtime, which the scheduler cannot know.
    """

    name = "sjf"

    def select(
        self,
        now: float,
        queue: Sequence[QueuedJob],
        cluster: Cluster,
        running: Sequence[RunningJob],
    ) -> Optional[int]:
        if not queue:
            return None
        # One forward scan (queues may be deque-backed: O(1) iteration,
        # O(n) random access).  Strict "<" keeps the earliest index on ties,
        # matching the old (estimate, enqueue_time, index) ordering.
        idx = 0
        entry = None
        best = None
        for i, cand in enumerate(queue):
            key = (cand.job.runtime_estimate, cand.enqueue_time)
            if best is None or key < best:
                best = key
                idx = i
                entry = cand
        if cluster.can_allocate(entry.job.procs, entry.requirement):
            return idx
        return None


class EasyBackfilling(Policy):
    """EASY backfilling: FCFS head reservation + conservative backfill.

    The head of the queue gets a *reservation*: the earliest time enough
    adequate nodes will be free, computed from the completion times of
    running jobs.  Any later queued job may start now iff it fits now and
    does not delay that reservation — either it finishes (by its runtime
    estimate) before the reservation, or the head can still start on time
    with the candidate's nodes gone.

    Two modeling notes: (a) running jobs' completion times come from the
    simulator's event list (exact), while backfill candidates are judged by
    their runtime *estimates* — the scheduler-visible quantity; since the
    workloads here have estimates >= actual runtimes, the reservation is
    never violated.  (b) the delay check is performed by hypothetically
    allocating the candidate and recomputing the head's earliest start,
    which handles capacity levels exactly rather than approximating "extra
    nodes" counts.
    """

    name = "easy-backfilling"
    needs_running = True

    def select(
        self,
        now: float,
        queue: Sequence[QueuedJob],
        cluster: Cluster,
        running: Sequence[RunningJob],
    ) -> Optional[int]:
        if not queue:
            return None
        head = queue[0]
        if cluster.can_allocate(head.job.procs, head.requirement):
            return 0
        shadow = self._earliest_start(now, head, cluster, running, extra_free=None)
        if shadow is None:
            # The head can never start even on an empty cluster; the engine
            # rejects such jobs at submission, so this is unreachable in
            # practice, but backfilling everything else remains safe.
            shadow = float("inf")
        for idx, cand in enumerate(queue):
            if idx == 0:
                continue  # the head holds the reservation
            if not cluster.can_allocate(cand.job.procs, cand.requirement):
                continue
            if now + cand.job.runtime_estimate <= shadow:
                return idx  # finishes before the reservation needs the nodes
            if self._respects_reservation(now, head, cand, shadow, cluster, running):
                return idx
        return None

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _earliest_start(
        now: float,
        head: QueuedJob,
        cluster: Cluster,
        running: Sequence[RunningJob],
        extra_free: Optional[Allocation],
    ) -> Optional[float]:
        """Earliest time the head could start, given current free nodes plus
        future releases (optionally pretending ``extra_free`` is unavailable,
        i.e. consumed by a backfilled candidate)."""
        needed = head.job.procs
        requirement = head.requirement
        avail = cluster.free_with_capacity(requirement)
        if extra_free is not None:
            avail -= sum(
                count
                for level, count in extra_free.counts.items()
                if level >= requirement
            )
        if avail >= needed:
            return now
        for run in sorted(running, key=lambda r: r.end_time):
            avail += sum(
                count
                for level, count in run.allocation.counts.items()
                if level >= requirement
            )
            if avail >= needed:
                return run.end_time
        return None  # never enough adequate nodes

    def _respects_reservation(
        self,
        now: float,
        head: QueuedJob,
        cand: QueuedJob,
        shadow: float,
        cluster: Cluster,
        running: Sequence[RunningJob],
    ) -> bool:
        """Would starting ``cand`` now still let the head start at ``shadow``?

        Hypothetically allocates the candidate, recomputes the head's
        earliest start counting only running jobs that end by the candidate's
        estimated completion horizon, then rolls back.
        """
        allocation = cluster.allocate(cand.job.procs, cand.requirement)
        if allocation is None:
            return False
        try:
            cand_end = now + cand.job.runtime_estimate
            # The candidate's nodes are unavailable to the head until cand_end;
            # treat the candidate as a running job for the recomputation.
            pretend_running = list(running) + [
                RunningJob(end_time=cand_end, allocation=allocation, procs=cand.job.procs)
            ]
            new_start = self._earliest_start(
                now, head, cluster, pretend_running, extra_free=None
            )
            return new_start is not None and new_start <= shadow
        finally:
            cluster.release(allocation)
