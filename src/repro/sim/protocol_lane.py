"""The fast lane's protocol mode: any estimator on the array engine.

:class:`~repro.sim.batch._FastLane` inlines the two estimators the paper's
sweeps run most — no estimation and default-keyed successive
approximation.  :class:`ProtocolLane` runs every other estimator (Table 1's
last-instance, reinforcement learning and regression, and the line-search,
online, hybrid and oracle estimators) on the same array queue, allocation
and completion heap, asking the estimator through its public methods
exactly as the scalar :class:`~repro.sim.engine.Simulation` does.
:func:`repro.sim.batch.simulate_batch` builds one for such a lane, and
imports this module only then.
"""

from __future__ import annotations

from bisect import bisect_left as _bisect_left
from typing import List, Optional

from repro.core.base import Estimator, Feedback
from repro.core.baselines import NoEstimation
from repro.sim.batch import _FastLane


class ProtocolLane(_FastLane):
    """Fast lane in protocol mode: any estimator the inlined paths do not
    model, driven through its public :class:`~repro.core.base.Estimator`
    methods.

    The lane keeps its array queue, free-count allocation, completion heap,
    outcome draws and deferred result build; only the estimation hooks
    change.  Each calls the estimator with the arguments, and in the order,
    the scalar engine does — ``estimate`` and (under late binding)
    ``estimate_version`` at every enqueue, the same pair at each pass's
    head refresh (``estimate`` again whenever the version is ``None`` or
    moved), ``observe`` at every completion — so an estimator that draws
    randomness inside ``estimate`` (reinforcement learning) sees the same
    call sequence.  The estimator is bound at lane start, as
    :meth:`Simulation.run` binds it, and learns in place: there is nothing
    to write back.  Every policy, FCFS included, runs the generic
    :meth:`_run_events` loop.
    """

    __slots__ = ("jobs", "est_estimate", "est_version", "est_observe")

    def _setup_estimator(self, estimator: Estimator) -> None:
        # mode_none stays False so step() reports every completion to
        # _observe, which skips the documented no-op observe the way the
        # scalar engine's _skip_feedback does (keyed on method identity).
        self.mode_none = False
        self.cache_on = False
        self.refresh = not estimator.never_reduces()
        self.jobs = self.trace.jobs
        self.est_estimate = estimator.estimate
        self.est_version = estimator.estimate_version
        self.est_observe = (
            None if type(estimator).observe is NoEstimation.observe
            else estimator.observe
        )

    def run(self) -> None:
        self.est.bind(self.cluster.ladder)
        self.trace.check_submit_times()
        if self.is_fcfs:
            self.sched = self._sched_fcfs
        self._run_events()

    def _sched_fcfs(self, now: float) -> None:
        """The FCFS pass of the generic :meth:`_run_events` loop (inlined
        FCFS lanes take :meth:`_run_fcfs` instead): refresh the head, start
        it if it fits (``Fcfs.select``), repeat."""
        queue = self.queue
        free = self.free
        nlev = self.nlev
        c_procs = self.c_procs
        refresh = self.refresh
        while queue:
            head = queue[0]
            if refresh:
                self._refresh_head(head)
            available = 0
            for j in range(head[5], nlev):
                available += free[j]
            if available < c_procs[head[0]]:
                return
            queue.popleft()
            self._start_entry(now, head)

    def _write_back(self) -> None:
        """Nothing to write: the estimator learned in place."""

    def _entry(
        self, now: float, i: int, attempt: int
    ) -> Optional[List]:
        """The scalar ``_enqueue`` up to the queue insert: the estimator's
        requirement (a resubmission no machine class can hold falls back
        to the request) as a queue entry, or ``None`` once the submission
        is rejected."""
        job = self.jobs[i]
        requirement = self.est_estimate(job, attempt=attempt)
        version = self.est_version(job, attempt) if self.refresh else None
        procs = self.c_procs[i]
        ridx = _bisect_left(self.levels, requirement)
        if attempt > 0 and self.total_suffix[ridx] < procs:
            requirement = self.c_req_mem[i]
            ridx = self.row_req_idx[i]
        if self.total_suffix[ridx] < procs:
            self.rejected_rows.append(i)
            self.dead[i] = True
            return None
        _check_requirement(requirement)
        return [i, attempt, requirement, now,
                -1 if version is None else version, ridx]

    def feed_arrival(self, now: float, i: int) -> None:
        entry = self._entry(now, i, 0)
        if entry is None:
            return
        queue = self.queue
        queue.append(entry)
        if self.wake or len(queue) == 1:
            self.sched(now)

    def _requeue_failed(self, now: float, i: int, attempt: int) -> None:
        entry = self._entry(now, i, attempt)
        if entry is not None:
            self.queue.appendleft(entry)

    def _refresh_head(self, head: List) -> None:
        """The scalar ``_schedule_pass`` head refresh, memoized on the
        estimator's version token when it offers one."""
        i = head[0]
        job = self.jobs[i]
        attempt = head[1]
        version = self.est_version(job, attempt)
        if version is not None:
            if version == head[4]:
                return
            head[4] = version
        refreshed = self.est_estimate(job, attempt=attempt)
        ridx = _bisect_left(self.levels, refreshed)
        if refreshed != head[2] and (
            self.total_suffix[ridx] >= self.c_procs[i]
        ):
            _check_requirement(refreshed)
            head[2] = refreshed
            head[5] = ridx

    def _observe(
        self, i: int, attempt: int, succeeded: bool,
        requirement: float, granted: float,
    ) -> None:
        observe = self.est_observe
        if observe is not None:
            observe(Feedback(
                job=self.jobs[i],
                succeeded=succeeded,
                requirement=requirement,
                granted=granted,
                used=self.c_used_mem[i],
                attempt=attempt,
            ))


def _check_requirement(requirement: float) -> None:
    """Refuse a queued requirement that is not a positive number, as the
    scalar engine's allocation does (``check_positive("min_capacity")``).
    Without it such a job would fail and retry forever.  An infinite
    requirement never gets here: no machine class holds it, so the job is
    rejected first."""
    if not requirement > 0.0:
        raise ValueError(f"min_capacity must be > 0, got {requirement!r}")
