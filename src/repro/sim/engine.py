"""The discrete-event simulation engine.

One :class:`Simulation` object runs one (workload, cluster, estimator,
policy) combination to completion and returns a
:class:`~repro.sim.records.SimResult`.  The flow per §3.1 and Figure 2:

1. **Arrival** — the job's requirement is estimated (Figure 2's estimation
   phase precedes allocation) and the job joins the queue.
2. **Scheduling pass** — the policy picks startable jobs; the matcher
   allocates ``procs`` nodes of capacity >= requirement each.  The failure
   model decides the attempt's fate up front (the engine knows the actual
   usage; the *estimator* never sees it unless explicit feedback is on).
3. **Completion** — nodes are released, the estimator receives
   :class:`~repro.core.base.Feedback`, and a failed job re-enters **at the
   head of the queue** with a fresh estimate (a new submission in Algorithm
   1's terms).

Infeasible submissions (no machine class can ever satisfy the requirement,
e.g. more nodes than exist at the required capacity) are rejected at
enqueue time rather than deadlocking an FCFS queue; the count is reported on
the result.  With the paper's workloads this never triggers.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop as _heappop
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.cluster.cluster import Allocation, Cluster
from repro.core.base import Estimator, Feedback, version_token_fn
from repro.core.baselines import NoEstimation
from repro.obs.base import NullObserver, RunMeta, SimObserver
from repro.sim.events import EventKind, EventQueue, check_arrival_times
from repro.sim.failure import ExecutionOutcome, FailureModel
from repro.sim.faults import FaultConfig, NodeFaultInjector, fault_rng
from repro.sim.policies import Fcfs, Policy, QueuedJob, RunningJob
from repro.sim.records import (
    AttemptLog, AttemptRecord, JobTable, Records, SimResult,
)
from repro.util.rng import RngStream
from repro.workload.job import Job, Workload


@dataclass(slots=True)
class _Execution:
    """One in-flight execution attempt."""

    entry: QueuedJob
    allocation: Allocation
    start_time: float
    end_time: float
    outcome: ExecutionOutcome


@dataclass(slots=True)
class _JobProgress:
    """Accumulated state of one job across attempts, kept until it
    succeeds (its job-table row is written then)."""

    row: int  # the job's workload row; its arrival is Job.submit_time
    n_attempts: int = 0
    n_resource_failures: int = 0
    wasted_node_seconds: float = 0.0


class Simulation:
    """One simulation run.  Not reusable: build a fresh instance per run."""

    def __init__(
        self,
        workload: Workload,
        cluster: Cluster,
        estimator: Optional[Estimator] = None,
        policy: Optional[Policy] = None,
        failure_model: Optional[FailureModel] = None,
        fault_injector: Optional[NodeFaultInjector] = None,
        seed: RngStream = 0,
        collect_attempts: bool = True,
        late_binding: bool = True,
        observer: Optional[SimObserver] = None,
    ) -> None:
        """
        Parameters
        ----------
        estimator:
            Defaults to :class:`~repro.core.baselines.NoEstimation` — the
            paper's "without resource estimation" configuration.
        failure_model:
            Defaults to the paper's uniform-failure-time model with no
            spurious failures, seeded from ``seed``.
        fault_injector:
            Optional :class:`~repro.sim.faults.NodeFaultInjector`: nodes
            fail (MTBF, optionally in bursts) and are repaired (MTTR);
            executions on a failed node are killed and resubmitted, and the
            kill reaches the estimator as an ordinary failure — a §2.1
            false positive.  ``None`` (or a disabled injector) leaves the
            simulation bit-for-bit identical to the fault-free engine.
        collect_attempts:
            Keep the per-attempt trace (needed by trajectory analyses):
            each attempt is appended to the result's
            :class:`~repro.sim.records.AttemptLog` as plain numbers.  Job
            summaries and counters are always kept.  An
            :class:`~repro.sim.records.AttemptRecord` is built only for an
            attached observer.
        observer:
            Optional :class:`~repro.obs.base.SimObserver` notified of every
            job/node transition and scheduling pass.  ``None`` (default)
            keeps the engine's output bit-for-bit identical to the
            observer-free code path at negligible cost (one branch per
            hook site).
        late_binding:
            Refresh the queue head's requirement from the estimator at each
            scheduling pass (estimation feeds the *matcher*, per Figure 2),
            instead of freezing it at enqueue time.  See
            :meth:`_schedule_pass`; disable to study the enqueue-time
            binding's feedback starvation at deep queues.
        """
        self.workload = workload
        self.cluster = cluster
        self.estimator = estimator if estimator is not None else NoEstimation()
        self.policy = policy if policy is not None else Fcfs()
        self.failure_model = failure_model or FailureModel(rng=seed)
        self.fault_injector = (
            fault_injector if fault_injector is not None and fault_injector.enabled
            else None
        )
        self.collect_attempts = collect_attempts
        self.late_binding = late_binding
        # A NullObserver is contractually the absence of observation, so it
        # is normalised onto the observer-free fast path (no hook dispatch).
        if type(observer) is NullObserver:
            observer = None
        self._obs = observer
        #: Whether an attempt's fields are read by anyone: the trace or an
        #: observer hook.  Otherwise only its node-seconds are.
        self._keep_records = collect_attempts or observer is not None
        #: (fail_time, scheduled_repair_time) per failed node; downtime is
        #: computed at the end of the run with each interval clamped to the
        #: observed trace, so late repairs add no phantom downtime.
        self._down_intervals: List[Tuple[float, float]] = []

        self._events = EventQueue()
        #: Deque-backed queue: failed jobs re-enter at the *head* (§3.1) and
        #: FCFS starts pop the head, both O(1) here versus O(n) on a list.
        #: Policies still receive it as an indexable sequence.
        self._queue: Deque[QueuedJob] = deque()
        self._running: Dict[int, _Execution] = {}
        # Capability flags read once instead of per pass.
        self._needs_running = bool(getattr(self.policy, "needs_running", False))
        self._tail_wakes = bool(getattr(self.policy, "tail_wakes", True))
        # The no-estimation baseline's observe() is a documented no-op: skip
        # building Feedback and calling it per attempt.  Keyed on the method
        # identity, not never_reduces(), so subclasses that override observe
        # (e.g. recording estimators in tests) still get every feedback.
        self._skip_feedback = type(self.estimator).observe is NoEstimation.observe
        self._refresh = self.late_binding and not self.estimator.never_reduces()
        #: Estimator memoization hook (see Estimator.estimate_version): the
        #: late-binding refresh skips re-estimating a queue entry whose
        #: requirement was computed at the entry's current token.  ``None``
        #: without late binding, or when the estimator inherits the base
        #: method (its token is always ``None``): no call is made then.
        self._est_version_fn = (
            version_token_fn(self.estimator) if self._refresh else None
        )
        #: Lazy-scheduling dirty flag.  A completed scheduling pass ends with
        #: "nothing startable"; that verdict stays valid until something it
        #: depends on changes — see the invariant in :meth:`_schedule_pass`.
        self._sched_dirty = True
        #: Completion events of executions killed by a node fault: the heap
        #: entry cannot be removed, so the stale exec_id is skipped on pop.
        self._cancelled: Set[int] = set()
        self._next_exec_id = 0
        self._arrivals_pending = 0
        #: Jobs that arrived and have not yet succeeded.
        self._progress: Dict[int, _JobProgress] = {}
        #: Arrivals stream in workload order, so the next arrival's
        #: workload row is a count.
        self._next_row = 0
        #: The job table's nine outcome columns, one entry per workload row
        #: (see :class:`~repro.sim.records.JobTable`), written when the
        #: row's job succeeds.
        self._outcomes = tuple([None] * len(workload) for _ in range(9))
        self._log = AttemptLog(cluster.ladder.levels)
        self._rejected_rows: List[int] = []
        # Counters kept even when the attempt trace is disabled.  Plain
        # attributes, not a dict: each is bumped once or twice per attempt.
        self._n_attempts = 0
        self._n_resource_failures = 0
        self._n_spurious_failures = 0
        self._n_fault_kills = 0
        self._n_reduced_submissions = 0
        self._useful_node_seconds = 0.0
        self._wasted_node_seconds = 0.0
        self._t_last_end = 0.0
        self._ran = False

    # ----------------------------------------------------------------- run
    def run(self) -> SimResult:
        """Execute the full workload and return the result."""
        self._replay()
        return self._finish()

    def _replay(self) -> None:
        """Play every event of the run, up to and including the last."""
        if self._ran:
            raise RuntimeError("Simulation objects are single-use; create a new one")
        self._ran = True

        self.cluster.reset()
        self.estimator.bind(self.cluster.ladder)
        if self._obs is not None:
            self._obs.on_run_start(
                RunMeta(
                    workload=self.workload,
                    cluster=self.cluster,
                    estimator=self.estimator,
                    policy=self.policy,
                    n_jobs=len(self.workload),
                    total_nodes=self.cluster.total_nodes,
                )
            )

        # Arrivals stream in workload (row) order, each Job built as it
        # fires; the heap holds only completions and node failures and
        # repairs.  Sorting an arrival against the heap root by (time,
        # kind) gives the order a heap holding every arrival would: the
        # kinds differ, so no sequence number is compared, and same-time
        # arrivals keep their row order.  Non-finite times are refused up
        # front, as the fast lanes refuse them.
        check_arrival_times(self.workload.as_columns().submit_time)
        arrivals = self.workload.iter_jobs()
        job = next(arrivals, None)
        heap = self._events.raw_heap
        self._arrivals_pending = len(self.workload)

        if self.fault_injector is not None and job is not None:
            # The failure process starts with the trace; the first failure
            # lands one inter-failure time after the first arrival.
            self._schedule_next_failure(job.submit_time)

        # Hot loop: drains the raw heap with a local heappop — the wrapper's
        # method call and enum conversion per event are measurable at 100k+
        # events — and compares kinds as the ints the heap stores.
        heappop = _heappop
        cancelled = self._cancelled
        observer = self._obs
        ARRIVAL = int(EventKind.ARRIVAL)
        COMPLETION = int(EventKind.COMPLETION)
        NODE_FAILURE = int(EventKind.NODE_FAILURE)
        while True:
            if job is not None and (
                not heap or (job.submit_time, ARRIVAL) < heap[0][:2]
            ):
                now = job.submit_time
                self._arrivals_pending -= 1
                self._on_arrival(now, job)
                job = next(arrivals, None)
            elif heap:
                now, kind, _seq, payload = heappop(heap)
                if kind == COMPLETION:
                    if payload in cancelled:
                        # The execution was killed by a node fault before
                        # its scheduled end; nothing to do.
                        cancelled.discard(payload)
                        continue
                    self._on_completion(now, payload)
                elif kind == NODE_FAILURE:
                    self._on_node_failure(now)
                else:
                    self._on_node_repair(now, payload)
            else:
                break
            if self._sched_dirty:
                n_started = self._schedule_pass(now)
                self._sched_dirty = False
            else:
                # Lazy scheduling: nothing the last (failed) pass depended on
                # changed, so a pass now would provably start nothing.
                n_started = 0
            if observer is not None:
                observer.on_scheduling_pass(
                    now,
                    n_started,
                    len(self._queue),
                    self.cluster.busy_nodes,
                    self.cluster.down_nodes,
                )

    def _finish(self) -> SimResult:
        """Build the result of a replayed run (every event has fired)."""
        if self._queue:
            # Every arrival and completion has fired, nodes are all free,
            # yet jobs remain queued: they can never start (should have been
            # rejected).  Guarded here so a policy bug cannot silently drop
            # jobs.
            raise RuntimeError(
                f"{len(self._queue)} jobs stranded in the queue at end of trace"
            )
        result = self._build_result()
        if self._obs is not None:
            self._obs.on_run_end(result)
        return result

    # The e2e tracer times this name as engine.result_build; run() skips it.
    end_stream = _finish

    # -------------------------------------------------------------- events
    def _on_arrival(self, now: float, job: Job) -> None:
        self._progress[job.job_id] = _JobProgress(row=self._next_row)
        self._next_row += 1
        self._enqueue(now, job, attempt=0, at_head=False)

    def _enqueue(self, now: float, job: Job, attempt: int, at_head: bool) -> None:
        requirement = self.estimator.estimate(job, attempt=attempt)
        est_version = self._est_version_fn
        version = None if est_version is None else est_version(job, attempt)
        if attempt > 0 and not self.cluster.fits(job.procs, requirement):
            # A *resubmission* whose refreshed estimate no machine class can
            # hold.  The job already ran (and burned node-seconds); rejecting
            # it here would silently drop it from the summaries while its
            # waste stays in the global counters.  Fall back to the original
            # request (feasible whenever the arrival estimate was unreduced;
            # in the residual corner the rejection below still applies).
            requirement = job.req_mem
        entry = QueuedJob(
            job=job,
            attempt=attempt,
            requirement=requirement,
            enqueue_time=now,
            req_version=-1 if version is None else version,
        )
        if not self.cluster.fits(job.procs, requirement):
            # No machine class can ever hold this submission; an FCFS queue
            # would deadlock behind it.  Reject rather than strand the queue.
            self._rejected_rows.append(self._progress.pop(job.job_id).row)
            if self._obs is not None:
                self._obs.on_job_rejected(now, job, attempt)
            return
        if at_head:
            self._queue.appendleft(entry)
            self._sched_dirty = True
        else:
            # A tail append wakes the scheduler unless the policy is a
            # strict head-of-line discipline and the head (unchanged by this
            # append) already failed to start.  An append to an *empty*
            # queue is the new head and always wakes.
            if self._tail_wakes or len(self._queue) == 0:
                self._sched_dirty = True
            self._queue.append(entry)
        if self._obs is not None:
            self._obs.on_job_enqueued(now, job, attempt, requirement, at_head)

    def _on_completion(self, now: float, exec_id: int) -> None:
        execution = self._running.pop(exec_id)
        self.cluster.release(execution.allocation)
        self._sched_dirty = True  # capacity freed: queued work may now start
        entry = execution.entry
        outcome = execution.outcome
        succeeded = outcome.succeeded
        job = entry.job
        job_id = job.job_id
        progress = self._progress[job_id]

        granted = execution.allocation.min_capacity
        # AttemptRecord.node_seconds, without building the record.
        node_seconds = (now - execution.start_time) * job.procs
        record = (
            self._record(
                now, execution, succeeded,
                (not succeeded) and outcome.resource_related,
            )
            if self._keep_records else None
        )
        self._t_last_end = max(self._t_last_end, now)

        if not self._skip_feedback:
            self.estimator.observe(
                Feedback(
                    job=job,
                    succeeded=succeeded,
                    requirement=entry.requirement,
                    granted=granted,
                    used=job.used_mem,  # explicit estimators read it; others ignore
                    attempt=entry.attempt,
                )
            )

        if succeeded:
            del self._progress[job_id]
            outcome = (
                execution.start_time, now, progress.n_attempts,
                progress.n_resource_failures, True, entry.requirement,
                granted, entry.requirement < job.req_mem,
                progress.wasted_node_seconds,
            )
            for column, value in zip(self._outcomes, outcome):
                column[progress.row] = value
            self._useful_node_seconds += node_seconds
            if self._obs is not None:
                self._obs.on_job_completed(now, record)
        else:
            if outcome.resource_related:
                progress.n_resource_failures += 1
                self._n_resource_failures += 1
            else:
                self._n_spurious_failures += 1
            progress.wasted_node_seconds += node_seconds
            self._wasted_node_seconds += node_seconds
            # The failed hook fires after the estimator observed the attempt
            # (telemetry samples the post-feedback state) and before the
            # resubmission's enqueued hook.
            if self._obs is not None:
                self._obs.on_job_failed(now, record)
            # §3.1: "Once it fails, the job returns to the head of the queue."
            self._enqueue(now, job, attempt=entry.attempt + 1, at_head=True)

    def _record(
        self,
        now: float,
        execution: _Execution,
        succeeded: bool,
        resource_failure: bool,
    ) -> Optional[AttemptRecord]:
        """Log the attempt of ``execution`` ending at ``now`` when the
        trace is collected, and return its :class:`AttemptRecord` when an
        observer is attached to receive it."""
        entry = execution.entry
        job = entry.job
        allocation = execution.allocation
        fields = (
            job.job_id, entry.attempt, entry.enqueue_time,
            execution.start_time, now, job.procs, entry.requirement,
            allocation.min_capacity, succeeded, resource_failure,
            entry.requirement < job.req_mem,
        )
        counts = sorted(allocation.counts.items())
        if self.collect_attempts:
            levels = self._log.levels
            self._log.append(
                fields, [(levels.index(level), take) for level, take in counts]
            )
        if self._obs is None:
            return None
        return AttemptRecord._make(fields + (tuple(counts),))

    # --------------------------------------------------------------- faults
    def _schedule_next_failure(self, now: float) -> None:
        delay = self.fault_injector.next_failure_delay(self.cluster.total_nodes)
        if math.isfinite(delay):
            self._events.push(now + delay, EventKind.NODE_FAILURE, None)

    def _on_node_failure(self, now: float) -> None:
        injector = self.fault_injector
        injector.stats.n_failure_events += 1
        # Conservative wakeup: losing a node can't start FCFS/SJF work, but a
        # backfilling reservation computed against the old capacity may shift
        # *later*, opening a backfill window — so the verdict of the last
        # pass is void.
        self._sched_dirty = True
        cluster = self.cluster
        for _ in range(injector.n_victims()):
            level = injector.choose_level(cluster.in_service_by_level())
            if level is None:
                break  # every node is already down; the failure is a no-op
            in_service = cluster.total_at_level(level) - cluster.down_at_level(level)
            if injector.victim_is_busy(cluster.free_at_level(level), in_service):
                self._kill_execution_at_level(now, level)
            cluster.fail_node(level)
            repair = injector.repair_delay()
            injector.stats.n_nodes_failed += 1
            # Downtime is *not* credited here: the full repair interval may
            # outlive the trace.  The interval is clamped to the observed
            # simulation time in _build_result.
            self._down_intervals.append((now, now + repair))
            self._events.push(now + repair, EventKind.NODE_REPAIR, level)
            if self._obs is not None:
                self._obs.on_node_failed(now, level, repair)
        # Keep the failure process alive only while work remains; trailing
        # repair events drain on their own.
        if self._arrivals_pending or self._running or self._queue:
            self._schedule_next_failure(now)

    def _on_node_repair(self, now: float, level: float) -> None:
        self.cluster.repair_node(level)
        self._sched_dirty = True  # capacity restored
        if self._obs is not None:
            self._obs.on_node_repaired(now, level)

    def _kill_execution_at_level(self, now: float, level: float) -> None:
        """Kill one running execution holding a node at ``level``.

        The victim execution is chosen with probability proportional to how
        many of the level's nodes it holds (a uniformly random busy node at
        the level belongs to it with exactly that probability).  The kill is
        an ordinary failed attempt from every consumer's point of view —
        except that it is *not* resource-related: the estimator's feedback
        cannot tell it apart from a genuine under-allocation unless explicit
        feedback (granted vs used) is available.
        """
        # Allocations hold only levels they took nodes from.
        holders = [
            (exec_id, execution)
            for exec_id, execution in self._running.items()
            if level in execution.allocation.counts
        ]
        assert holders, "busy count at level > 0 but no execution holds it"
        exec_id, execution = holders[self.fault_injector.pick_victim(
            [held.allocation.counts[level] for _, held in holders]
        )]

        del self._running[exec_id]
        self._cancelled.add(exec_id)
        self.cluster.release(execution.allocation)
        self._sched_dirty = True  # capacity freed (the node goes down next)
        entry = execution.entry
        job = entry.job
        progress = self._progress[job.job_id]

        granted = execution.allocation.min_capacity
        node_seconds = (now - execution.start_time) * job.procs
        record = (
            self._record(now, execution, False, False)
            if self._keep_records else None
        )
        self._t_last_end = max(self._t_last_end, now)

        if not self._skip_feedback:
            self.estimator.observe(
                Feedback(
                    job=job,
                    succeeded=False,
                    requirement=entry.requirement,
                    granted=granted,
                    used=job.used_mem,
                    attempt=entry.attempt,
                )
            )
        self._n_fault_kills += 1
        self.fault_injector.stats.n_jobs_killed += 1
        progress.wasted_node_seconds += node_seconds
        self._wasted_node_seconds += node_seconds
        if self._obs is not None:
            self._obs.on_job_killed(now, record)
        # Like any failure, the job returns to the head of the queue (§3.1).
        self._enqueue(now, job, attempt=entry.attempt + 1, at_head=True)

    # ----------------------------------------------------------- scheduling
    def _schedule_pass(self, now: float) -> int:
        """Start every startable job; returns how many were started.

        **Lazy-scheduling invariant.**  A pass ends when the policy returns
        ``None`` ("nothing startable").  That verdict depends only on (a) the
        queue's contents and order, (b) the cluster's free/down capacity, and
        (c) the estimator's learned state (via the late-binding head
        refresh) — and, for reservation-planning policies, (d) the running
        set.  The engine therefore *skips* the pass for an event that changed
        none of them: it sets ``_sched_dirty`` on every enqueue (tail appends
        under strict head-of-line policies excepted — ``Policy.tail_wakes``),
        every allocation release, and every node failure/repair; estimator
        state only changes on ``observe``, which the engine calls exclusively
        on completions and kills, both of which release capacity and set the
        flag anyway.  A skipped pass is thus guaranteed to have started
        nothing, so results are bit-identical to running a pass per event
        (the observer's ``on_scheduling_pass`` still fires, with
        ``n_started=0``).
        """
        # Building the running-jobs view costs O(#running); only policies
        # that plan reservations (backfilling) read it, so FCFS/SJF passes
        # hand over an empty tuple.  The view is built once per pass and
        # appended to as jobs start (the pass itself never removes a running
        # job), not rebuilt per started job.
        queue = self._queue
        policy_select = self.policy.select
        cluster = self.cluster
        refresh = self._refresh
        est_version = self._est_version_fn
        if self._needs_running:
            running_view = [
                RunningJob(
                    end_time=e.end_time,
                    allocation=e.allocation,
                    procs=e.entry.job.procs,
                )
                for e in self._running.values()
            ]
        else:
            running_view = ()
        n_started = 0
        while queue:
            if refresh:
                # Late binding (Figure 2 places estimation before *matching*,
                # not before queueing): refresh the head's requirement with
                # the group's latest knowledge.  Deep queues otherwise pin
                # every waiting job to the estimate of its enqueue instant,
                # starving the feedback loop at high load.  O(1) per pass;
                # under FCFS every job binds at the head, so this is exact
                # late binding for the paper's scheduling policy.
                #
                # Memoized on the estimator's version token (see
                # Estimator.estimate_version): while the token is unchanged,
                # re-estimating the same entry provably returns the same
                # value, so the call — and its group resolution and ladder
                # rounding — is skipped.  An estimator that inherits the
                # base method has no token to ask for (version_token_fn
                # gives None): it is re-estimated on every pass, with no
                # token call, exactly as a None token would have it.
                head = queue[0]
                version = (
                    None if est_version is None
                    else est_version(head.job, head.attempt)
                )
                if version is None or version != head.req_version:
                    if version is not None:
                        head.req_version = version
                    refreshed = self.estimator.estimate(
                        head.job, attempt=head.attempt
                    )
                    # A refresh may *raise* the requirement (the group backed
                    # off since enqueue); never raise it past what this
                    # cluster can ever satisfy for the job, or the queue
                    # would deadlock.
                    if refreshed != head.requirement and cluster.fits(
                        head.job.procs, refreshed
                    ):
                        head.requirement = refreshed
            idx = policy_select(now, queue, cluster, running_view)
            if idx is None:
                return n_started
            if idx == 0:
                entry = queue.popleft()
            else:
                entry = queue[idx]
                del queue[idx]
            execution = self._start(now, entry)
            if self._needs_running:
                running_view.append(
                    RunningJob(
                        end_time=execution.end_time,
                        allocation=execution.allocation,
                        procs=entry.job.procs,
                    )
                )
            n_started += 1
        return n_started

    def _start(self, now: float, entry: QueuedJob) -> _Execution:
        allocation = self.cluster.allocate(entry.job.procs, entry.requirement)
        if allocation is None:
            raise RuntimeError(
                f"policy {self.policy.name} selected job {entry.job.job_id} "
                f"but allocation failed — policy/matcher disagreement"
            )
        outcome = self.failure_model.outcome(entry.job, allocation.min_capacity)
        end_time = now + outcome.duration
        exec_id = self._next_exec_id
        self._next_exec_id += 1
        execution = _Execution(
            entry=entry,
            allocation=allocation,
            start_time=now,
            end_time=end_time,
            outcome=outcome,
        )
        self._running[exec_id] = execution
        progress = self._progress[entry.job.job_id]
        progress.n_attempts += 1
        self._n_attempts += 1
        if entry.requirement < entry.job.req_mem:
            self._n_reduced_submissions += 1
        self._events.push(end_time, EventKind.COMPLETION, exec_id)
        if self._obs is not None:
            self._obs.on_job_started(
                now,
                entry.job,
                entry.attempt,
                entry.requirement,
                allocation.min_capacity,
                allocation.n_nodes,
            )
        return execution

    # -------------------------------------------------------------- result
    def _build_result(self) -> SimResult:
        if self._progress:
            # A job whose every attempt failed cannot happen: the retry
            # guard eventually resubmits with the original request, which
            # is sufficient by the paper's assumption — unless spurious
            # failures are unlucky forever, whose probability is zero in
            # finite traces because each retry re-rolls.  Guarded anyway.
            raise RuntimeError(
                f"job {next(iter(self._progress))} finished the trace incomplete"
            )
        jobs = JobTable(
            self.workload, self._rejected_rows, self._outcomes
        )
        self._outcomes = None
        t_first = jobs.first_submit
        # Downtime clamped to the observed trace: a repair scheduled past the
        # last completion (or a failure landing after it) contributes only
        # the overlap with [t_first, t_last_end].  The injector's running
        # stats are updated too, so both views agree.
        downtime = sum(
            max(0.0, min(end, self._t_last_end) - max(start, t_first))
            for start, end in self._down_intervals
        )
        if self.fault_injector is not None:
            self.fault_injector.stats.node_downtime_seconds = downtime
        return SimResult(
            workload_name=self.workload.name,
            cluster_name=self.cluster.name,
            estimator_name=self.estimator.name,
            policy_name=self.policy.name,
            total_nodes=self.cluster.total_nodes,
            attempts=Records(self._log),
            summaries=Records(jobs),
            rejected_jobs=list(self.workload.iter_jobs(self._rejected_rows)),
            t_first_submit=t_first,
            t_last_end=self._t_last_end,
            n_attempts=self._n_attempts,
            n_resource_failures=self._n_resource_failures,
            n_spurious_failures=self._n_spurious_failures,
            n_fault_kills=self._n_fault_kills,
            n_node_failures=(
                self.fault_injector.stats.n_nodes_failed
                if self.fault_injector is not None
                else 0
            ),
            node_downtime_seconds=downtime,
            n_reduced_submissions=self._n_reduced_submissions,
            useful_node_seconds=self._useful_node_seconds,
            wasted_node_seconds=self._wasted_node_seconds,
        )


def simulate(
    workload: Workload,
    cluster: Cluster,
    estimator: Optional[Estimator] = None,
    policy: Optional[Policy] = None,
    seed: RngStream = 0,
    spurious_failure_prob: float = 0.0,
    fault_config: Optional[FaultConfig] = None,
    collect_attempts: bool = True,
    observer: Optional[SimObserver] = None,
) -> SimResult:
    """Run one simulation with the paper's defaults (FCFS, no estimation).

    ``fault_config`` switches on node-level fault injection
    (:mod:`repro.sim.faults`); its RNG stream derives from ``seed`` but is
    independent of the failure model's, so enabling faults never reshuffles
    the baseline's randomness.  ``observer`` attaches a
    :class:`~repro.obs.base.SimObserver` (see :mod:`repro.obs`).

    Configurations :func:`repro.sim.batch.fast_lane_eligible` accepts —
    FCFS/SJF/EASY over a best- or first-fit cluster, whatever the
    estimator, with or without faults — run on the array fast lane as a
    one-lane :func:`~repro.sim.batch.simulate_batch`; every other one (an
    observer, other policies or strategies) runs a :class:`Simulation`
    (see its docstring).  Both give bit-identical results and leave
    ``estimator`` in the same learned state.
    """
    # Imported here: repro.sim.batch imports this module.
    from repro.sim.batch import BatchConfig, fast_lane_eligible, simulate_batch

    if type(observer) is NullObserver:
        observer = None  # the absence of observation, as in Simulation
    config = BatchConfig(
        cluster=cluster,
        estimator=estimator,
        policy=policy,
        seed=seed,
        spurious_failure_prob=spurious_failure_prob,
        fault_config=fault_config,
        observer=observer,
        collect_attempts=collect_attempts,
    )
    if fast_lane_eligible(config):
        return simulate_batch(workload, [config])[0]
    return _simulate_scalar(
        workload, cluster, estimator, policy, seed, spurious_failure_prob,
        fault_config, collect_attempts, observer,
    )


def _simulate_scalar(
    workload: Workload,
    cluster: Cluster,
    estimator: Optional[Estimator] = None,
    policy: Optional[Policy] = None,
    seed: RngStream = 0,
    spurious_failure_prob: float = 0.0,
    fault_config: Optional[FaultConfig] = None,
    collect_attempts: bool = True,
    observer: Optional[SimObserver] = None,
) -> SimResult:
    """:func:`simulate` on the scalar :class:`Simulation`, whatever the
    configuration — its fallback, and the sweep executor's per-spec oracle
    path."""
    return _scalar_simulation(
        workload, cluster, estimator, policy, seed, spurious_failure_prob,
        fault_config, collect_attempts, observer,
    ).run()


def _scalar_simulation(
    workload: Workload,
    cluster: Cluster,
    estimator: Optional[Estimator],
    policy: Optional[Policy],
    seed: RngStream,
    spurious_failure_prob: float,
    fault_config: Optional[FaultConfig],
    collect_attempts: bool,
    observer: Optional[SimObserver],
) -> Simulation:
    """The scalar :class:`Simulation` for one run configuration: its
    failure model and fault injector both draw from ``seed``."""
    injector = None
    if fault_config is not None and fault_config.enabled:
        injector = NodeFaultInjector(fault_config, rng=fault_rng(seed))
    return Simulation(
        workload=workload,
        cluster=cluster,
        estimator=estimator,
        policy=policy,
        failure_model=FailureModel(rng=seed, spurious_failure_prob=spurious_failure_prob),
        fault_injector=injector,
        seed=seed,
        collect_attempts=collect_attempts,
        observer=observer,
    )
