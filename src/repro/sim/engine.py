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
from repro.core.base import Estimator, Feedback
from repro.core.baselines import NoEstimation
from repro.obs.base import NullObserver, RunMeta, SimObserver
from repro.sim.events import EventKind, EventQueue
from repro.sim.failure import ExecutionOutcome, FailureModel
from repro.sim.faults import FaultConfig, NodeFaultInjector, fault_rng
from repro.sim.policies import Fcfs, Policy, QueuedJob, RunningJob
from repro.sim.records import AttemptRecord, JobSummary, SimResult, TimelineSample
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
    """Accumulated state of one job across attempts."""

    job: Job
    first_submit: float
    n_attempts: int = 0
    n_resource_failures: int = 0
    wasted_node_seconds: float = 0.0
    completed: bool = False
    final: Optional[AttemptRecord] = None


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
        record_timeline: bool = False,
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
            Keep the per-attempt trace (needed by trajectory analyses);
            summaries and counters are always kept.
        record_timeline:
            Append a :class:`~repro.sim.records.TimelineSample` (queue
            length, busy and down nodes) after every event — feeds the
            queue-dynamics analyses in :mod:`repro.sim.analysis`.
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
        self.record_timeline = record_timeline
        self.late_binding = late_binding
        # A NullObserver is contractually the absence of observation, so it
        # is normalised onto the observer-free fast path (no hook dispatch).
        if type(observer) is NullObserver:
            observer = None
        self._obs = observer
        self._timeline: List[TimelineSample] = []
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
        #: requirement was computed at the entry's current token.
        self._est_version_fn = self.estimator.estimate_version
        #: Lazy-scheduling dirty flag.  A completed scheduling pass ends with
        #: "nothing startable"; that verdict stays valid until something it
        #: depends on changes — see the invariant in :meth:`_schedule_pass`.
        self._sched_dirty = True
        #: Completion events of executions killed by a node fault: the heap
        #: entry cannot be removed, so the stale exec_id is skipped on pop.
        self._cancelled: Set[int] = set()
        self._next_exec_id = 0
        self._arrivals_pending = 0
        self._progress: Dict[int, _JobProgress] = {}
        self._attempts: List[AttemptRecord] = []
        self._rejected: List[Job] = []
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

        # Bulk-heapify the full arrival list (one O(n) heapify instead of
        # n sift-ups; the paper's trace schedules 122k arrivals up front).
        arrivals = [
            (job.submit_time, EventKind.ARRIVAL, job) for job in self.workload
        ]
        self._events.extend(arrivals)
        self._arrivals_pending = len(arrivals)
        first_submit = min((t for t, _, _ in arrivals), default=math.inf)

        if self.fault_injector is not None and self._arrivals_pending:
            # The failure process starts with the trace; the first failure
            # lands one inter-failure time after the first arrival.
            self._schedule_next_failure(first_submit)

        # Hot loop: drains the raw heap with a local heappop — the wrapper's
        # method call and enum conversion per event are measurable at 100k+
        # events — and compares kinds as the ints the heap stores.
        heap = self._events.raw_heap
        heappop = _heappop
        cancelled = self._cancelled
        plain = self._obs is None and not self.record_timeline
        ARRIVAL = int(EventKind.ARRIVAL)
        COMPLETION = int(EventKind.COMPLETION)
        NODE_FAILURE = int(EventKind.NODE_FAILURE)
        while heap:
            now, kind, _seq, payload = heappop(heap)
            if kind == ARRIVAL:
                self._arrivals_pending -= 1
                self._on_arrival(now, payload)
            elif kind == COMPLETION:
                if payload in cancelled:
                    # The execution was killed by a node fault before its
                    # scheduled end; nothing to do.
                    cancelled.discard(payload)
                    continue
                self._on_completion(now, payload)
            elif kind == NODE_FAILURE:
                self._on_node_failure(now)
            else:
                self._on_node_repair(now, payload)
            if self._sched_dirty:
                n_started = self._schedule_pass(now)
                self._sched_dirty = False
            else:
                # Lazy scheduling: nothing the last (failed) pass depended on
                # changed, so a pass now would provably start nothing.
                n_started = 0
            if plain:
                continue
            if self.record_timeline:
                self._timeline.append(
                    TimelineSample(
                        time=now,
                        queue_length=len(self._queue),
                        busy_nodes=self.cluster.busy_nodes,
                        down_nodes=self.cluster.down_nodes,
                    )
                )
            if self._obs is not None:
                self._obs.on_scheduling_pass(
                    now,
                    n_started,
                    len(self._queue),
                    self.cluster.busy_nodes,
                    self.cluster.down_nodes,
                )

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

    # ------------------------------------------------------- external drive
    # The streaming API lets an external driver (the batched engine in
    # :mod:`repro.sim.batch`) own the arrival stream while this Simulation
    # keeps every internal event (completions, node faults/repairs) on its
    # own heap.  The per-event sequence — handler, then one lazy scheduling
    # pass, then timeline/observer hooks — is identical to :meth:`run`'s
    # loop, so a simulation driven as
    # ``begin_stream(); {stream_arrival() | step_internal()}*; end_stream()``
    # with events fed in the same global order produces a bit-identical
    # :class:`SimResult`.  Internal-event seqs restart at 0 here (run()
    # heapifies the arrivals first), but only the *relative* order of a
    # lane's internal events matters and push order is unchanged.

    def begin_stream(self, n_arrivals: int, first_submit: float) -> None:
        """Start an externally-driven run expecting ``n_arrivals`` arrivals."""
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
        self._arrivals_pending = n_arrivals
        if self.fault_injector is not None and n_arrivals:
            self._schedule_next_failure(first_submit)

    def stream_arrival(self, now: float, job: Job) -> None:
        """Deliver one arrival (in global event order) and settle its effects."""
        self._arrivals_pending -= 1
        self._on_arrival(now, job)
        self._after_event(now)

    def step_internal(self) -> bool:
        """Pop and process the earliest internal event.

        Returns ``False`` when the popped event was the stale completion of
        a fault-killed execution (discarded with no scheduling pass, exactly
        as :meth:`run` does), ``True`` otherwise.
        """
        now, kind, _seq, payload = _heappop(self._events.raw_heap)
        if kind == 0:  # EventKind.COMPLETION
            if payload in self._cancelled:
                self._cancelled.discard(payload)
                return False
            self._on_completion(now, payload)
        elif kind == 3:  # EventKind.NODE_FAILURE
            self._on_node_failure(now)
        elif kind == 1:  # EventKind.NODE_REPAIR
            self._on_node_repair(now, payload)
        else:  # pragma: no cover - arrivals never enter the heap in stream mode
            raise RuntimeError(f"unexpected internal event kind {kind}")
        self._after_event(now)
        return True

    def end_stream(self) -> SimResult:
        """Finish an externally-driven run (every event must have fired)."""
        if self._queue:
            raise RuntimeError(
                f"{len(self._queue)} jobs stranded in the queue at end of trace"
            )
        result = self._build_result()
        if self._obs is not None:
            self._obs.on_run_end(result)
        return result

    def _after_event(self, now: float) -> None:
        """run()'s post-event block: lazy scheduling pass + hooks."""
        if self._sched_dirty:
            n_started = self._schedule_pass(now)
            self._sched_dirty = False
        else:
            n_started = 0
        if self._obs is None and not self.record_timeline:
            return
        if self.record_timeline:
            self._timeline.append(
                TimelineSample(
                    time=now,
                    queue_length=len(self._queue),
                    busy_nodes=self.cluster.busy_nodes,
                    down_nodes=self.cluster.down_nodes,
                )
            )
        if self._obs is not None:
            self._obs.on_scheduling_pass(
                now,
                n_started,
                len(self._queue),
                self.cluster.busy_nodes,
                self.cluster.down_nodes,
            )

    # -------------------------------------------------------------- events
    def _on_arrival(self, now: float, job: Job) -> None:
        self._progress[job.job_id] = _JobProgress(job=job, first_submit=now)
        self._enqueue(now, job, attempt=0, at_head=False)

    def _enqueue(self, now: float, job: Job, attempt: int, at_head: bool) -> None:
        requirement = self.estimator.estimate(job, attempt=attempt)
        version = self._est_version_fn(job, attempt) if self._refresh else None
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
            self._rejected.append(job)
            self._progress.pop(job.job_id, None)
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
        job = entry.job
        progress = self._progress[job.job_id]

        granted = execution.allocation.min_capacity
        record = AttemptRecord(
            job_id=job.job_id,
            attempt=entry.attempt,
            submit_time=entry.enqueue_time,
            start_time=execution.start_time,
            end_time=now,
            procs=job.procs,
            requirement=entry.requirement,
            granted=granted,
            succeeded=outcome.succeeded,
            resource_failure=(not outcome.succeeded) and outcome.resource_related,
            reduced=entry.requirement < job.req_mem,
            allocation=tuple(sorted(execution.allocation.counts.items())),
        )
        if self.collect_attempts:
            self._attempts.append(record)
        self._t_last_end = max(self._t_last_end, now)

        if not self._skip_feedback:
            self.estimator.observe(
                Feedback(
                    job=job,
                    succeeded=outcome.succeeded,
                    requirement=entry.requirement,
                    granted=granted,
                    used=job.used_mem,  # explicit estimators read it; others ignore
                    attempt=entry.attempt,
                )
            )

        if outcome.succeeded:
            progress.completed = True
            progress.final = record
            self._useful_node_seconds += record.node_seconds
            if self._obs is not None:
                self._obs.on_job_completed(now, record)
        else:
            if outcome.resource_related:
                progress.n_resource_failures += 1
                self._n_resource_failures += 1
            else:
                self._n_spurious_failures += 1
            progress.wasted_node_seconds += record.node_seconds
            self._wasted_node_seconds += record.node_seconds
            # The failed hook fires after the estimator observed the attempt
            # (telemetry samples the post-feedback state) and before the
            # resubmission's enqueued hook.
            if self._obs is not None:
                self._obs.on_job_failed(now, record)
            # §3.1: "Once it fails, the job returns to the head of the queue."
            self._enqueue(now, job, attempt=entry.attempt + 1, at_head=True)

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
        for _ in range(injector.n_victims()):
            level = injector.choose_level(self.cluster.in_service_by_level())
            if level is None:
                break  # every node is already down; the failure is a no-op
            free = self.cluster.free_at_level(level)
            in_service = self.cluster.total_at_level(level) - self.cluster.down_at_level(level)
            busy = in_service - free
            # The victim is uniform over in-service nodes at the level: busy
            # with probability busy/(busy+free).
            if busy > 0 and (free == 0 or injector.rng.random() < busy / in_service):
                self._kill_execution_at_level(now, level)
            self.cluster.fail_node(level)
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
        # Single scan with a lazy fallback: the common case is exactly one
        # execution holding nodes at the level, which needs no candidate
        # list, no weight vector, and — crucially for reproducibility — no
        # RNG draw (the seed engine's single-candidate branch drew nothing
        # either).  Only on finding a second candidate is the full weighted
        # draw built, byte-identical to the eager version's RNG usage.
        injector = self.fault_injector
        first: Optional[Tuple[int, _Execution]] = None
        multiple = False
        for exec_id, execution in self._running.items():
            if execution.allocation.counts.get(level, 0) > 0:
                if first is None:
                    first = (exec_id, execution)
                else:
                    multiple = True
                    break
        assert first is not None, (
            "busy count at level > 0 but no execution holds it"
        )
        if not multiple:
            exec_id, execution = first
        else:
            candidates = [
                (exec_id, execution)
                for exec_id, execution in self._running.items()
                if execution.allocation.counts.get(level, 0) > 0
            ]
            weights = [e.allocation.counts[level] for _, e in candidates]
            total = float(sum(weights))
            idx = int(
                injector.rng.choice(
                    len(candidates), p=[w / total for w in weights]
                )
            )
            exec_id, execution = candidates[idx]

        del self._running[exec_id]
        self._cancelled.add(exec_id)
        self.cluster.release(execution.allocation)
        self._sched_dirty = True  # capacity freed (the node goes down next)
        entry = execution.entry
        job = entry.job
        progress = self._progress[job.job_id]

        granted = execution.allocation.min_capacity
        record = AttemptRecord(
            job_id=job.job_id,
            attempt=entry.attempt,
            submit_time=entry.enqueue_time,
            start_time=execution.start_time,
            end_time=now,
            procs=job.procs,
            requirement=entry.requirement,
            granted=granted,
            succeeded=False,
            resource_failure=False,
            reduced=entry.requirement < job.req_mem,
            allocation=tuple(sorted(execution.allocation.counts.items())),
        )
        if self.collect_attempts:
            self._attempts.append(record)
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
        injector.stats.n_jobs_killed += 1
        progress.wasted_node_seconds += record.node_seconds
        self._wasted_node_seconds += record.node_seconds
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
                # rounding — is skipped.
                head = queue[0]
                version = est_version(head.job, head.attempt)
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
        summaries: List[JobSummary] = []
        for progress in self._progress.values():
            final = progress.final
            if final is None:
                # A job whose every attempt failed cannot happen: the retry
                # guard eventually resubmits with the original request, which
                # is sufficient by the paper's assumption — unless spurious
                # failures are unlucky forever, whose probability is zero in
                # finite traces because each retry re-rolls.  Guarded anyway.
                raise RuntimeError(
                    f"job {progress.job.job_id} finished the trace incomplete"
                )
            summaries.append(
                JobSummary(
                    job=progress.job,
                    first_submit=progress.first_submit,
                    start_time=final.start_time,
                    end_time=final.end_time,
                    n_attempts=progress.n_attempts,
                    n_resource_failures=progress.n_resource_failures,
                    completed=progress.completed,
                    final_requirement=final.requirement,
                    final_granted=final.granted,
                    reduced=final.reduced,
                    wasted_node_seconds=progress.wasted_node_seconds,
                )
            )
        summaries.sort(key=lambda s: (s.first_submit, s.job.job_id))
        t_first = summaries[0].first_submit if summaries else 0.0
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
            attempts=self._attempts,
            summaries=summaries,
            rejected_jobs=self._rejected,
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
            timeline=self._timeline,
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
    estimator — run on the array fast lane as a one-lane
    :func:`~repro.sim.batch.simulate_batch`; every other one (faults, an
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
    ).run()
