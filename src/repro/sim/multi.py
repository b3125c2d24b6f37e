"""Multi-resource cluster simulation — §2.3's generalization, end to end.

The main simulator (:mod:`repro.sim.engine`) models the paper's experiments:
one resource (memory).  This module provides the multi-resource counterpart
so the coordinate-descent estimator
(:class:`repro.core.multi_resource.CoordinateDescentEstimator`) can be
evaluated under real scheduling dynamics rather than only in isolation:

* :class:`MultiJob` — a parallel job requesting (and actually using) a
  capacity per named resource, per node,
* :class:`MultiCluster` — machine classes with per-resource capacities;
  allocation requires every node to satisfy **every** resource requirement,
* :class:`MultiSimulation` — FCFS discrete-event loop with the same §3.1
  semantics as the single-resource engine: under-allocation on *any*
  resource fails the job after U(0, runtime), failed jobs re-enter at the
  queue head, feedback flows to the estimator after every attempt.

The estimator interface is intentionally the coordinate-descent one
(estimate(task) -> requirement vector, observe(task, requirement, ok)); a
``None`` estimator reproduces conventional matching on the users' requests.

This is a standalone extension with its own FCFS event loop, not a third
engine behind :func:`repro.sim.engine.simulate`.  Its oracle pin:
with one resource (``"mem"``) and no estimator it starts, ends and rejects
every job exactly as the scalar :class:`repro.sim.engine.Simulation` does
on FCFS best-fit (``tests/sim/test_multi.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.multi_resource import CoordinateDescentEstimator, MultiResourceTask
from repro.sim.events import EventKind, EventQueue
from repro.util.rng import RngStream, as_generator
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MultiJob:
    """A parallel job over several named resources (per-node capacities)."""

    job_id: int
    submit_time: float
    run_time: float
    procs: int
    requested: Mapping[str, float]
    used: Mapping[str, float]
    group: object = None  # similarity-group key; defaults to the job id

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise ValueError(f"submit_time must be >= 0, got {self.submit_time}")
        check_positive("run_time", self.run_time)
        if self.procs <= 0:
            raise ValueError(f"procs must be positive, got {self.procs}")
        if set(self.requested) != set(self.used):
            raise ValueError("requested and used must cover the same resources")
        for name, cap in self.requested.items():
            check_positive(f"requested[{name!r}]", cap)
        for name, cap in self.used.items():
            check_positive(f"used[{name!r}]", cap)

    def task(self) -> MultiResourceTask:
        key = self.group if self.group is not None else self.job_id
        return MultiResourceTask(group=key, requested=self.requested, used=self.used)


@dataclass
class MachineClass:
    """A homogeneous block of nodes with per-resource capacities."""

    count: int
    capacities: Dict[str, float]
    free: int = field(init=False)

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")
        for name, cap in self.capacities.items():
            check_positive(f"capacities[{name!r}]", cap)
        self.free = self.count

    def satisfies(self, requirement: Mapping[str, float]) -> bool:
        return all(
            self.capacities.get(res, 0.0) >= need for res, need in requirement.items()
        )


@dataclass(frozen=True)
class MultiAllocation:
    """Nodes granted per machine-class index."""

    counts: Tuple[Tuple[int, int], ...]  # (class index, node count)
    #: element-wise minimum capacity over the allocated classes.
    min_capacities: Mapping[str, float]

    @property
    def n_nodes(self) -> int:
        return sum(c for _, c in self.counts)

    def satisfies(self, used: Mapping[str, float]) -> bool:
        return all(
            self.min_capacities.get(res, 0.0) >= need for res, need in used.items()
        )


class MultiCluster:
    """Heterogeneous multi-resource cluster with class-grouped accounting."""

    def __init__(self, classes: Sequence[MachineClass], name: str = "multi-cluster") -> None:
        if not classes:
            raise ValueError("a cluster needs at least one machine class")
        self.classes = list(classes)
        self.name = name
        self.resources = sorted(
            {res for mc in self.classes for res in mc.capacities}
        )
        # Best-fit order: smallest machines (by normalized capacity sum) first.
        maxima = {
            res: max(mc.capacities.get(res, 0.0) for mc in self.classes)
            for res in self.resources
        }
        self._order = sorted(
            range(len(self.classes)),
            key=lambda i: sum(
                self.classes[i].capacities.get(res, 0.0) / maxima[res]
                for res in self.resources
                if maxima[res] > 0
            ),
        )

    @property
    def total_nodes(self) -> int:
        return sum(mc.count for mc in self.classes)

    @property
    def free_nodes(self) -> int:
        return sum(mc.free for mc in self.classes)

    def fits(self, n_nodes: int, requirement: Mapping[str, float]) -> bool:
        """Whether the job could ever run (ignoring current occupancy)."""
        return (
            sum(mc.count for mc in self.classes if mc.satisfies(requirement))
            >= n_nodes
        )

    def can_allocate(self, n_nodes: int, requirement: Mapping[str, float]) -> bool:
        return (
            sum(mc.free for mc in self.classes if mc.satisfies(requirement))
            >= n_nodes
        )

    def allocate(
        self, n_nodes: int, requirement: Mapping[str, float]
    ) -> Optional[MultiAllocation]:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        eligible = [i for i in self._order if self.classes[i].satisfies(requirement)]
        if sum(self.classes[i].free for i in eligible) < n_nodes:
            return None
        counts: List[Tuple[int, int]] = []
        remaining = n_nodes
        for i in eligible:
            take = min(self.classes[i].free, remaining)
            if take > 0:
                counts.append((i, take))
                remaining -= take
            if remaining == 0:
                break
        for i, take in counts:
            self.classes[i].free -= take
        min_caps = {
            res: min(self.classes[i].capacities.get(res, 0.0) for i, _ in counts)
            for res in self.resources
        }
        return MultiAllocation(counts=tuple(counts), min_capacities=min_caps)

    def release(self, allocation: MultiAllocation) -> None:
        for i, take in allocation.counts:
            if self.classes[i].free + take > self.classes[i].count:
                raise ValueError("double release or foreign allocation")
            self.classes[i].free += take

    def reset(self) -> None:
        for mc in self.classes:
            mc.free = mc.count


@dataclass(frozen=True)
class MultiJobOutcome:
    job: MultiJob
    start_time: float
    end_time: float
    n_attempts: int
    n_failures: int
    final_requirement: Mapping[str, float]
    reduced: bool


@dataclass
class MultiSimResult:
    outcomes: List[MultiJobOutcome]
    rejected: List[MultiJob]
    total_nodes: int
    t_first_submit: float
    t_last_end: float
    n_attempts: int = 0
    n_failures: int = 0
    n_reduced_submissions: int = 0
    useful_node_seconds: float = 0.0

    @property
    def makespan(self) -> float:
        return max(self.t_last_end - self.t_first_submit, 0.0)

    @property
    def utilization(self) -> float:
        span = self.makespan
        if span <= 0 or self.total_nodes <= 0:
            return 0.0
        return self.useful_node_seconds / (self.total_nodes * span)

    @property
    def frac_failed(self) -> float:
        return self.n_failures / self.n_attempts if self.n_attempts else 0.0


@dataclass
class _Queued:
    job: MultiJob
    attempt: int
    requirement: Dict[str, float]


class MultiSimulation:
    """FCFS multi-resource simulation (single-use, like the main engine)."""

    def __init__(
        self,
        jobs: Sequence[MultiJob],
        cluster: MultiCluster,
        estimator: Optional[CoordinateDescentEstimator] = None,
        seed: RngStream = 0,
        max_reduced_attempts: int = 2,
    ) -> None:
        self.jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        self.cluster = cluster
        self.estimator = estimator
        self.rng = as_generator(seed)
        self.max_reduced_attempts = max_reduced_attempts
        self._ran = False

    def _requirement(self, job: MultiJob, attempt: int) -> Dict[str, float]:
        if self.estimator is None or attempt >= self.max_reduced_attempts:
            return dict(job.requested)
        return dict(
            self.estimator.estimate(job.task(), ticket=(job.job_id, attempt))
        )

    def run(self) -> MultiSimResult:
        if self._ran:
            raise RuntimeError("MultiSimulation objects are single-use")
        self._ran = True
        self.cluster.reset()

        events = EventQueue()
        for job in self.jobs:
            events.push(job.submit_time, EventKind.ARRIVAL, job)

        queue: List[_Queued] = []
        running: Dict[int, Tuple[_Queued, MultiAllocation, float, bool]] = {}
        next_exec = 0
        result = MultiSimResult(
            outcomes=[],
            rejected=[],
            total_nodes=self.cluster.total_nodes,
            t_first_submit=self.jobs[0].submit_time if self.jobs else 0.0,
            t_last_end=0.0,
        )
        progress: Dict[int, List[int]] = {}  # job_id -> [attempts, failures]

        def enqueue(now: float, job: MultiJob, attempt: int, at_head: bool) -> None:
            requirement = self._requirement(job, attempt)
            if not self.cluster.fits(job.procs, requirement):
                if not self.cluster.fits(job.procs, dict(job.requested)):
                    result.rejected.append(job)
                    progress.pop(job.job_id, None)
                    return
                requirement = dict(job.requested)
            entry = _Queued(job=job, attempt=attempt, requirement=requirement)
            queue.insert(0, entry) if at_head else queue.append(entry)

        def schedule(now: float) -> None:
            nonlocal next_exec
            while queue:
                head = queue[0]
                # Late binding, as in the main engine.
                if self.estimator is not None:
                    refreshed = self._requirement(head.job, head.attempt)
                    if self.cluster.fits(head.job.procs, refreshed):
                        head.requirement = refreshed
                alloc = self.cluster.allocate(head.job.procs, head.requirement)
                if alloc is None:
                    return
                queue.pop(0)
                ok = alloc.satisfies(head.job.used)
                duration = (
                    head.job.run_time
                    if ok
                    else float(self.rng.uniform(0.0, head.job.run_time))
                )
                running[next_exec] = (head, alloc, now, ok)
                events.push(now + duration, EventKind.COMPLETION, next_exec)
                next_exec += 1
                result.n_attempts += 1
                progress[head.job.job_id][0] += 1
                if any(
                    head.requirement[r] < head.job.requested[r]
                    for r in head.job.requested
                ):
                    result.n_reduced_submissions += 1

        while events:
            now, kind, payload = events.pop()
            if kind is EventKind.ARRIVAL:
                progress[payload.job_id] = [0, 0]
                enqueue(now, payload, attempt=0, at_head=False)
            else:
                entry, alloc, started, ok = running.pop(payload)
                self.cluster.release(alloc)
                result.t_last_end = max(result.t_last_end, now)
                if self.estimator is not None and entry.attempt < self.max_reduced_attempts:
                    self.estimator.observe(
                        entry.job.task(),
                        entry.requirement,
                        ok,
                        ticket=(entry.job.job_id, entry.attempt),
                    )
                if ok:
                    result.useful_node_seconds += (now - started) * entry.job.procs
                    attempts, failures = progress[entry.job.job_id]
                    result.outcomes.append(
                        MultiJobOutcome(
                            job=entry.job,
                            start_time=started,
                            end_time=now,
                            n_attempts=attempts,
                            n_failures=failures,
                            final_requirement=dict(entry.requirement),
                            reduced=any(
                                entry.requirement[r] < entry.job.requested[r]
                                for r in entry.job.requested
                            ),
                        )
                    )
                else:
                    result.n_failures += 1
                    progress[entry.job.job_id][1] += 1
                    enqueue(now, entry.job, attempt=entry.attempt + 1, at_head=True)
            schedule(now)

        if queue:
            raise RuntimeError(f"{len(queue)} jobs stranded at end of trace")
        return result
