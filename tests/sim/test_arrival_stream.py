"""The scalar engine streams its arrivals from the workload.

:class:`~repro.sim.engine.Simulation` merges a row-ordered arrival stream
with an event heap that holds only completions, node failures and node
repairs; a columnar workload's jobs are built a block at a time as their
arrivals fire.  These tests pin that the merge fires events in the order a
heap holding every arrival would (same instant: completion, node repair,
arrival, node failure), that a run builds each job once and leaves none
on the workload, and that it peaks below the memory of its job list.
"""

import tracemalloc

import numpy as np

from repro.cluster import Cluster, paper_cluster
from repro.core import SuccessiveApproximation
from repro.obs.base import SimObserver
from repro.sim.batch import BatchConfig, fast_lane_eligible, simulate_batch
from repro.sim.engine import Simulation, _scalar_simulation
from repro.sim.faults import FaultConfig
from repro.workload import Workload, lanl_cm5_like, scale_load
from repro.workload.columns import JobColumns

from tests.sim.engine_reference import jobs_built, scalar_run

SEED = 1

#: A node failure every ~500 s on the 8-node cluster, repaired in ~300 s.
FAULTS = FaultConfig(node_mtbf=4000.0, node_mttr=300.0)


def _cluster() -> Cluster:
    return Cluster([(4, 16.0), (4, 32.0)], name="stream")


def _trace(submit, procs) -> Workload:
    """A columnar trace of 100 s jobs that fit the 16 MB tier."""
    n = len(submit)
    cols = JobColumns(
        job_id=np.arange(1, n + 1),
        submit_time=np.array(submit, dtype=np.float64),
        run_time=np.full(n, 100.0),
        procs=np.array(procs),
        req_mem=np.full(n, 32.0),
        used_mem=np.full(n, 8.0),
        req_time=np.full(n, 200.0),
        user_id=np.zeros(n, dtype=np.int64),
        group_id=np.zeros(n, dtype=np.int64),
        app_id=np.zeros(n, dtype=np.int64),
        status=np.ones(n, dtype=np.int64),
    )
    return Workload.from_columns(cols, total_nodes=8, node_mem=32.0,
                                 name="stream")


class _Instants(SimObserver):
    """``(event, time)`` of every arrival, completion, node failure and
    node repair, in firing order."""

    def __init__(self) -> None:
        self.events = []

    def on_job_enqueued(self, now, job, attempt, requirement, at_head):
        if attempt == 0:
            self.events.append(("arrival", now))

    def on_job_completed(self, now, record):
        self.events.append(("completion", now))

    def on_node_failed(self, now, level, repair):
        self.events.append(("failure", now))

    def on_node_repaired(self, now, level):
        self.events.append(("repair", now))

    def first(self, event) -> float:
        return next(t for name, t in self.events if name == event)

    def at(self, time) -> list:
        return [name for name, t in self.events if t == time]


def _run(workload, observer=None):
    return _scalar_simulation(
        workload, _cluster(), None, None, SEED, 0.0, FAULTS, True, observer,
    ).run()


def test_arrivals_merge_with_heap_events_at_the_same_instant():
    """Arrivals land exactly on a completion, a node repair and a node
    failure.  The arrival fires after the completion and the repair and
    before the failure, and the scalar result equals a second scalar run's
    and the fast lane's, bit for bit."""
    submit = [50.0 * i for i in range(12)]
    procs = [2, 3, 1, 4] * 3
    probe = _Instants()
    _run(_trace(submit, procs), probe)
    instants = [probe.first(event)
                for event in ("completion", "repair", "failure")]
    workload = _trace(submit + instants, procs + [1, 1, 1])

    seen = _Instants()
    result = _run(workload, seen)
    completion, repair, failure = map(seen.at, instants)
    assert "arrival" in completion and "arrival" in repair
    assert completion.index("completion") < completion.index("arrival")
    assert repair.index("repair") < repair.index("arrival")
    assert failure.index("arrival") < failure.index("failure")

    assert _run(workload).fingerprint() == result.fingerprint()
    config = BatchConfig(cluster=_cluster(), seed=SEED, fault_config=FAULTS)
    assert fast_lane_eligible(config)
    [fast] = simulate_batch(workload, [config])
    assert fast.fingerprint() == result.fingerprint()


def test_runs_leave_a_columnar_workload_unbuilt():
    """A run with a rejected job, and a faulted run, build each job once,
    as its arrival fires, plus the rejected job for the result; a second
    run builds them all again, since the workload keeps none."""
    over_tier = _trace([0.0, 10.0, 20.0], [2, 9, 1])  # 9 of 8 nodes
    with jobs_built() as jobs:
        result = _run(over_tier)
    assert [job.job_id for job in result.rejected_jobs] == [2]
    assert result.n_node_failures > 0
    assert sum(jobs) == len(over_tier) + 1

    workload = scale_load(lanl_cm5_like(n_jobs=300, seed=2), 0.8)
    for _ in range(2):
        with jobs_built() as jobs:
            result = scalar_run(
                workload, paper_cluster(24.0), SuccessiveApproximation(),
                fault_config=FaultConfig(node_mtbf=2.0e6, node_mttr=3600.0),
            )
        assert sum(jobs) == len(workload) + len(result.rejected_jobs)


def test_run_peaks_below_the_job_list():
    """A run's memory follows the jobs live in it, not the trace: on a
    20k-job trace at load 0.5, ``Simulation.run()``'s traced peak stays
    below what the workload's whole job list takes.  Both sides are
    traced in the same interpreter, so the bound holds across versions."""
    workload = scale_load(lanl_cm5_like(n_jobs=20000, seed=0), 0.5)
    columns = workload.as_columns()
    tracemalloc.start()
    try:
        jobs = columns.to_jobs()
        list_size = tracemalloc.get_traced_memory()[0]
        del jobs
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = Simulation(
            workload, paper_cluster(32.0), collect_attempts=False
        ).run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.n_completed == len(workload)
    assert peak < list_size, (peak, list_size)
