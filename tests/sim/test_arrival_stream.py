"""The scalar engine streams its arrivals from the workload.

:class:`~repro.sim.engine.Simulation` merges a row-ordered arrival stream
with an event heap that holds only completions, node failures and node
repairs; a columnar workload's jobs are built a block at a time as their
arrivals fire.  These tests pin that the merge fires events in the order a
heap holding every arrival would (same instant: completion, node repair,
arrival, node failure), that a columnar workload and its list-backed twin
give bit-identical results, and that a run leaves a columnar workload's
jobs unbuilt and peaks below the memory of its job list.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, paper_cluster
from repro.core import SuccessiveApproximation
from repro.obs.base import SimObserver
from repro.sim.batch import BatchConfig, fast_lane_eligible, simulate_batch
from repro.sim.engine import Simulation, _scalar_simulation
from repro.sim.faults import FaultConfig
from repro.workload import Workload, lanl_cm5_like, scale_load
from repro.workload.columns import JobColumns

from tests.sim.engine_reference import scalar_run
from tests.sim.test_batch import _diff_cluster, _diff_traces
from tests.sim.test_faulted_lane import _fault_configs

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


def _list_twin(workload: Workload) -> Workload:
    """The same jobs as a list-backed workload."""
    return Workload(
        workload.as_columns().to_jobs(), total_nodes=workload.total_nodes,
        node_mem=workload.node_mem, name=workload.name,
    )


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
    before the failure, and the scalar result on the columnar trace equals
    the list-backed twin's and the fast lane's, bit for bit."""
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
    assert _run(_list_twin(workload)).fingerprint() == result.fingerprint()
    config = BatchConfig(cluster=_cluster(), seed=SEED, fault_config=FAULTS)
    assert fast_lane_eligible(config)
    [fast] = simulate_batch(workload, [config])
    assert fast.fingerprint() == result.fingerprint()
    assert not workload.jobs.materialized()


@settings(max_examples=100, deadline=None)
@given(
    _diff_traces(),
    st.sampled_from(("best_fit", "first_fit")),
    st.integers(0, 3),
    st.one_of(st.none(), _fault_configs()),
)
def test_columnar_and_list_backed_twins_run_alike(trace, strategy, seed,
                                                  faults):
    """On random small traces, with and without node faults, a columnar
    workload and its list-backed twin give bit-identical scalar results,
    and the columnar one stays unbuilt."""
    columnar = Workload.from_columns(
        trace.as_columns(), total_nodes=trace.total_nodes,
        node_mem=trace.node_mem, name=trace.name, presorted=True,
    )
    results = [
        scalar_run(workload, _diff_cluster(strategy),
                   SuccessiveApproximation(), seed=seed, fault_config=faults)
        for workload in (columnar, _list_twin(columnar))
    ]
    assert results[0].fingerprint() == results[1].fingerprint()
    assert results[0].rejected_jobs == results[1].rejected_jobs
    assert not columnar.jobs.materialized()


def test_runs_leave_a_columnar_workload_unbuilt():
    """A run with a rejected job, and a faulted run, build no job list on
    the workload; the rejected job still reaches the result."""
    over_tier = _trace([0.0, 10.0, 20.0], [2, 9, 1])  # 9 of 8 nodes
    result = _run(over_tier)
    assert [job.job_id for job in result.rejected_jobs] == [2]
    assert result.n_node_failures > 0
    assert not over_tier.jobs.materialized()

    workload = scale_load(lanl_cm5_like(n_jobs=300, seed=2), 0.8)
    scalar_run(workload, paper_cluster(24.0), SuccessiveApproximation(),
               fault_config=FaultConfig(node_mtbf=2.0e6, node_mttr=3600.0))
    assert not workload.jobs.materialized()


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
