"""Fast-lane results keep their job summaries columnar until read.

:class:`repro.sim.records.LazySummaries` stands in for the fast lane's
:class:`JobSummary` list.  These tests pin that it answers exactly what the
scalar engine's eager list answers — fingerprint, summaries, summary
columns, completed and rejected jobs, equality, pickling — for every
estimation mode and fast-lane policy, also after the workload's jobs were
released; and that a sweep point's run never builds a ``Job`` or a
``JobSummary``.  The oracle is an explicit scalar ``Simulation`` run
(``scalar_run``), never ``simulate``.
"""

import pickle

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.core import LastInstance, NoEstimation, SuccessiveApproximation
from repro.experiments import specs as spec_memo
from repro.experiments.parallel import execute_spec, simulate_spec
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    RunSpec,
    WorkloadSpec,
    clear_materialization_caches,
    trim_materialized_workloads,
)
from repro.sim import simulate
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.sim.records import LazySummaries
from repro.workload import Workload, lanl_cm5_like, scale_load
from repro.workload.columns import COLUMN_FIELDS, JobColumns

from tests.sim.engine_reference import scalar_run

MODES = {
    "none": NoEstimation,
    "successive": SuccessiveApproximation,
    "protocol": LastInstance,
}
POLICIES = {"fcfs": Fcfs, "sjf": ShortestJobFirst, "easy": EasyBackfilling}

#: Every 25th job asks for more memory per node than any machine class of
#: ``paper_cluster(24.0)`` (24 and 32 MB) has, so every mode rejects it.
OVER_TIER_MEM = 48.0


def _columnar_trace() -> Workload:
    """A fresh columnar workload (jobs not materialized) with over-tier
    jobs mixed in."""
    base = lanl_cm5_like(n_jobs=400, seed=5)
    cols = base.as_columns()
    fields = {name: getattr(cols, name).copy() for name, _ in COLUMN_FIELDS}
    fields["req_mem"][::25] = OVER_TIER_MEM
    workload = Workload.from_columns(
        JobColumns(**fields), total_nodes=base.total_nodes,
        node_mem=base.node_mem, name="over-tier",
    )
    return scale_load(workload, 0.9)


def _bits(arr: np.ndarray) -> tuple:
    return arr.dtype.str, arr.tobytes()


def _loop_columns(summaries) -> tuple:
    """The reference column build: one element write per job and field."""
    n = len(summaries)
    completed = np.empty(n, dtype=bool)
    first_submit = np.empty(n, dtype=np.float64)
    end_time = np.empty(n, dtype=np.float64)
    run_time = np.empty(n, dtype=np.float64)
    procs = np.empty(n, dtype=np.int64)
    for i, s in enumerate(summaries):
        completed[i] = s.completed
        first_submit[i] = s.first_submit
        end_time[i] = s.end_time
        run_time[i] = s.job.run_time
        procs[i] = s.job.procs
    return completed, first_submit, end_time, run_time, procs


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_lazy_result_equals_the_scalar_result(mode, policy):
    workload = _columnar_trace()
    assert not workload.jobs.materialized()
    result = simulate(
        workload, paper_cluster(24.0), MODES[mode](), policy=POLICIES[policy]()
    )
    summaries = result.summaries
    assert isinstance(summaries, LazySummaries)
    if mode != "protocol":  # protocol lanes hand the estimator Job objects
        assert not workload.jobs.materialized()
    # Counts, columns and truthiness come from the lane's lists.
    n_jobs, n_completed = result.n_jobs, result.n_completed
    columns = result.summary_columns()
    assert len(summaries) == n_jobs and bool(summaries)
    assert not summaries.built()

    twin = scalar_run(
        workload, paper_cluster(24.0), MODES[mode](), policy=POLICIES[policy]()
    )
    assert twin.rejected_jobs, "the trace must hold jobs no machine class holds"
    assert result.rejected_jobs == twin.rejected_jobs
    assert (n_jobs, n_completed) == (twin.n_jobs, twin.n_completed)
    reference = _loop_columns(twin.summaries)
    for got, eager, want in zip(columns, twin.summary_columns(), reference):
        assert _bits(got) == _bits(want) and _bits(eager) == _bits(want)
    assert result == twin and twin == result
    assert not summaries.built(), "== against a list keeps nothing"

    assert result.fingerprint() == twin.fingerprint()
    assert summaries.built()
    assert list(summaries) == twin.summaries
    assert summaries[0] == twin.summaries[0]
    assert summaries[-2:] == twin.summaries[-2:]
    assert result == twin


def test_lazy_results_compare_without_building():
    workload = _columnar_trace()
    runs = [
        simulate(workload, paper_cluster(24.0), SuccessiveApproximation())
        for _ in range(2)
    ]
    other = simulate(workload, paper_cluster(24.0), NoEstimation())
    assert runs[0].summaries == runs[1].summaries
    assert runs[0].summaries != other.summaries
    assert not any(r.summaries.built() for r in runs + [other])
    assert not workload.jobs.materialized()


def test_pickle_round_trip_preserves_the_result():
    workload = _columnar_trace()
    result = simulate(workload, paper_cluster(24.0), SuccessiveApproximation())
    clone = pickle.loads(pickle.dumps(result))
    assert type(clone.summaries) is list
    assert clone == result and result == clone
    assert clone.fingerprint() == result.fingerprint()
    assert clone.n_completed == result.n_completed
    for got, want in zip(clone.summary_columns(), result.summary_columns()):
        assert _bits(got) == _bits(want)


def test_summaries_survive_a_released_workload():
    """A sweep worker's trim releases the memoized workload's jobs after
    every run; a result read afterwards rebuilds identical summaries."""
    clear_materialization_caches()
    try:
        workload = WorkloadSpec(n_jobs=400, seed=3, load=0.9).materialize()
        result = simulate(workload, paper_cluster(24.0), SuccessiveApproximation())
        twin = scalar_run(workload, paper_cluster(24.0), SuccessiveApproximation())
        assert workload.jobs.materialized()  # the scalar run iterated it
        trim_materialized_workloads()
        assert not workload.jobs.materialized()
        assert not result.summaries.built()
        assert result.summaries == twin.summaries
        assert result.fingerprint() == twin.fingerprint()
    finally:
        clear_materialization_caches()


def _memoized_workloads():
    return list(spec_memo._BASE_WORKLOADS.values()) + list(
        spec_memo._SCALED_WORKLOADS.values()
    )


@pytest.mark.parametrize("estimator", [
    EstimatorSpec(name="none"),
    EstimatorSpec.make("successive", alpha=2.0, beta=0.0),
])
def test_a_sweep_point_builds_no_job_objects(monkeypatch, estimator):
    spec = RunSpec(
        workload=WorkloadSpec(n_jobs=600, seed=3, load=0.9),
        cluster=ClusterSpec(second_tier_mem=24.0),
        estimator=estimator,
        seed=3,
    )
    clear_materialization_caches()
    try:
        built = []
        to_jobs = JobColumns.to_jobs
        monkeypatch.setattr(
            JobColumns, "to_jobs",
            lambda self: built.append(len(self)) or to_jobs(self),
        )
        outcome = execute_spec(spec)
        assert outcome.ok, outcome.error
        assert built == [], "the run materialized Job objects"
        memoized = _memoized_workloads()
        assert memoized
        assert not any(w.jobs.materialized() for w in memoized)

        result = simulate(
            spec.workload.materialize(), spec.cluster.materialize(),
            spec.estimator.materialize(), seed=spec.seed,
            collect_attempts=False,
        )
        assert len(result.summaries) == result.n_jobs > 0
        assert not result.summaries.built()
        assert built == []
        monkeypatch.undo()
        assert outcome.point == simulate_spec(spec)
    finally:
        clear_materialization_caches()
