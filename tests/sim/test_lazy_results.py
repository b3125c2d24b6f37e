"""Results keep their job summaries columnar; readers build no record.

Both engines fill a :class:`repro.sim.records.JobTable`, and a result's
``summaries`` is a :class:`~repro.sim.records.Records` view over it.  These
tests pin that a fast-lane result answers exactly what the scalar engine's
answers — fingerprint, summaries, summary columns, completed and rejected
jobs, equality, copies — for every estimation mode and fast-lane policy,
on a workload whose view keeps no job; that the readers which need no
record (fingerprint, summary columns, ``==``, per-tier occupancy) build
none on either engine's result; and that a sweep point's run never builds a
``Job`` or a ``JobSummary``.  The oracle is an explicit scalar
``Simulation`` run (``scalar_run``), never ``simulate``.
"""

import copy
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
)
from repro.sim import simulate
from repro.sim.analysis import tier_utilization
from repro.sim.faults import FaultConfig
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.sim.records import AttemptLog, JobTable, Records
from repro.workload import Workload, lanl_cm5_like, scale_load
from repro.workload.columns import COLUMN_FIELDS, JobColumns

from tests.sim.engine_reference import (
    assert_fingerprint_keeps_nothing, jobs_built, records_built, scalar_run,
)

MODES = {
    "none": NoEstimation,
    "successive": SuccessiveApproximation,
    "protocol": LastInstance,
}
POLICIES = {"fcfs": Fcfs, "sjf": ShortestJobFirst, "easy": EasyBackfilling}
#: The two engines: ``simulate`` takes the fast lane for every config here.
ENGINES = {"fast": simulate, "scalar": scalar_run}

#: Every 25th job asks for more memory per node than any machine class of
#: ``paper_cluster(24.0)`` (24 and 32 MB) has, so every mode rejects it.
OVER_TIER_MEM = 48.0


def _columnar_trace() -> Workload:
    """A fresh workload with over-tier jobs mixed in."""
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


#: Every mode x policy lane on best fit, the same on first fit, then per
#: mode a faulted lane and one that keeps no attempt trace.
LANES = [
    pytest.param(mode, policy, "best_fit", {}, id=f"{mode}-{policy}")
    for mode in sorted(MODES)
    for policy in sorted(POLICIES)
] + [
    pytest.param(mode, policy, "first_fit", {},
                 id=f"{mode}-{policy}-first_fit")
    for mode in sorted(MODES)
    for policy in sorted(POLICIES)
] + [
    pytest.param(mode, "easy", "best_fit", {"fault_config": FaultConfig(
        node_mtbf=2.0e5, node_mttr=600.0)}, id=f"{mode}-easy-faulted")
    for mode in sorted(MODES)
] + [
    pytest.param(mode, "fcfs", "best_fit", {"collect_attempts": False},
                 id=f"{mode}-fcfs-no_attempts")
    for mode in sorted(MODES)
]


@pytest.mark.parametrize("mode, policy, strategy, kwargs", LANES)
def test_lazy_result_equals_the_scalar_result(mode, policy, strategy, kwargs):
    def run(engine, workload):
        return engine(
            workload, paper_cluster(24.0, strategy=strategy), MODES[mode](),
            policy=POLICIES[policy](), **kwargs,
        )

    workload = _columnar_trace()
    with jobs_built() as jobs:
        result = run(simulate, workload)
    summaries = result.summaries
    assert isinstance(summaries, Records)
    assert isinstance(summaries.table, JobTable)
    # Inlined lanes build only the rejected jobs the result lists; a
    # protocol lane also hands the estimator one job list, built once.
    rejected = [len(result.rejected_jobs)]
    assert jobs == ([len(workload)] + rejected if mode == "protocol" else rejected)
    # Counts, columns and truthiness come from the lane's lists.
    with records_built() as built:
        n_jobs, n_completed = result.n_jobs, result.n_completed
        columns = result.summary_columns()
        assert len(summaries) == n_jobs and bool(summaries)
    assert built == []

    # On a trace of its own, so == compares two traces' jobs.
    twin = run(scalar_run, _columnar_trace())
    assert twin.rejected_jobs, "the trace must hold jobs no machine class holds"
    assert bool(twin.n_fault_kills) == ("fault_config" in kwargs)
    assert bool(twin.attempts) == kwargs.get("collect_attempts", True)
    assert result.rejected_jobs == twin.rejected_jobs
    assert (n_jobs, n_completed) == (twin.n_jobs, twin.n_completed)
    reference = _loop_columns(twin.summaries)
    for got, eager, want in zip(columns, twin.summary_columns(), reference):
        assert _bits(got) == _bits(want) and _bits(eager) == _bits(want)
    assert_fingerprint_keeps_nothing(result, twin)
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
    with records_built() as built, jobs_built() as jobs:
        assert runs[0].summaries == runs[1].summaries
        assert runs[0].summaries != other.summaries
    assert built == []
    assert jobs == []


def _collected_run(engine):
    """An EASY run with spurious failures on a fresh trace, its attempt
    trace collected, and the cluster it ran on."""
    cluster = paper_cluster(24.0)
    return engine(
        _columnar_trace(), cluster, SuccessiveApproximation(),
        policy=EasyBackfilling(), seed=2, spurious_failure_prob=0.05,
    ), cluster


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_readers_build_no_record(engine):
    """Fingerprint, summary columns, ``==`` and per-tier occupancy read
    the tables, on either engine's result."""
    result, cluster = _collected_run(ENGINES[engine])
    twin, _ = _collected_run(ENGINES[engine])
    assert result.n_attempts > result.n_jobs > 0
    with records_built() as built:
        digest = result.fingerprint()
        result.summary_columns()
        assert result == twin and twin == result
        occupancy = tier_utilization(result, cluster)
    assert built == []
    assert digest == _collected_run(scalar_run)[0].fingerprint()
    assert occupancy == tier_utilization(twin, cluster)


@pytest.mark.parametrize("copier", [
    lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy,
], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_copies_hold_the_tables(engine, copier):
    """A copy of either engine's result equals it, fingerprints like it
    and still holds the tables, not record lists."""
    result, _ = _collected_run(ENGINES[engine])
    clone = copier(result)
    assert type(clone.summaries.table) is JobTable
    assert type(clone.attempts.table) is AttemptLog
    assert clone == result and result == clone
    assert clone.fingerprint() == result.fingerprint()
    assert clone.n_completed == result.n_completed
    for got, want in zip(clone.summary_columns(), result.summary_columns()):
        assert _bits(got) == _bits(want)
    assert list(clone.summaries) == list(result.summaries)
    assert list(clone.attempts) == list(result.attempts)
    assert type(copier(result.attempts)) is Records


def test_pickle_round_trip_preserves_the_result():
    """A default run (attempts not collected) survives pickling: the
    clone still holds the job table and reads like the original."""
    workload = _columnar_trace()
    result = simulate(workload, paper_cluster(24.0), SuccessiveApproximation())
    clone = pickle.loads(pickle.dumps(result))
    assert type(clone.summaries.table) is JobTable
    with records_built() as built:
        assert clone == result and result == clone
        assert clone.fingerprint() == result.fingerprint()
        assert clone.n_completed == result.n_completed
        for got, want in zip(clone.summary_columns(), result.summary_columns()):
            assert _bits(got) == _bits(want)
    assert built == []
    assert list(clone.summaries) == list(result.summaries)


def test_summaries_survive_a_released_workload():
    """The memoized base trace keeps no job after any read: each pass
    over it builds its jobs again.  A result read after such passes
    rebuilds identical summaries and attempt records, and counting them
    builds neither."""
    clear_materialization_caches()
    try:
        workload = WorkloadSpec(n_jobs=400, seed=3).materialize()
        result = simulate(workload, paper_cluster(24.0), SuccessiveApproximation())
        twin = scalar_run(workload, paper_cluster(24.0), SuccessiveApproximation())
        with jobs_built() as jobs:
            assert list(workload) == list(workload)
        assert sum(jobs) == 2 * len(workload)
        with records_built() as built:
            assert len(result.summaries) == result.n_jobs
            assert len(result.attempts) == result.n_attempts > 0
            assert result.n_attempts == twin.n_attempts
        assert built == []
        assert_fingerprint_keeps_nothing(result, twin)
        assert result.summaries == twin.summaries
        assert result.attempts == twin.attempts
    finally:
        clear_materialization_caches()


@pytest.mark.parametrize("estimator", [
    EstimatorSpec(name="none"),
    EstimatorSpec.make("successive", alpha=2.0, beta=0.0),
])
def test_a_sweep_point_builds_no_job_objects(estimator):
    spec = RunSpec(
        workload=WorkloadSpec(n_jobs=600, seed=3, load=0.9),
        cluster=ClusterSpec(second_tier_mem=24.0),
        estimator=estimator,
        seed=3,
    )
    clear_materialization_caches()
    try:
        with jobs_built() as built:
            outcome = execute_spec(spec)
            assert outcome.ok, outcome.error
            assert built == [], "the run built Job objects"
            assert spec_memo._BASE_WORKLOADS

            with records_built() as records:
                result = simulate(
                    spec.workload.materialize(), spec.cluster.materialize(),
                    spec.estimator.materialize(), seed=spec.seed,
                    collect_attempts=False,
                )
                assert len(result.summaries) == result.n_jobs > 0
            assert records == []
        assert built == []
        assert outcome.point == simulate_spec(spec)
    finally:
        clear_materialization_caches()
