"""The fast lane with node faults (:mod:`repro.sim.fault_lane`).

A faulted configuration rides the fast lane like any other: failure and
repair events share the lane's heap with completions, a busy victim's
execution is killed and requeued at the head, and every fault draw goes
through the same :class:`~repro.sim.faults.NodeFaultInjector` methods the
scalar engine calls.  Each test compares against an explicit scalar
``Simulation`` (``scalar_run``), never ``simulate``, which may itself take
the fast lane: the result's fingerprint and the state the run leaves in
the estimator must match bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, paper_cluster
from repro.core import (
    LastInstance,
    NoEstimation,
    RegressionEstimator,
    ReinforcementLearning,
    SuccessiveApproximation,
)
from repro.sim import FaultConfig, Simulation, batch, simulate
from repro.sim.batch import BatchConfig, fast_lane_eligible, simulate_batch
from repro.sim.failure import FailureModel
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.workload import (
    Workload,
    drop_full_machine_jobs,
    lanl_cm5_like,
    scale_load,
)

from tests.conftest import make_job
from tests.learned_state import learned_state
from tests.obs.test_event_sequence import ScriptedInjector
from tests.sim.engine_reference import scalar_run
from tests.sim.test_batch import (
    _assert_accounting_invariants,
    _diff_cluster,
    _diff_traces,
    _protocol_state,
    _spy_on_simulate_batch,
)

#: Estimators of the differential: no estimation and default-keyed
#: successive approximation run inlined, the rest in protocol mode.
_ESTIMATORS = {
    "none": NoEstimation,
    "successive": SuccessiveApproximation,
    "successive-decay": lambda: SuccessiveApproximation(
        alpha=3.0, beta=0.5, mixed_group_threshold=2
    ),
    "last-instance": LastInstance,
    "rl": lambda: ReinforcementLearning(rng=5),
    # Few samples, so the model estimates within a small trace.
    "regression": lambda: RegressionEstimator(min_samples=3),
}


def _state(est):
    """What a run leaves in the estimator, learned state included."""
    if isinstance(est, NoEstimation):
        return None
    learned = None
    if not isinstance(est, ReinforcementLearning):
        learned = learned_state(est)
    return learned, _protocol_state(est)


@st.composite
def _fault_configs(draw):
    """Node faults on the 8-node differential cluster: a failure event
    every 25 s to 20 min, each a single node or a burst of up to 3.  The
    repair time is tied to the MTBF so that at most 1.5 nodes are down on
    average: the cluster is whole often enough that a job needing every
    node still starts soon."""
    mtbf = draw(st.sampled_from((200.0, 1.0e3, 1.0e4)))
    down_share = draw(st.sampled_from((0.02, 0.1, 0.5)))
    return FaultConfig(
        node_mtbf=mtbf,
        node_mttr=mtbf * down_share / 8,
        burst_size=draw(st.sampled_from((1, 2, 3))),
        burst_prob=draw(st.sampled_from((0.0, 0.5, 1.0))),
    )


#: (policy, strategy, estimator, seed, spurious, faults, collect attempts).
_fault_cases = st.tuples(
    st.sampled_from((Fcfs, ShortestJobFirst, EasyBackfilling)),
    st.sampled_from(("best_fit", "first_fit")),
    st.sampled_from(sorted(_ESTIMATORS)),
    st.integers(0, 3),
    st.sampled_from((0.0, 0.01, 0.2)),
    _fault_configs(),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(_diff_traces(), st.lists(_fault_cases, min_size=1, max_size=3))
def test_faulted_lanes_match_scalar_engine(workload, cases):
    """Every faulted fast-lane config, batched K=1..3 over a generated
    trace: fingerprint equal to its own scalar run, the estimator left in
    the same state (RNG included), and the §3.1 accounting invariants
    hold."""
    configs = [
        BatchConfig(
            cluster=_diff_cluster(strategy),
            estimator=_ESTIMATORS[name](),
            policy=policy(),
            seed=seed,
            spurious_failure_prob=spurious,
            fault_config=faults,
            collect_attempts=collect,
        )
        for policy, strategy, name, seed, spurious, faults, collect in cases
    ]
    assert all(fast_lane_eligible(config) for config in configs)
    results = simulate_batch(workload, configs)
    for case, config, result in zip(cases, configs, results):
        policy, strategy, name = case[:3]
        scalar_est = _ESTIMATORS[name]()
        scalar = scalar_run(
            workload,
            _diff_cluster(strategy),
            estimator=scalar_est,
            policy=policy(),
            seed=config.seed,
            spurious_failure_prob=config.spurious_failure_prob,
            fault_config=config.fault_config,
            collect_attempts=config.collect_attempts,
        )
        assert result.fingerprint() == scalar.fingerprint(), case
        assert _state(config.estimator) == _state(scalar_est), case
        if config.collect_attempts:
            _assert_accounting_invariants(workload, result)


@pytest.fixture(scope="module")
def workload():
    return scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=500, seed=3)), 0.8
    )


@pytest.mark.parametrize("policy", [Fcfs, ShortestJobFirst, EasyBackfilling])
@pytest.mark.parametrize("name", ["successive", "last-instance", "rl"])
@pytest.mark.parametrize("strategy", ["best_fit", "first_fit"])
def test_bursty_faults_on_the_paper_cluster(workload, policy, name, strategy):
    """Frequent correlated bursts on the Figure 5 cluster kill many
    executions; the lane matches the scalar engine and its estimator."""
    faults = FaultConfig(node_mtbf=2.0e6, node_mttr=3600.0, burst_size=4,
                         burst_prob=0.5)
    lane_est = _ESTIMATORS[name]()
    config = BatchConfig(
        cluster=paper_cluster(24.0, strategy=strategy), estimator=lane_est,
        policy=policy(), seed=1, spurious_failure_prob=0.01,
        fault_config=faults,
    )
    assert fast_lane_eligible(config)
    (result,) = simulate_batch(workload, [config])
    scalar_est = _ESTIMATORS[name]()
    scalar = scalar_run(
        workload, paper_cluster(24.0, strategy=strategy), scalar_est,
        policy(), seed=1, spurious_failure_prob=0.01, fault_config=faults,
    )
    assert result.n_fault_kills > 10
    assert result.fingerprint() == scalar.fingerprint()
    assert _state(lane_est) == _state(scalar_est)


def test_simulate_runs_faults_on_the_fast_lane(monkeypatch, workload):
    calls = _spy_on_simulate_batch(monkeypatch)
    faults = FaultConfig(node_mtbf=5.0e5, node_mttr=3600.0)
    result = simulate(workload, paper_cluster(24.0), SuccessiveApproximation(),
                      fault_config=faults)
    assert calls == [1]
    assert result.n_node_failures > 0
    assert result.fingerprint() == scalar_run(
        workload, paper_cluster(24.0), SuccessiveApproximation(),
        fault_config=faults,
    ).fingerprint()


@pytest.mark.parametrize("burst_size", [1, 3])
def test_failure_after_the_last_completion_still_counts(burst_size):
    """The heap drains to empty: the first failure, drawn when the trace
    starts, fires long after its only job completed.  It still fails its
    nodes (counted, with no downtime inside the trace), and schedules no
    further failure."""
    workload = Workload(
        [make_job(job_id=1, submit_time=0.0, run_time=10.0, procs=1,
                  req_mem=32.0, used_mem=8.0)],
        total_nodes=1024, node_mem=32.0,
    )
    faults = FaultConfig(node_mtbf=1.0e9, node_mttr=60.0,
                         burst_size=burst_size, burst_prob=1.0)
    result = simulate(workload, paper_cluster(24.0), fault_config=faults)
    assert result.n_node_failures == burst_size
    assert result.n_fault_kills == 0
    assert result.node_downtime_seconds == 0.0
    assert result.fingerprint() == scalar_run(
        workload, paper_cluster(24.0), fault_config=faults
    ).fingerprint()


def test_killed_attempts_are_recorded_like_the_scalar_engine(workload):
    """A kill is a failed attempt that is neither resource-related nor
    spurious: its record, the job's wasted node-seconds and the counters
    all match the scalar engine's, record for record."""
    faults = FaultConfig(node_mtbf=2.0e6, node_mttr=3600.0)
    (result,) = simulate_batch(workload, [BatchConfig(
        cluster=paper_cluster(24.0), estimator=SuccessiveApproximation(),
        fault_config=faults,
    )])
    scalar = scalar_run(workload, paper_cluster(24.0),
                        SuccessiveApproximation(), fault_config=faults)
    assert result.n_fault_kills > 0
    assert list(result.attempts) == scalar.attempts
    assert list(result.summaries) == scalar.summaries
    killed = [a for a in result.attempts
              if not a.succeeded and not a.resource_failure]
    assert len(killed) == result.n_fault_kills + result.n_spurious_failures


def _tie_case(name):
    """Events that share an instant with an arrival, from a scripted
    injector (one failure, a fixed repair time and level, no RNG): the
    order the scalar heap gives them decides the outcome."""
    if name == "failure-after-arrival":
        # B arrives at t=20, when the failure fires: the arrival comes
        # first, so B has started and the failure kills it.
        jobs = [
            make_job(job_id=1, submit_time=0.0, run_time=10.0, procs=1,
                     req_mem=32.0, used_mem=8.0),
            make_job(job_id=2, submit_time=20.0, run_time=10.0, procs=1,
                     req_mem=32.0, used_mem=8.0),
        ]
        return (jobs, Cluster([(1, 32.0)]), Fcfs,
                ScriptedInjector(fire_after=20.0, repair=5.0, level=32.0))
    # "repair-before-arrival": H is killed at t=50 and waits for both
    # nodes; the repair at t=100 comes before B's arrival, so H starts
    # rather than B backfilling onto the free 16 MB node.
    jobs = [
        make_job(job_id=1, submit_time=0.0, run_time=1000.0, procs=2,
                 req_mem=16.0, used_mem=8.0, req_time=1000.0),
        make_job(job_id=2, submit_time=100.0, run_time=1000.0, procs=1,
                 req_mem=16.0, used_mem=8.0, req_time=1000.0),
    ]
    return (jobs, Cluster([(1, 32.0), (1, 16.0)]), EasyBackfilling,
            ScriptedInjector(fire_after=50.0, repair=50.0, level=32.0))


@pytest.mark.parametrize("name", ["failure-after-arrival",
                                  "repair-before-arrival"])
def test_same_instant_events_keep_the_scalar_order(monkeypatch, name):
    jobs, cluster, policy, injector = _tie_case(name)
    workload = Workload(jobs, total_nodes=cluster.total_nodes, node_mem=32.0)
    scalar = Simulation(
        workload, cluster, policy=policy(),
        failure_model=FailureModel(rng=0), fault_injector=injector,
    ).run()
    monkeypatch.setattr(batch, "NodeFaultInjector",
                        lambda config, rng: _tie_case(name)[3])
    config = BatchConfig(cluster=cluster, policy=policy(),
                         fault_config=FaultConfig(node_mtbf=1e6))
    assert fast_lane_eligible(config)
    (lane,) = simulate_batch(workload, [config])
    assert lane.fingerprint() == scalar.fingerprint()
    assert scalar.n_fault_kills == 1
    first, second = sorted(scalar.summaries, key=lambda s: s.job.job_id)
    if name == "failure-after-arrival":
        assert second.n_attempts == 2  # started at 20, killed at 20
    else:
        assert (first.start_time, second.start_time) == (100.0, 1100.0)
