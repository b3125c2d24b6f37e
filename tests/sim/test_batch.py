"""Unit tests for the batched engine (:mod:`repro.sim.batch`).

The fingerprint suite (``test_engine_fingerprints.py``) pins the batched
engine to the recorded reference digests; these tests cover the rest of the
contract: scalar parity across estimator families and K widths, lane
routing, lanes sharing one cluster, attempt-collection modes, the
``JobColumns`` edge cases (empty traces, zero-runtime jobs) flowing through
the batched path, a randomized differential test of every
fast-lane-eligible configuration against the scalar engine (also at
denormal, huge and overflowing times),
:func:`repro.sim.engine.simulate`'s dispatch onto the fast lane — including
the learned state it leaves in the caller's estimator — and the protocol
mode that runs every other estimator on the fast lane: its estimator call
sequence, results and post-run estimator state against the scalar
engine's.  Every comparison is against an explicit scalar ``Simulation``
run (``scalar_run``), never ``simulate``, which may itself take the fast
lane.
"""

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, paper_cluster
from repro.core import (
    HybridEstimator,
    LastInstance,
    NoEstimation,
    OnlineSimilarityEstimator,
    OracleEstimator,
    RegressionEstimator,
    ReinforcementLearning,
    RobustLineSearch,
    SuccessiveApproximation,
)
from repro.core import persistence
from repro.core.base import Estimator
from repro.similarity.keys import by_user_app
from repro.sim import FaultConfig, simulate
from repro.sim.batch import (
    BatchConfig,
    fast_lane_eligible,
    seed_arrival_caches,
    seed_group_arrays,
    simulate_batch,
    _SharedTrace,
)
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.workload import (
    Job,
    Workload,
    drop_full_machine_jobs,
    lanl_cm5_like,
    scale_load,
)
from repro.workload.columns import JobColumns

from tests.sim.engine_reference import scalar_run


@pytest.fixture(scope="module")
def workload():
    return scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=500, seed=3)), 0.8
    )


def scalar_fingerprint(workload, collect_attempts=True, **kwargs):
    return scalar_run(
        workload, paper_cluster(24.0), collect_attempts=collect_attempts,
        **kwargs
    ).fingerprint()


def test_empty_config_list(workload):
    assert simulate_batch(workload, []) == []


def test_mixed_estimators_match_scalar(workload):
    """Four estimator families in one batch — NoEstimation and
    SuccessiveApproximation ride the fast lane inlined, Oracle and
    LastInstance in protocol mode — each lane bit-identical to its scalar
    run."""
    factories = [
        NoEstimation,
        SuccessiveApproximation,
        OracleEstimator,
        LastInstance,
    ]
    configs = [
        BatchConfig(cluster=paper_cluster(24.0), estimator=factory())
        for factory in factories
    ]
    results = simulate_batch(workload, configs)
    for factory, result in zip(factories, results):
        assert result.fingerprint() == scalar_fingerprint(
            workload, estimator=factory()
        ), f"estimator {factory.__name__} diverged in a mixed batch"


def test_mixed_policies_match_scalar(workload):
    policies = [Fcfs, ShortestJobFirst, EasyBackfilling]
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            policy=policy(),
        )
        for policy in policies
    ]
    results = simulate_batch(workload, configs)
    for policy, result in zip(policies, results):
        assert result.fingerprint() == scalar_fingerprint(
            workload, estimator=SuccessiveApproximation(), policy=policy()
        ), f"policy {policy.__name__} diverged in a mixed batch"


def test_faults_and_spurious_in_one_batch(workload):
    """Faulted and fault-free lanes advance together without perturbing
    each other's RNG streams."""
    faults = FaultConfig(node_mtbf=5.0e5, node_mttr=3600.0)
    configs = [
        BatchConfig(cluster=paper_cluster(24.0), estimator=NoEstimation()),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=NoEstimation(),
            fault_config=faults,
            spurious_failure_prob=0.01,
        ),
    ]
    results = simulate_batch(workload, configs)
    assert results[0].fingerprint() == scalar_fingerprint(
        workload, estimator=NoEstimation()
    )
    assert results[1].fingerprint() == scalar_fingerprint(
        workload,
        estimator=NoEstimation(),
        fault_config=faults,
        spurious_failure_prob=0.01,
    )
    assert results[1].n_node_failures > 0  # the fault lane did inject


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_lane_widths_match_scalar(workload, k):
    """K successive lanes with diverging alphas, each equal to its scalar
    twin — width never changes any lane's result."""
    alphas = [2.0, 1.5, 2.5, 3.0, 1.75, 2.25, 2.75, 4.0][:k]
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(alpha=alpha),
        )
        for alpha in alphas
    ]
    results = simulate_batch(workload, configs)
    for alpha, result in zip(alphas, results):
        assert result.fingerprint() == scalar_fingerprint(
            workload, estimator=SuccessiveApproximation(alpha=alpha)
        ), f"alpha={alpha} lane diverged at K={k}"


def test_collect_attempts_off_matches_scalar(workload):
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            collect_attempts=False,
        ),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            policy=ShortestJobFirst(),
            collect_attempts=False,
        ),
    ]
    results = simulate_batch(workload, configs)
    assert results[0].attempts == []
    assert results[1].attempts == []
    assert results[0].fingerprint() == scalar_fingerprint(
        workload, collect_attempts=False, estimator=SuccessiveApproximation()
    )
    assert results[1].fingerprint() == scalar_fingerprint(
        workload,
        collect_attempts=False,
        estimator=SuccessiveApproximation(),
        policy=ShortestJobFirst(),
    )


@pytest.mark.parametrize("policy_factory", [ShortestJobFirst, EasyBackfilling])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_widened_policy_lanes_match_scalar(workload, policy_factory, k):
    """SJF/backfilling lanes (fast since PR 10) at K=1..8 with diverging
    alphas — each bit-identical to its scalar twin, attempts collected."""
    alphas = [2.0, 1.5, 2.5, 3.0, 1.75, 2.25, 2.75, 4.0][:k]
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(alpha=alpha),
            policy=policy_factory(),
        )
        for alpha in alphas
    ]
    results = simulate_batch(workload, configs)
    for alpha, result in zip(alphas, results):
        assert result.fingerprint() == scalar_fingerprint(
            workload,
            estimator=SuccessiveApproximation(alpha=alpha),
            policy=policy_factory(),
        ), f"alpha={alpha} {policy_factory.__name__} lane diverged at K={k}"


@pytest.mark.parametrize(
    "estimator_factory", [NoEstimation, SuccessiveApproximation]
)
def test_first_fit_lanes_match_scalar(workload, estimator_factory):
    """first_fit clusters ride the fast lane via the tabulated fill order
    (declaration order filtered to eligible levels)."""
    def cluster():
        return paper_cluster(24.0, strategy="first_fit")

    configs = [
        BatchConfig(cluster=cluster(), estimator=estimator_factory()),
        BatchConfig(
            cluster=cluster(),
            estimator=estimator_factory(),
            policy=EasyBackfilling(),
        ),
    ]
    results = simulate_batch(workload, configs)
    assert results[0].fingerprint() == scalar_run(
        workload, cluster(), estimator=estimator_factory()
    ).fingerprint()
    assert results[1].fingerprint() == scalar_run(
        workload, cluster(), estimator=estimator_factory(),
        policy=EasyBackfilling(),
    ).fingerprint()


def test_per_lane_collect_attempts_override(workload):
    """``BatchConfig.collect_attempts`` is per lane (default on, like
    :func:`simulate`) and never perturbs results."""
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            collect_attempts=True,
        ),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            policy=ShortestJobFirst(),
            collect_attempts=False,
        ),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
        ),
    ]
    results = simulate_batch(workload, configs)
    assert results[0].attempts != []
    assert results[1].attempts == []
    assert results[2].attempts == results[0].attempts  # default: collect
    assert results[0].fingerprint() == scalar_fingerprint(
        workload, estimator=SuccessiveApproximation()
    )
    assert results[2].fingerprint() == results[0].fingerprint()
    assert results[1].fingerprint() == scalar_fingerprint(
        workload,
        collect_attempts=False,
        estimator=SuccessiveApproximation(),
        policy=ShortestJobFirst(),
    )


def test_mixed_fast_and_engine_lanes_coexist(workload):
    """One batch spanning the fast lane's estimation modes — inlined
    successive approximation under SJF and backfilling next to protocol-mode
    lanes (oracle, last-instance) — every lane bit-identical to scalar."""
    cases = [
        dict(estimator=SuccessiveApproximation(), policy=ShortestJobFirst()),
        dict(estimator=OracleEstimator()),  # protocol mode
        dict(estimator=SuccessiveApproximation(), policy=EasyBackfilling()),
        dict(estimator=LastInstance(), policy=EasyBackfilling()),  # protocol
    ]
    configs = [
        BatchConfig(cluster=paper_cluster(24.0), **case) for case in cases
    ]
    results = simulate_batch(workload, configs)
    for case, result in zip(cases, results):
        expected = scalar_fingerprint(
            workload,
            estimator=type(case["estimator"])(),
            **({"policy": type(case["policy"])()} if "policy" in case else {}),
        )
        assert result.fingerprint() == expected, f"{case} diverged"


def test_engine_lanes_sharing_one_cluster_match_scalar(workload):
    """Lanes handed the *same* cluster instance (the memoized
    ``ClusterSpec.materialize`` does this) run one after another — results
    identical to fresh-cluster runs.  Despite the test's name, these oracle
    lanes run on the fast lane in protocol mode, which only reads the
    cluster's inventory."""
    shared = paper_cluster(24.0)
    configs = [
        BatchConfig(
            cluster=shared,
            estimator=OracleEstimator(),  # a protocol-mode fast lane
            policy=ShortestJobFirst(),
        )
        for _ in range(2)
    ]
    results = simulate_batch(workload, configs)
    expected = scalar_fingerprint(
        workload,
        estimator=OracleEstimator(),
        policy=ShortestJobFirst(),
    )
    assert results[0].fingerprint() == expected
    assert results[1].fingerprint() == expected


class _UnknownFcfs(Fcfs):
    """A policy subclass the fast lane cannot know the behavior of."""


def test_fast_lane_routing():
    cluster = paper_cluster(24.0)
    assert fast_lane_eligible(BatchConfig(cluster=cluster))
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, estimator=NoEstimation())
    )
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, estimator=SuccessiveApproximation())
    )
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, spurious_failure_prob=0.01)
    )
    # PR 10 widened the lane: SJF, EASY backfilling and first_fit ride it.
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, policy=ShortestJobFirst())
    )
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, policy=EasyBackfilling())
    )
    assert fast_lane_eligible(
        BatchConfig(
            cluster=paper_cluster(24.0, strategy="first_fit"),
            estimator=SuccessiveApproximation(),
        )
    )
    # Any other estimator rides the fast lane in protocol mode.
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, estimator=OracleEstimator())
    )
    assert fast_lane_eligible(
        BatchConfig(
            cluster=cluster,
            estimator=SuccessiveApproximation(record_trajectories=True),
        )
    )
    assert fast_lane_eligible(
        BatchConfig(
            cluster=cluster,
            estimator=SuccessiveApproximation(key_fn=by_user_app),
            policy=EasyBackfilling(),
        )
    )
    # Everything the fast lane does not model must fall to the engine lane,
    # whatever the estimator.
    for estimator in (None, SuccessiveApproximation(), LastInstance()):
        assert not fast_lane_eligible(
            BatchConfig(cluster=paper_cluster(24.0, strategy="worst_fit"),
                        estimator=estimator)
        )
        assert not fast_lane_eligible(
            BatchConfig(cluster=cluster, estimator=estimator,
                        record_timeline=True)
        )
        assert not fast_lane_eligible(
            BatchConfig(cluster=cluster, estimator=estimator,
                        observer=object())
        )
        assert not fast_lane_eligible(
            BatchConfig(
                cluster=cluster,
                estimator=estimator,
                fault_config=FaultConfig(node_mtbf=1e6, node_mttr=3600.0),
            )
        )
        assert not fast_lane_eligible(
            BatchConfig(cluster=cluster, estimator=estimator,
                        policy=_UnknownFcfs())
        )



def test_seed_group_arrays_shapes():
    """A lane seeds Algorithm 1's group state in closed form (lines 3-4:
    ``E_i = R``, ``alpha_i = alpha``, kept verbatim) and its arrival cache
    with a fresh group's first estimate: the request, its ladder index and
    no probe.  Pinned per group against a freshly bound scalar estimator,
    for requests on a level, between levels and above the top level."""
    reqs = [8.0, 12.0, 16.0, 24.0, 32.0, 40.0]
    jobs = [
        Job(i, float(i), 10.0, 1, req, req / 2, user_id=i % 4)
        for i, req in enumerate(reqs * 4)
    ]
    trace = _SharedTrace(Workload(jobs, total_nodes=1024, node_mem=32.0))
    gid, _ = trace.group_info()
    first = {}
    for row, g in enumerate(gid):
        first.setdefault(g, jobs[row])
    clusters = [paper_cluster(m) for m in (8.0, 16.0, 24.0)] + [
        Cluster([(512, 32.0), (256, 12.0), (256, 24.0)], strategy="first_fit")
    ]
    for cluster in clusters:
        levels = cluster.ladder.levels
        for probing in (True, False):
            for alpha in (2, 3.5):
                est, alphas, greq = seed_group_arrays(trace, alpha)
                cache = seed_arrival_caches(
                    greq, trace.group_req_indices(levels)
                )
                assert all(len(col) == len(first) for col in (est, alphas, greq))
                assert all(len(col) == len(first) for col in cache)
                scalar = SuccessiveApproximation(
                    alpha=alpha, serial_probing=probing
                )
                scalar.bind(cluster.ladder)
                for g, job in first.items():
                    e = scalar.estimate(job, attempt=0)
                    assert tuple(col[g] for col in cache) == (
                        e, bisect_left(levels, e), -1.0, 0
                    )
                    state = scalar.group_state_for(job)
                    assert (est[g], alphas[g], greq[g]) == (
                        state.estimate, state.alpha, state.request
                    )
                    assert type(alphas[g]) is type(state.alpha)
                    assert state.probe is None


# ------------------------------------------------------- JobColumns edges
def test_empty_workload_through_batched_path():
    empty = Workload(jobs=[], total_nodes=1024, node_mem=32.0, name="empty")
    configs = [
        BatchConfig(cluster=paper_cluster(24.0), estimator=NoEstimation()),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            policy=ShortestJobFirst(),
        ),
    ]
    results = simulate_batch(empty, configs)
    for result in results:
        assert result.n_jobs == 0
        assert result.summaries == []
        assert result.attempts == []
    assert results[0].fingerprint() == scalar_fingerprint(
        empty, estimator=NoEstimation()
    )
    assert results[1].fingerprint() == scalar_fingerprint(
        empty,
        estimator=SuccessiveApproximation(),
        policy=ShortestJobFirst(),
    )


def _zero_runtime_workload():
    """Three jobs, the middle one with a zero-second recorded runtime (real
    traces truncate sub-second jobs) — only constructible unvalidated, via
    the columnar backing."""
    n = 3
    cols = JobColumns(
        job_id=np.arange(1, n + 1),
        submit_time=np.array([0.0, 10.0, 20.0]),
        run_time=np.array([100.0, 0.0, 50.0]),
        procs=np.array([2, 1, 3]),
        req_mem=np.array([10.0, 8.0, 16.0]),
        used_mem=np.array([6.0, 4.0, 12.0]),
        req_time=np.full(n, 100.0),
        user_id=np.zeros(n, dtype=np.int64),
        group_id=np.zeros(n, dtype=np.int64),
        app_id=np.zeros(n, dtype=np.int64),
        status=np.ones(n, dtype=np.int64),
    )
    return Workload.from_columns(
        cols, total_nodes=1024, node_mem=32.0, name="zero-runtime"
    )


@pytest.mark.parametrize(
    "estimator_factory", [NoEstimation, SuccessiveApproximation]
)
def test_zero_runtime_jobs_through_batched_path(estimator_factory):
    """A zero-runtime job completes instantly in both engines and lands the
    unbounded-slowdown rule (slowdown = inf) identically."""
    workload = _zero_runtime_workload()
    config = BatchConfig(
        cluster=paper_cluster(24.0), estimator=estimator_factory()
    )
    result = simulate_batch(workload, [config])[0]
    assert result.fingerprint() == scalar_fingerprint(
        workload, estimator=estimator_factory()
    )
    assert result.n_jobs == 3
    slowdowns = result.slowdowns()
    assert np.isinf(slowdowns).sum() == 1  # exactly the zero-runtime job
    assert math.isinf(slowdowns.max())


# ------------------------------------------- differential: fast vs scalar
#: Per-node memory tiers of the differential cluster.  Requests of 48 sit
#: above every tier, and jobs wider than the 8 nodes can never fit: both
#: get rejected unless an estimate brings them within reach.
_DIFF_TIERS = ((4, 32.0), (4, 16.0))
_DIFF_REQ_MEM = (8.0, 12.0, 16.0, 24.0, 32.0, 48.0)


#: Submit gaps and run times of the differential traces.
_DIFF_GAPS = (0.0, 0.0, 1.0, 5.0, 40.0)
_DIFF_RUN_TIMES = (0.0, 1.0, 7.5, 30.0, 120.0)

#: Extreme times: denormals, the smallest normal, huge values, and values
#: whose sums lose the small term or overflow to infinity.
_EXTREME_TIMES = (
    0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e15,
    1e300, 1e308, 1.7e308,
)


@st.composite
def _diff_traces(draw, gaps=_DIFF_GAPS, run_times=_DIFF_RUN_TIMES):
    """Small columnar traces with same-instant ties, zero run times and
    over-tier requests; submit gaps and run times drawn from the given
    pools."""
    n = draw(st.integers(1, 24))
    gaps = draw(st.lists(st.sampled_from(gaps), min_size=n, max_size=n))
    run_time = draw(st.lists(st.sampled_from(run_times),
                             min_size=n, max_size=n))
    procs = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    req_mem = draw(st.lists(st.sampled_from(_DIFF_REQ_MEM),
                            min_size=n, max_size=n))
    used_frac = draw(st.lists(st.sampled_from((0.1, 0.3, 0.5, 0.75, 1.0)),
                              min_size=n, max_size=n))
    user_id = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    req = np.array(req_mem)
    with np.errstate(over="ignore"):  # extreme gaps may sum past the range
        submit_time = np.cumsum(gaps)
    cols = JobColumns(
        job_id=np.arange(1, n + 1),
        submit_time=submit_time,
        run_time=np.array(run_time),
        procs=np.array(procs),
        req_mem=req,
        used_mem=req * np.array(used_frac),
        req_time=np.full(n, 100.0),
        user_id=np.array(user_id),
        group_id=np.zeros(n, dtype=np.int64),
        app_id=np.zeros(n, dtype=np.int64),
        status=np.ones(n, dtype=np.int64),
    )
    return Workload.from_columns(
        cols, total_nodes=8, node_mem=32.0, name="differential"
    )


#: (policy, strategy, estimator kwargs or None, seed, spurious probability);
#: ``None`` is NoEstimation, else SuccessiveApproximation(**kwargs).
_diff_configs = st.tuples(
    st.sampled_from((Fcfs, ShortestJobFirst, EasyBackfilling)),
    st.sampled_from(("best_fit", "first_fit")),
    st.one_of(
        st.none(),
        st.fixed_dictionaries({
            "alpha": st.sampled_from((1.25, 1.5, 2.0, 3.0, 8.0)),
            "beta": st.sampled_from((0.0, 0.25, 0.5, 0.9)),
            "serial_probing": st.booleans(),
            "explicit_guard": st.booleans(),
            "max_reduced_attempts": st.integers(1, 3),
            "mixed_group_threshold": st.sampled_from((0, 3)),
        }),
    ),
    st.integers(0, 3),
    st.sampled_from((0.0, 0.0, 0.2)),
)


def _diff_cluster(strategy):
    return Cluster(list(_DIFF_TIERS), strategy=strategy, name="diff")


def _diff_estimator(kwargs):
    if kwargs is None:
        return NoEstimation()
    return SuccessiveApproximation(**kwargs)


@settings(max_examples=150, deadline=None)
@given(_diff_traces(), st.lists(_diff_configs, min_size=1, max_size=4))
def test_fast_lanes_match_scalar_engine(workload, cases):
    """Every fast-lane-eligible config, batched K=1..4 over a generated
    trace, fingerprints equal to its own scalar ``Simulation`` run — and
    both runs satisfy the §3.1 accounting invariants."""
    configs = [
        BatchConfig(
            cluster=_diff_cluster(strategy),
            estimator=_diff_estimator(est),
            policy=policy(),
            seed=seed,
            spurious_failure_prob=spurious,
        )
        for policy, strategy, est, seed, spurious in cases
    ]
    assert all(fast_lane_eligible(config) for config in configs)
    results = simulate_batch(workload, configs)
    for (policy, strategy, est, seed, spurious), result in zip(cases, results):
        scalar = scalar_run(
            workload,
            _diff_cluster(strategy),
            estimator=_diff_estimator(est),
            policy=policy(),
            seed=seed,
            spurious_failure_prob=spurious,
        )
        assert result.fingerprint() == scalar.fingerprint()
        _assert_accounting_invariants(workload, scalar)


@settings(max_examples=150, deadline=None)
@given(
    _diff_traces(gaps=_EXTREME_TIMES, run_times=_EXTREME_TIMES),
    st.lists(_diff_configs, min_size=1, max_size=4),
)
def test_fast_lanes_match_scalar_engine_at_extreme_times(workload, cases):
    """Denormal, huge and mixed-magnitude submit and run times: every
    fast-lane config agrees with its scalar run on the fingerprint and the
    §3.1 invariants, or both raise the same non-finite-time
    ``ValueError``; batched, the first such lane's error is raised."""
    def config(policy, strategy, est, seed, spurious):
        return BatchConfig(
            cluster=_diff_cluster(strategy),
            estimator=_diff_estimator(est),
            policy=policy(),
            seed=seed,
            spurious_failure_prob=spurious,
        )

    expected = []
    for policy, strategy, est, seed, spurious in cases:
        lane = config(policy, strategy, est, seed, spurious)
        assert fast_lane_eligible(lane)
        try:
            scalar = scalar_run(
                workload,
                _diff_cluster(strategy),
                estimator=_diff_estimator(est),
                policy=policy(),
                seed=seed,
                spurious_failure_prob=spurious,
            )
        except ValueError as exc:
            assert str(exc).startswith("event time must be finite"), exc
            with pytest.raises(ValueError) as fast_exc:
                simulate_batch(workload, [lane])
            assert str(fast_exc.value) == str(exc)
            expected.append(str(exc))
            continue
        fast = simulate_batch(workload, [lane])[0]
        assert fast.fingerprint() == scalar.fingerprint()
        _assert_extreme_accounting_invariants(workload, scalar)
        expected.append(scalar.fingerprint())
    errors = [e for e in expected if e.startswith("event time")]
    try:
        results = simulate_batch(workload, [config(*case) for case in cases])
    except ValueError as exc:
        assert errors and str(exc) == errors[0]
    else:
        assert not errors
        assert [result.fingerprint() for result in results] == expected


@pytest.mark.parametrize("lane", [
    pytest.param(dict(estimator=NoEstimation()), id="fast-none"),
    pytest.param(dict(estimator=SuccessiveApproximation()), id="fast-successive"),
    pytest.param(dict(estimator=LastInstance()), id="fast-protocol"),
    pytest.param(dict(estimator=NoEstimation(), strategy="worst_fit"),
                 id="engine"),
])
def test_infinite_submit_time_refused_like_the_scalar_engine(lane):
    """The scalar engine refuses an infinite arrival time when it schedules
    the arrivals, even for a job that would never start; every lane kind
    refuses it with the same error."""
    cols = JobColumns(
        job_id=np.arange(1, 3),
        submit_time=np.array([0.0, math.inf]),
        run_time=np.array([10.0, 10.0]),
        procs=np.array([1, 10]),  # the second job never fits: rejected
        req_mem=np.array([16.0, 16.0]),
        used_mem=np.array([8.0, 8.0]),
        req_time=np.full(2, 100.0),
        user_id=np.zeros(2, dtype=np.int64),
        group_id=np.zeros(2, dtype=np.int64),
        app_id=np.zeros(2, dtype=np.int64),
        status=np.ones(2, dtype=np.int64),
    )
    workload = Workload.from_columns(cols, total_nodes=8, node_mem=32.0)
    strategy = lane.get("strategy", "best_fit")
    estimator = lane["estimator"]
    config = BatchConfig(cluster=_diff_cluster(strategy), estimator=estimator)
    assert fast_lane_eligible(config) == (strategy == "best_fit")
    message = "event time must be finite, got inf"
    with pytest.raises(ValueError, match=message):
        scalar_run(workload, _diff_cluster(strategy),
                   estimator=type(estimator)())
    with pytest.raises(ValueError, match=message):
        simulate_batch(workload, [config])


def _node_seconds(values):
    """Exact sum of non-negative node-seconds; ``inf`` past the float
    range, where the engines' running sums overflow too."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _assert_extreme_accounting_invariants(workload, result):
    """§3.1 at extreme magnitudes.  A run time can vanish in the rounding
    of its start time, so the node-second sums are checked against the
    simulated durations (end minus start), and each completed job's end
    against its start plus its run time, as one float sum."""
    completed = [s for s in result.summaries if s.completed]
    assert len(completed) + len(result.rejected_jobs) == len(workload)
    for s in completed:
        assert s.end_time == s.start_time + s.job.run_time
    useful = _node_seconds(
        (s.end_time - s.start_time) * s.job.procs for s in completed
    )
    assert math.isclose(result.useful_node_seconds, useful, rel_tol=1e-9)
    wasted = _node_seconds(
        (a.end_time - a.start_time) * a.procs
        for a in result.attempts
        if not a.succeeded
    )
    assert math.isclose(result.wasted_node_seconds, wasted, rel_tol=1e-9)


def _assert_accounting_invariants(workload, result):
    """§3.1: every job either completes or is rejected; useful node-seconds
    are the completed jobs' run time x procs; wasted node-seconds are the
    sum over failed attempts."""
    completed = [s for s in result.summaries if s.completed]
    assert len(completed) + len(result.rejected_jobs) == len(workload)
    useful = math.fsum(s.job.run_time * s.job.procs for s in completed)
    assert math.isclose(
        result.useful_node_seconds, useful, rel_tol=1e-9, abs_tol=1e-9
    )
    wasted = math.fsum(
        (a.end_time - a.start_time) * a.procs
        for a in result.attempts
        if not a.succeeded
    )
    assert math.isclose(
        result.wasted_node_seconds, wasted, rel_tol=1e-9, abs_tol=1e-9
    )


# ------------------------------- simulate() dispatch and estimator parity
def _estimator_state(est):
    """Everything a run leaves in a successive estimator, in group order,
    and its persisted form (which tells an int alpha from a float one)."""
    return (
        persistence.dumps(est),
        est.telemetry(),
        est.n_groups,
        dict(est._failed_at),
        list(est._groups.items()),
        est.memory_footprint(),
    )


def _spy_on_simulate_batch(monkeypatch):
    from repro.sim import batch

    calls = []
    real = batch.simulate_batch

    def spy(workload, configs):
        calls.append(len(configs))
        return real(workload, configs)

    monkeypatch.setattr(batch, "simulate_batch", spy)
    return calls


#: Every successive-approximation variant the fast lane covers, with
#: spurious failures where the variant needs failures to matter.
_FAST_SUCCESSIVE_VARIANTS = [
    pytest.param({}, 0.0, id="default"),
    pytest.param({"alpha": 2}, 0.0, id="int-alpha"),
    pytest.param({"explicit_guard": True}, 0.05, id="explicit-guard"),
    pytest.param({"mixed_group_threshold": 1}, 0.05, id="mixed-threshold"),
    pytest.param({"serial_probing": False}, 0.0, id="no-serial-probing"),
    pytest.param({"max_reduced_attempts": 1, "beta": 0.5}, 0.05,
                 id="spurious-failures"),
]


@pytest.mark.parametrize("policy", [Fcfs, EasyBackfilling])
@pytest.mark.parametrize("kwargs,spurious", _FAST_SUCCESSIVE_VARIANTS)
def test_simulate_fast_lane_leaves_scalar_estimator_state(
    monkeypatch, workload, kwargs, spurious, policy
):
    """simulate() runs an eligible config on the fast lane, and afterwards
    the caller's estimator holds what a scalar run leaves in it: the same
    groups in the same order with the same learned state and counters, and
    the same per-job retry floors."""
    calls = _spy_on_simulate_batch(monkeypatch)
    fast_est = SuccessiveApproximation(**kwargs)
    scalar_est = SuccessiveApproximation(**kwargs)
    fast = simulate(workload, paper_cluster(24.0), fast_est, policy(),
                    seed=1, spurious_failure_prob=spurious)
    scalar = scalar_run(workload, paper_cluster(24.0), scalar_est, policy(),
                        seed=1, spurious_failure_prob=spurious)
    assert calls == [1]
    assert fast.fingerprint() == scalar.fingerprint()
    assert _estimator_state(fast_est) == _estimator_state(scalar_est)
    assert fast_est.n_groups > 1
    assert fast_est.ladder.levels == scalar_est.ladder.levels


def test_reused_estimator_continues_on_the_fast_lane(monkeypatch, workload):
    """Consecutive simulate() calls on one estimator all ride the fast
    lane, each continuing from the learning the last one left — exactly as
    consecutive scalar runs do, also when the last trace reuses the
    earlier one's job ids for other similarity groups."""
    other = Workload(
        [job._replace(user_id=job.user_id + 1) for job in workload],
        total_nodes=workload.total_nodes, node_mem=workload.node_mem,
    )
    calls = _spy_on_simulate_batch(monkeypatch)
    fast_est = SuccessiveApproximation()
    scalar_est = SuccessiveApproximation()
    for trace, seed in ((workload, 0), (workload, 1), (other, 2)):
        held = list(fast_est._groups.values())
        fast = simulate(trace, paper_cluster(24.0), fast_est, seed=seed,
                        spurious_failure_prob=0.02)
        scalar = scalar_run(trace, paper_cluster(24.0), scalar_est,
                            seed=seed, spurious_failure_prob=0.02)
        assert fast.fingerprint() == scalar.fingerprint()
        assert _estimator_state(fast_est) == _estimator_state(scalar_est)
        # Groups learned earlier are updated in place, as observe does.
        assert all(fast_est.group_state(key) is state
                   for key, state in zip(fast_est._groups, held))
    assert calls == [1, 1, 1]


def test_retry_floor_left_by_an_earlier_run_applies_on_the_fast_lane():
    """A job rejected after a failure leaves its retry floor in the
    estimator; a later trace reusing that job id must respect the floor
    from its very first submission, as the scalar engine does."""
    def job(job_id, submit, procs, used, user):
        return Job(job_id, submit, 10.0, procs, 32.0, used, user_id=user)

    def cluster():
        return Cluster([(4, 32.0), (4, 16.0)], name="floor")

    # Job 1 teaches the group 16; job 2 (6 nodes) fails there, and its
    # 32 MB retry fits on no 6 nodes, so it is rejected with floor 16.
    first = Workload([job(1, 0.0, 1, 20.0, 1), job(2, 100.0, 6, 20.0, 1)],
                     total_nodes=8, node_mem=32.0)
    # Another group learns 16 from job 3; job 2 — the same id — would fit
    # at 16, but its floor sends it to 32.
    second = Workload([job(3, 0.0, 1, 10.0, 2), job(2, 100.0, 1, 10.0, 2)],
                      total_nodes=8, node_mem=32.0)
    fast_est = SuccessiveApproximation(serial_probing=False)
    scalar_est = SuccessiveApproximation(serial_probing=False)
    for trace in (first, second):
        fast = simulate(trace, cluster(), fast_est)
        scalar = scalar_run(trace, cluster(), scalar_est)
        assert fast.fingerprint() == scalar.fingerprint()
        assert _estimator_state(fast_est) == _estimator_state(scalar_est)
        if trace is first:
            assert fast_est._failed_at == {2: 16.0}
    assert [a.requirement for a in fast.attempts] == [32.0, 32.0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_diff_traces(), min_size=2, max_size=3),
    _diff_configs,
    st.booleans(),
)
def test_consecutive_runs_continue_like_the_scalar_engine(
    traces, case, one_batch
):
    """One successive estimator through consecutive runs — as separate
    simulate() calls over generated traces (whose job ids overlap), or as
    one batch over the first trace whose lanes share the estimator —
    equals the same runs on the scalar engine, result by result, and ends
    in the same learned state, retry floors included."""
    policy, strategy, est, seed, spurious = case
    fast_est = _diff_estimator(est or {})
    scalar_est = _diff_estimator(est or {})
    if one_batch:
        traces = [traces[0]] * len(traces)
        fast = simulate_batch(traces[0], [
            BatchConfig(cluster=_diff_cluster(strategy), estimator=fast_est,
                        policy=policy(), seed=seed + k,
                        spurious_failure_prob=spurious)
            for k in range(len(traces))
        ])
    else:
        fast = [
            simulate(trace, _diff_cluster(strategy), fast_est, policy(),
                     seed=seed + k, spurious_failure_prob=spurious)
            for k, trace in enumerate(traces)
        ]
    for k, (trace, result) in enumerate(zip(traces, fast)):
        scalar = scalar_run(trace, _diff_cluster(strategy), scalar_est,
                            policy(), seed=seed + k,
                            spurious_failure_prob=spurious)
        assert result.fingerprint() == scalar.fingerprint()
    assert _estimator_state(fast_est) == _estimator_state(scalar_est)


def test_null_observer_takes_the_fast_lane(monkeypatch, workload):
    """A NullObserver is no observation: simulate() normalises it away and
    runs the fast lane, so the observer-overhead gate compares like with
    like."""
    from repro.obs import NullObserver

    calls = _spy_on_simulate_batch(monkeypatch)
    result = simulate(workload, paper_cluster(24.0),
                      SuccessiveApproximation(), observer=NullObserver())
    assert calls == [1]
    assert result.fingerprint() == scalar_fingerprint(
        workload, estimator=SuccessiveApproximation()
    )


def test_ineligible_config_takes_the_scalar_path(monkeypatch, workload):
    faults = FaultConfig(node_mtbf=5.0e5, node_mttr=3600.0)
    calls = _spy_on_simulate_batch(monkeypatch)
    result = simulate(workload, paper_cluster(24.0), SuccessiveApproximation(),
                      fault_config=faults)
    assert calls == []
    assert result.fingerprint() == scalar_fingerprint(
        workload, estimator=SuccessiveApproximation(), fault_config=faults
    )
    assert result.n_node_failures > 0


def test_trace_columns_share_the_jobs_numbers(workload):
    """Once a workload's jobs exist, the decoded columns reuse their
    numbers instead of holding copies while the jobs are alive."""
    jobs = list(workload)
    trace = _SharedTrace(workload)
    for column, field in (("submit", "submit_time"), ("run_time", "run_time"),
                          ("req_mem", "req_mem"), ("used_mem", "used_mem")):
        values = getattr(trace, column)
        assert all(v is getattr(job, field) for v, job in zip(values, jobs))


def test_unmaterialized_trace_decodes_from_its_columns(workload):
    """A columnar workload whose jobs do not exist yet decodes from its
    arrays, to the same numbers its jobs would hold, and stays lazy until
    a lane asks for the jobs."""
    fresh = Workload.from_columns(workload.as_columns(), presorted=True)
    trace = _SharedTrace(fresh)
    assert not fresh.jobs.materialized() and trace.float_typed
    reference = _SharedTrace(workload)
    for column in ("job_id", "submit", "run_time", "procs", "req_mem",
                   "used_mem"):
        got, want = getattr(trace, column), getattr(reference, column)
        assert list(map(type, got)) == list(map(type, want))
        assert got == want, column
    assert trace.group_keys() == reference.group_keys()
    assert trace.jobs_at([3, 1]) == [workload.jobs[3], workload.jobs[1]]
    assert not fresh.jobs.materialized()
    assert trace.jobs == list(workload)
    assert fresh.jobs.materialized()


def test_int_typed_job_list_runs_on_the_engine_lane():
    """A hand-built job list with int fields: the scalar engine carries the
    ints into its results, so the batch runs it on the engine lane and
    simulate() stays bit-identical (fingerprints hash types too)."""
    jobs = [
        Job(1, 0, 100, 2, 32, 6, user_id=1),
        Job(2, 10, 50, 1, 32, 6, user_id=1),
        Job(3, 20, 80, 3, 16, 12, user_id=2),
    ]
    workload = Workload(jobs, total_nodes=8, node_mem=32)
    assert not _SharedTrace(workload).float_typed
    expected = scalar_fingerprint(workload, estimator=SuccessiveApproximation())
    batched = simulate_batch(
        workload, [BatchConfig(cluster=paper_cluster(24.0),
                               estimator=SuccessiveApproximation())]
    )[0]
    assert batched.fingerprint() == expected
    assert simulate(
        workload, paper_cluster(24.0), SuccessiveApproximation()
    ).fingerprint() == expected


# --------------------------------------- protocol mode: other estimators
class _Recording(Estimator):
    """Wraps an estimator and logs every protocol call the engine makes —
    arguments and results — so two engines' call sequences can be
    compared."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.name = inner.name
        self.log = []

    def bind(self, ladder):
        super().bind(ladder)
        self.inner.bind(ladder)
        self.log.append(("bind", ladder.levels))

    def never_reduces(self):
        return self.inner.never_reduces()

    def estimate(self, job, attempt=0):
        value = self.inner.estimate(job, attempt=attempt)
        self.log.append(("estimate", job.job_id, attempt, value))
        return value

    def estimate_version(self, job, attempt=0):
        token = self.inner.estimate_version(job, attempt)
        self.log.append(("estimate_version", job.job_id, attempt, token))
        return token

    def observe(self, feedback):
        self.log.append(("observe", feedback.job.job_id) + tuple(feedback[1:]))
        self.inner.observe(feedback)


@pytest.mark.parametrize("spurious", [0.0, 0.05])
@pytest.mark.parametrize("strategy", ["best_fit", "first_fit"])
@pytest.mark.parametrize("policy", [Fcfs, ShortestJobFirst, EasyBackfilling])
@pytest.mark.parametrize("inner", [
    # No version token, and randomness drawn inside estimate: every call
    # the scalar engine makes must happen, and no other.
    pytest.param(ReinforcementLearning, id="rl"),
    # Version tokens: refreshes are memoized exactly where the scalar
    # engine memoizes them.
    pytest.param(lambda: SuccessiveApproximation(key_fn=by_user_app),
                 id="successive-custom-key"),
])
def test_protocol_lane_replays_the_scalar_call_sequence(
    workload, inner, policy, strategy, spurious
):
    """The protocol lane binds, estimates, asks for version tokens and
    reports feedback with exactly the scalar engine's calls, arguments and
    order — the FCFS empty-queue arrival's second head estimate
    included."""
    fast_est = _Recording(inner())
    scalar_est = _Recording(inner())
    config = BatchConfig(
        cluster=paper_cluster(24.0, strategy=strategy), estimator=fast_est,
        policy=policy(), seed=2, spurious_failure_prob=spurious,
    )
    assert fast_lane_eligible(config)
    fast = simulate_batch(workload, [config])[0]
    scalar = scalar_run(
        workload, paper_cluster(24.0, strategy=strategy), scalar_est,
        policy(), seed=2, spurious_failure_prob=spurious,
    )
    assert fast_est.log == scalar_est.log
    assert fast.fingerprint() == scalar.fingerprint()
    calls = [entry[0] for entry in fast_est.log]
    assert calls[0] == "bind"
    # Late binding re-asks at the head: more estimates than submissions.
    assert calls.count("estimate") > fast.n_attempts
    assert calls.count("observe") == fast.n_attempts


#: Estimators outside the inlined paths, each built fresh per run.
_PROTOCOL_ESTIMATORS = {
    "last-instance": LastInstance,
    "rl": ReinforcementLearning,
    "regression": RegressionEstimator,
    "regression-warm": lambda: RegressionEstimator(min_samples=3),
    "line-search": RobustLineSearch,
    "online": OnlineSimilarityEstimator,
    "hybrid": HybridEstimator,
    "hybrid-warm": lambda: HybridEstimator(
        fallback=RegressionEstimator(min_samples=3)
    ),
    "oracle": OracleEstimator,
    "successive-trajectories": lambda: SuccessiveApproximation(
        record_trajectories=True
    ),
    "successive-custom-key": lambda: SuccessiveApproximation(
        key_fn=by_user_app, mixed_group_threshold=2
    ),
}


def _protocol_state(est):
    """What a run leaves in a protocol-mode estimator."""
    state = {"telemetry": est.telemetry()}
    if isinstance(est, ReinforcementLearning):
        state.update(
            rng=est._rng.bit_generator.state,
            q={key: est.q_values(key) for key in est._q},
            visits=dict(est._visits),
            pending=dict(est._pending),
        )
    elif isinstance(est, RegressionEstimator):
        weights = est.weights
        state.update(
            n_samples=est.n_samples,
            weights=None if weights is None else weights.tolist(),
            residual_std=est.residual_std,
        )
    elif isinstance(est, HybridEstimator):
        state.update(similarity=_protocol_state(est.similarity),
                     fallback=_protocol_state(est.fallback))
    elif isinstance(est, OnlineSimilarityEstimator):
        state.update(inner=_protocol_state(est.inner))
    elif isinstance(est, SuccessiveApproximation):
        state.update(groups=list(est._groups.items()),
                     failed_at=dict(est._failed_at),
                     trajectories=dict(est._trajectories))
    elif isinstance(est, LastInstance):
        state.update(groups=list(est._groups.items()))
    elif isinstance(est, RobustLineSearch):
        state.update(brackets=list(est._brackets.items()))
    return state


_protocol_cases = st.tuples(
    st.sampled_from((Fcfs, ShortestJobFirst, EasyBackfilling)),
    st.sampled_from(("best_fit", "first_fit")),
    st.sampled_from(sorted(_PROTOCOL_ESTIMATORS)),
    st.integers(0, 3),
    st.sampled_from((0.0, 0.0, 0.2)),
)


@settings(max_examples=150, deadline=None)
@given(_diff_traces(), st.lists(_protocol_cases, min_size=1, max_size=3))
def test_protocol_lanes_match_scalar_engine(workload, cases):
    """Every estimator outside the inlined paths, batched K=1..3 over a
    generated trace: fingerprints equal to its own scalar run, and the
    estimator left in the state the scalar run leaves it in (RNG, learned
    model and trajectories included)."""
    configs = [
        BatchConfig(
            cluster=_diff_cluster(strategy),
            estimator=_PROTOCOL_ESTIMATORS[name](),
            policy=policy(),
            seed=seed,
            spurious_failure_prob=spurious,
        )
        for policy, strategy, name, seed, spurious in cases
    ]
    assert all(fast_lane_eligible(config) for config in configs)
    results = simulate_batch(workload, configs)
    for (policy, strategy, name, seed, spurious), config, result in zip(
        cases, configs, results
    ):
        scalar_est = _PROTOCOL_ESTIMATORS[name]()
        scalar = scalar_run(
            workload,
            _diff_cluster(strategy),
            estimator=scalar_est,
            policy=policy(),
            seed=seed,
            spurious_failure_prob=spurious,
        )
        assert result.fingerprint() == scalar.fingerprint(), name
        assert _protocol_state(config.estimator) == _protocol_state(scalar_est)
        _assert_accounting_invariants(workload, scalar)


@pytest.mark.parametrize("name", ["rl", "last-instance", "hybrid"])
def test_protocol_estimator_reused_across_runs(monkeypatch, workload, name):
    """simulate() runs protocol estimators on the fast lane, and a reused
    one carries its learning (and RNG) into the next run exactly as
    consecutive scalar runs do."""
    calls = _spy_on_simulate_batch(monkeypatch)
    fast_est = _PROTOCOL_ESTIMATORS[name]()
    scalar_est = _PROTOCOL_ESTIMATORS[name]()
    for seed, policy in ((0, Fcfs), (1, EasyBackfilling)):
        fast = simulate(workload, paper_cluster(24.0), fast_est, policy(),
                        seed=seed, spurious_failure_prob=0.02)
        scalar = scalar_run(workload, paper_cluster(24.0), scalar_est,
                            policy(), seed=seed, spurious_failure_prob=0.02)
        assert fast.fingerprint() == scalar.fingerprint()
        assert _protocol_state(fast_est) == _protocol_state(scalar_est)
    assert calls == [1, 1]


class _ZeroEstimator(OracleEstimator):
    """Asks for no memory at all: the matcher must refuse it."""

    def estimate(self, job, attempt=0):
        return 0.0


def test_protocol_lane_refuses_a_non_positive_requirement(workload):
    with pytest.raises(ValueError, match="min_capacity"):
        scalar_run(workload, paper_cluster(24.0), _ZeroEstimator())
    with pytest.raises(ValueError, match="min_capacity"):
        simulate_batch(workload, [BatchConfig(cluster=paper_cluster(24.0),
                                              estimator=_ZeroEstimator())])


class _OverReachingRetries(OracleEstimator):
    """Cuts first submissions to a quarter of the request, then asks more
    than any node has: every failed job's resubmission must fall back to
    its request, as the scalar engine's does."""

    def estimate(self, job, attempt=0):
        return job.req_mem / 4 if attempt == 0 else 1e9


def test_protocol_resubmission_that_fits_nowhere_falls_back_to_the_request(
    workload,
):
    fast = simulate_batch(workload, [BatchConfig(
        cluster=paper_cluster(24.0), estimator=_OverReachingRetries()
    )])[0]
    scalar = scalar_run(workload, paper_cluster(24.0), _OverReachingRetries())
    assert fast.fingerprint() == scalar.fingerprint()
    retries = [a for a in fast.attempts if a.attempt > 0]
    assert retries and not fast.rejected_jobs
    assert all(not a.reduced for a in retries)


def test_engine_lanes_sharing_one_faulted_cluster_match_scalar(workload):
    """Engine lanes (here: fault injection) handed the *same* cluster
    instance run one after another, each resetting it."""
    faults = FaultConfig(node_mtbf=5.0e5, node_mttr=3600.0)
    shared = paper_cluster(24.0)
    configs = [
        BatchConfig(cluster=shared, estimator=LastInstance(),
                    policy=ShortestJobFirst(), fault_config=faults)
        for _ in range(2)
    ]
    assert not any(fast_lane_eligible(config) for config in configs)
    results = simulate_batch(workload, configs)
    expected = scalar_fingerprint(
        workload, estimator=LastInstance(), policy=ShortestJobFirst(),
        fault_config=faults,
    )
    assert [r.fingerprint() for r in results] == [expected, expected]


def test_finished_lanes_are_freed_by_refcount(monkeypatch, workload):
    """A finished fast lane holds no reference cycle (its bound scheduling
    pass is dropped), so it is freed the moment the batch lets go of it —
    with the cyclic GC off."""
    import gc
    import weakref

    from repro.sim import batch

    refs = []
    finish = batch._FastLane.finish

    def recording_finish(lane):
        refs.append(weakref.ref(lane))
        return finish(lane)

    monkeypatch.setattr(batch._FastLane, "finish", recording_finish)
    cases = [
        (SuccessiveApproximation(), Fcfs()),
        (NoEstimation(), ShortestJobFirst()),
        (SuccessiveApproximation(), EasyBackfilling()),
        (LastInstance(), Fcfs()),
        (ReinforcementLearning(), ShortestJobFirst()),
    ]
    configs = [
        BatchConfig(cluster=paper_cluster(24.0), estimator=est, policy=policy)
        for est, policy in cases
    ]
    gc.collect()
    gc.disable()
    try:
        simulate_batch(workload, configs)
        assert len(refs) == len(cases)
        assert [ref() for ref in refs] == [None] * len(cases)
    finally:
        gc.enable()
