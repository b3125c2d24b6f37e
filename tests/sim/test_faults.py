"""Node fault injection: config, injector draws, and engine integration."""

import math

import pytest

from repro.cluster import Cluster, paper_cluster
from repro.core import SuccessiveApproximation
from repro.core.base import Feedback
from repro.core.baselines import NoEstimation
from repro.sim import FaultConfig, NodeFaultInjector, Simulation, fault_rng, simulate
from repro.sim.failure import FailureModel
from tests.conftest import make_job, make_workload


class TestFaultConfig:
    def test_disabled_by_default(self):
        config = FaultConfig()
        assert math.isinf(config.node_mtbf)
        assert not config.enabled

    def test_finite_mtbf_enables(self):
        assert FaultConfig(node_mtbf=1e6).enabled

    def test_mtbf_validation(self):
        with pytest.raises(ValueError, match="node_mtbf"):
            FaultConfig(node_mtbf=0.0)
        with pytest.raises(ValueError, match="node_mtbf"):
            FaultConfig(node_mtbf=-1.0)
        with pytest.raises(ValueError, match="node_mtbf"):
            FaultConfig(node_mtbf=math.nan)

    def test_mttr_must_be_finite_positive(self):
        with pytest.raises(ValueError):
            FaultConfig(node_mttr=0.0)
        with pytest.raises(ValueError, match="finite"):
            FaultConfig(node_mttr=math.inf)

    def test_burst_validation(self):
        with pytest.raises(ValueError, match="burst_size"):
            FaultConfig(burst_size=0)
        with pytest.raises(ValueError):
            FaultConfig(burst_prob=1.5)

    @pytest.mark.parametrize("knobs, name", [
        # A fractional or boolean burst used to be accepted, and the first
        # burst then died in range() (or burst a single node).
        ({"burst_size": 2.5}, "burst_size"),
        ({"burst_size": True}, "burst_size"),
        ({"burst_size": 2.0}, "burst_size"),
        ({"burst_prob": math.nan}, "burst_prob"),
        ({"node_mttr": math.nan}, "node_mttr"),
    ])
    def test_bad_knob_rejected_by_name(self, knobs, name):
        with pytest.raises(ValueError, match=name):
            FaultConfig(**{"node_mtbf": 2e5, "burst_size": 2,
                           "burst_prob": 0.9, **knobs})


class TestInjector:
    def test_disabled_injector_never_fires(self):
        injector = NodeFaultInjector(FaultConfig(), rng=fault_rng(0))
        assert math.isinf(injector.next_failure_delay(1024))

    def test_deterministic_given_seed(self):
        config = FaultConfig(node_mtbf=1e6)
        a = NodeFaultInjector(config, rng=fault_rng(7))
        b = NodeFaultInjector(config, rng=fault_rng(7))
        assert [a.next_failure_delay(64) for _ in range(20)] == [
            b.next_failure_delay(64) for _ in range(20)
        ]
        assert [a.repair_delay() for _ in range(20)] == [
            b.repair_delay() for _ in range(20)
        ]

    def test_rng_independent_of_failure_model_stream(self):
        # The fault stream is spawned through a tagged SeedSequence, so it
        # must differ from the FailureModel's default_rng(seed) draws.
        import numpy as np

        assert fault_rng(3).random() != np.random.default_rng(3).random()

    def test_failure_rate_scales_with_node_count(self):
        injector = NodeFaultInjector(FaultConfig(node_mtbf=1e6), rng=fault_rng(0))
        small = [injector.next_failure_delay(1) for _ in range(3000)]
        large = [injector.next_failure_delay(1000) for _ in range(3000)]
        assert sum(small) / len(small) == pytest.approx(1e6, rel=0.1)
        assert sum(large) / len(large) == pytest.approx(1e3, rel=0.1)

    def test_burst_draw(self):
        injector = NodeFaultInjector(
            FaultConfig(node_mtbf=1e6, burst_size=4, burst_prob=1.0),
            rng=fault_rng(0),
        )
        assert injector.n_victims() == 4
        no_burst = NodeFaultInjector(
            FaultConfig(node_mtbf=1e6, burst_size=4, burst_prob=0.0),
            rng=fault_rng(0),
        )
        assert no_burst.n_victims() == 1

    def test_choose_level_skips_empty_and_handles_all_down(self):
        injector = NodeFaultInjector(FaultConfig(node_mtbf=1e6), rng=fault_rng(0))
        assert injector.choose_level({32.0: 0, 24.0: 5}) == 24.0
        assert injector.choose_level({32.0: 0, 24.0: 0}) is None


class RecordingEstimator(NoEstimation):
    """NoEstimation plus a transcript of every feedback observation."""

    def __init__(self):
        super().__init__()
        self.feedbacks = []

    def observe(self, feedback: Feedback) -> None:
        self.feedbacks.append(feedback)
        super().observe(feedback)


def result_fingerprint(result):
    """Everything that should be bit-identical between two runs."""
    return (
        result.n_attempts,
        result.n_resource_failures,
        result.useful_node_seconds,
        result.wasted_node_seconds,
        result.t_last_end,
        [(s.job.job_id, s.start_time, s.end_time, s.n_attempts) for s in result.summaries],
    )


class TestEngineIntegration:
    def test_disabled_faults_identical_to_baseline(self, sim_trace):
        # Acceptance criterion: FaultConfig() (MTBF = inf) must be
        # point-for-point identical to a run without fault injection.
        cluster = paper_cluster(24.0)
        base = simulate(
            sim_trace, cluster, estimator=SuccessiveApproximation(), seed=0
        )
        gated = simulate(
            sim_trace,
            paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            seed=0,
            fault_config=FaultConfig(),
        )
        assert gated.n_fault_kills == 0 and gated.n_node_failures == 0
        assert result_fingerprint(base) == result_fingerprint(gated)

    def test_faulty_run_completes_all_jobs_and_repairs_drain(self, sim_trace):
        cluster = paper_cluster(24.0)
        result = simulate(
            sim_trace,
            cluster,
            estimator=SuccessiveApproximation(),
            seed=0,
            fault_config=FaultConfig(node_mtbf=5e6, node_mttr=2000.0),
        )
        assert result.n_node_failures > 0
        assert result.node_downtime_seconds > 0
        assert result.n_completed == result.n_jobs
        # Trailing repair events drain before the event loop exits.
        assert cluster.down_nodes == 0
        assert cluster.free_nodes == cluster.total_nodes
        assert "node faults" in result.summary_table()

    def test_kill_surfaces_as_resource_unrelated_failure(self):
        # One job occupying the whole (tiny) cluster: the first node failure
        # must kill it, and the estimator must see a failure with
        # granted >= used — §2.1's false positive, recognizable only with
        # explicit feedback.
        job = make_job(job_id=1, procs=4, req_mem=32.0, used_mem=8.0, run_time=50_000.0)
        workload = make_workload([job], total_nodes=4)
        estimator = RecordingEstimator()
        cluster = Cluster([(4, 32.0)])
        result = Simulation(
            workload,
            cluster,
            estimator=estimator,
            failure_model=FailureModel(rng=0),
            fault_injector=NodeFaultInjector(
                FaultConfig(node_mtbf=40_000.0, node_mttr=100.0),
                rng=fault_rng(0),
            ),
        ).run()
        assert result.n_fault_kills >= 1
        assert result.n_completed == 1
        assert result.wasted_node_seconds > 0
        kills = [f for f in estimator.feedbacks if not f.succeeded]
        assert kills, "the kill never reached the estimator"
        assert all(f.granted >= f.used for f in kills)
        # The job's summary accounts for every attempt, kills included.
        assert result.summaries[0].n_attempts == result.n_attempts
        assert result.summaries[0].n_resource_failures == 0

    def test_fault_kills_counted_separately_from_resource_failures(self, sim_trace):
        result = simulate(
            sim_trace,
            paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            seed=0,
            fault_config=FaultConfig(node_mtbf=5e6, node_mttr=2000.0),
        )
        fault_records = [
            a for a in result.attempts if not a.succeeded and not a.resource_failure
        ]
        assert len(fault_records) == result.n_fault_kills

    def test_faults_degrade_implicit_estimation(self, sim_trace):
        # The tentpole claim at engine level: fault kills poison the
        # implicit-feedback estimator (it backs off groups for failures that
        # were never about resources), so the reduced-submission share drops
        # relative to the clean run.
        def frac_reduced(fault_config):
            return simulate(
                sim_trace,
                paper_cluster(24.0),
                estimator=SuccessiveApproximation(alpha=2.0, beta=0.0),
                seed=0,
                fault_config=fault_config,
                collect_attempts=False,
            ).frac_reduced_submissions

        clean = frac_reduced(None)
        faulty = frac_reduced(FaultConfig(node_mtbf=2e6, node_mttr=2000.0))
        assert clean > 0
        assert faulty < clean
