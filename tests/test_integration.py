"""End-to-end integration: the paper's pipeline through the public API.

These tests run the complete flow — calibrated trace -> similarity analysis
-> heterogeneous cluster -> simulation with/without estimation -> metrics —
and assert the paper's qualitative findings hold together, not just
per-module.
"""

import numpy as np
import pytest

from repro import (
    NoEstimation,
    OracleEstimator,
    SuccessiveApproximation,
    lanl_cm5_like,
    mean_slowdown,
    paper_cluster,
    quickstart,
    simulate,
    utilization,
)
from repro.experiments.fig7 import make_fig7_cluster
from repro.obs import EstimatorTelemetryObserver
from repro.sim.engine import Simulation
from repro.sim.failure import FailureModel
from repro.workload import drop_full_machine_jobs, scale_load
from tests.conftest import make_job, make_workload


@pytest.fixture(scope="module")
def prepared_trace():
    return scale_load(drop_full_machine_jobs(lanl_cm5_like(n_jobs=3000, seed=0)), 0.8)


@pytest.fixture(scope="module")
def three_way(prepared_trace):
    """Baseline / Algorithm 1 / oracle on the paper's cluster."""
    results = {}
    for name, est in (
        ("base", NoEstimation()),
        ("est", SuccessiveApproximation(alpha=2.0, beta=0.0)),
        ("oracle", OracleEstimator()),
    ):
        results[name] = simulate(
            prepared_trace, paper_cluster(24.0), estimator=est, seed=1
        )
    return results


class TestHeadlineResult:
    def test_estimation_improves_utilization(self, three_way):
        u_base = utilization(three_way["base"])
        u_est = utilization(three_way["est"])
        assert u_est / u_base > 1.2  # paper: 1.58 at saturation, full trace

    def test_oracle_bounds_algorithm1(self, three_way):
        assert utilization(three_way["est"]) <= utilization(three_way["oracle"]) * 1.02

    def test_slowdown_never_worse(self, three_way):
        assert mean_slowdown(three_way["est"]) <= mean_slowdown(three_way["base"]) * 1.05

    def test_conservativeness(self, three_way):
        est = three_way["est"]
        assert est.frac_failed_executions < 0.02  # paper: <= 0.01% (full trace)
        assert 0.10 < est.frac_reduced_submissions < 0.70  # paper: 15-40%

    def test_all_jobs_complete_under_estimation(self, three_way):
        for result in three_way.values():
            assert result.n_completed == result.n_jobs
            assert not result.rejected_jobs


class TestFigure7ThroughFullSimulator:
    def test_trajectory_matches_direct_drive(self):
        """The integrated simulator reproduces Figure 7's exact trajectory."""
        # Six sequential submissions of the same job class, far enough apart
        # that each completes (or fails) before the next arrives.
        jobs = [
            make_job(
                job_id=i + 1,
                submit_time=i * 10_000.0,
                run_time=100.0,
                procs=8,
                req_mem=32.0,
                used_mem=5.2,
                user_id=7,
                app_id=3,
            )
            for i in range(6)
        ]
        est = SuccessiveApproximation(alpha=2.0, beta=0.0)
        result = Simulation(
            make_workload(jobs, total_nodes=320),
            make_fig7_cluster(nodes_per_tier=64),
            estimator=est,
            failure_model=FailureModel(rng=0),
        ).run()
        requirements = [a.requirement for a in sorted(result.attempts, key=lambda a: a.start_time)]
        # 32 ok, 16 ok, 8 ok, 4 fails, retry of the SAME job at 8, then 8.
        assert requirements == [32.0, 16.0, 8.0, 4.0, 8.0, 8.0, 8.0]
        assert result.n_resource_failures == 1

    def test_recorded_trajectory_available(self):
        """The telemetry observer records the group's Figure 7 descent
        (E_i after each feedback) and its one back-off."""
        telemetry = EstimatorTelemetryObserver()
        jobs = [
            make_job(job_id=i + 1, submit_time=i * 10_000.0, procs=8, used_mem=5.2, user_id=7)
            for i in range(5)
        ]
        Simulation(
            make_workload(jobs, total_nodes=320),
            make_fig7_cluster(nodes_per_tier=64),
            estimator=SuccessiveApproximation(),
            failure_model=FailureModel(rng=0),
            observer=telemetry,
        ).run()
        (group,) = telemetry.groups.values()
        assert group.estimates == [16.0, 8.0, 4.0, 8.0]
        assert [(b.previous, b.restored) for b in telemetry.backoffs] == [(4.0, 8.0)]


class TestCrossModuleConsistency:
    def test_design_tool_predicts_simulated_ranking(self, prepared_trace):
        """The Figure 8 static analysis ranks tiers in the same order as the
        simulated improvement (the R^2=0.991 relationship)."""
        from repro.cluster.builder import design_second_tier

        mems = [8.0, 16.0, 24.0]
        choices = {c.second_tier_mem: c.benefiting_node_count
                   for c in design_second_tier(prepared_trace, mems, alpha=2.0)}
        ratios = {}
        for m in mems:
            base = simulate(prepared_trace, paper_cluster(m), estimator=NoEstimation(), seed=1)
            est = simulate(
                prepared_trace, paper_cluster(m), estimator=SuccessiveApproximation(), seed=1
            )
            ratios[m] = utilization(est) / utilization(base)
        static_order = sorted(mems, key=lambda m: choices[m])
        simulated_order = sorted(mems, key=lambda m: ratios[m])
        assert static_order == simulated_order

    def test_similarity_key_consistency(self, prepared_trace):
        """The estimator's groups match the analysis module's groups."""
        from repro.similarity.groups import build_groups

        est = SuccessiveApproximation()
        result = simulate(prepared_trace, paper_cluster(24.0), estimator=est, seed=1)
        assert result.n_completed == len(prepared_trace)
        offline = build_groups(prepared_trace.jobs)
        assert est.n_groups == len(offline)

    def test_quickstart_runs(self):
        report = quickstart(n_jobs=1200, load=0.7, seed=0)
        assert "utilization with estimation" in report


class TestFalsePositiveSensitivity:
    def test_spurious_failures_degrade_implicit_estimation(self, prepared_trace):
        """§2.1: implicit feedback is prone to false positives — spurious
        failures make Algorithm 1 back off needlessly, while the explicit
        guard filters them out."""
        def run(est, p):
            return Simulation(
                prepared_trace,
                paper_cluster(24.0),
                estimator=est,
                failure_model=FailureModel(rng=2, spurious_failure_prob=p),
            ).run()

        clean = run(SuccessiveApproximation(), 0.0)
        noisy = run(SuccessiveApproximation(), 0.05)
        guarded = run(SuccessiveApproximation(explicit_guard=True), 0.05)
        # Noise lowers the share of reduced submissions for the implicit
        # estimator; the guard recovers (most of) it.
        assert noisy.frac_reduced_submissions < clean.frac_reduced_submissions
        assert guarded.frac_reduced_submissions > noisy.frac_reduced_submissions
