"""Post-run analyses: tier occupancy, capacity decomposition, queue stats."""

import pytest

from repro.cluster import paper_cluster
from repro.cluster.cluster import Cluster
from repro.core import NoEstimation, SuccessiveApproximation
from repro.obs import TimelineSampler
from repro.sim.analysis import (
    capacity_decomposition,
    estimation_unlock_report,
    queue_stats,
    tier_utilization,
)
from repro.sim.engine import Simulation, simulate
from tests.conftest import make_job, make_workload


@pytest.fixture(scope="module")
def trace():
    from repro.workload import drop_full_machine_jobs, lanl_cm5_like, scale_load

    return scale_load(drop_full_machine_jobs(lanl_cm5_like(n_jobs=2000, seed=0)), 0.8)


class TestTierUtilization:
    def test_single_tier_single_job(self):
        w = make_workload([make_job(run_time=100.0, procs=4)])
        cluster = Cluster([(8, 32.0)])
        result = simulate(w, cluster)
        assert tier_utilization(result, cluster)[32.0] == pytest.approx(0.5)

    def test_baseline_leaves_small_tier_idle(self, trace):
        cluster = paper_cluster(24.0)
        result = simulate(trace, cluster, estimator=NoEstimation(), seed=1)
        tiers = tier_utilization(result, cluster)
        # Most work requests 32MB; without estimation the 24MB tier only
        # sees the minority of jobs with smaller requests.
        assert tiers[24.0] < tiers[32.0]

    def test_estimation_unlocks_small_tier(self, trace):
        base = simulate(trace, paper_cluster(24.0), estimator=NoEstimation(), seed=1)
        est = simulate(
            trace, paper_cluster(24.0), estimator=SuccessiveApproximation(), seed=1
        )
        t_base = tier_utilization(base, paper_cluster(24.0))
        t_est = tier_utilization(est, paper_cluster(24.0))
        assert t_est[24.0] > t_base[24.0] * 1.5

    def test_requires_attempt_trace(self, trace):
        result = simulate(trace, paper_cluster(24.0), collect_attempts=False, seed=1)
        with pytest.raises(ValueError, match="collect_attempts"):
            tier_utilization(result, paper_cluster(24.0))


class TestCapacityDecomposition:
    def test_components_sum_to_one(self, trace):
        result = simulate(
            trace, paper_cluster(24.0), estimator=SuccessiveApproximation(), seed=1
        )
        d = capacity_decomposition(result)
        assert d.useful + d.wasted + d.idle == pytest.approx(1.0, abs=1e-9)
        assert d.useful > 0

    def test_no_failures_no_waste(self):
        w = make_workload([make_job(run_time=100.0, procs=4)])
        result = simulate(w, Cluster([(8, 32.0)]))
        d = capacity_decomposition(result)
        assert d.wasted == 0.0
        assert d.useful == pytest.approx(0.5)

    def test_report_format(self):
        w = make_workload([make_job(run_time=100.0, procs=4)])
        report = capacity_decomposition(simulate(w, Cluster([(8, 32.0)]))).format_report()
        assert "useful" in report and "idle" in report


class TestQueueStats:
    def test_requires_timeline(self):
        w = make_workload([make_job()])
        result = simulate(w, Cluster([(8, 32.0)]))
        with pytest.raises(ValueError, match="TimelineSampler"):
            queue_stats(result)

    def test_contention_visible(self):
        # Two full-machine jobs arriving together: one waits.
        w = make_workload(
            [
                make_job(job_id=1, submit_time=0.0, run_time=100.0, procs=8),
                make_job(job_id=2, submit_time=0.0, run_time=100.0, procs=8),
            ]
        )
        result = Simulation(w, Cluster([(8, 32.0)]), observer=TimelineSampler()).run()
        stats = queue_stats(result)
        assert stats.max_queue_length >= 1
        assert stats.mean_busy_nodes > 0

    def test_blocked_with_free_nodes_detects_mismatch(self, trace):
        # Under FCFS without estimation, head-of-line blocking with free
        # small machines is the paper's core pathology.
        result = Simulation(
            trace,
            paper_cluster(24.0),
            estimator=NoEstimation(),
            observer=TimelineSampler(),
        ).run()
        stats = queue_stats(result)
        assert stats.frac_blocked_with_free_nodes > 0.05


class TestUnlockReport:
    def test_report_shows_both_tiers(self, trace):
        base = simulate(trace, paper_cluster(24.0), estimator=NoEstimation(), seed=1)
        est = simulate(
            trace, paper_cluster(24.0), estimator=SuccessiveApproximation(), seed=1
        )
        report = estimation_unlock_report(base, est, paper_cluster(24.0))
        assert "24MB" in report
        assert "32MB" in report
        assert "unlocked" in report
