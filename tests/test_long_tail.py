"""Long-tail coverage: small behaviours not exercised elsewhere."""

import pytest

from repro.cluster import paper_cluster
from repro.cluster.cluster import Cluster
from repro.core import NoEstimation, SuccessiveApproximation
from repro.obs import TimelineSampler
from repro.sim import Simulation, simulate, wasted_fraction
from repro.sim.failure import FailureModel
from tests.conftest import make_job, make_workload


class TestWastedFraction:
    def test_positive_with_failures(self):
        # Prime a group to 24, then a 30MB user fails there.
        cluster = Cluster([(8, 24.0), (8, 32.0)])
        jobs = [
            make_job(job_id=1, submit_time=0.0, run_time=10.0, procs=2, used_mem=5.0),
            make_job(job_id=2, submit_time=20.0, run_time=10.0, procs=2, used_mem=5.0),
            make_job(job_id=3, submit_time=40.0, run_time=100.0, procs=2, used_mem=30.0),
        ]
        result = simulate(
            make_workload(jobs), cluster, estimator=SuccessiveApproximation(), seed=0
        )
        if result.n_resource_failures:
            assert wasted_fraction(result) > 0.0
        assert result.n_completed == 3


class TestFig8Csv:
    def test_export(self):
        from repro.experiments import fig8
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.export import fig8_csv

        result = fig8.run(
            ExperimentConfig(n_jobs=1_000), mems=[16.0, 24.0, 32.0], load=0.8
        )
        text = fig8_csv(result)
        assert text.startswith("second_tier_mem,")
        assert text.count("\n") == 4  # header + 3 tiers


class TestEngineTimelineViaSimulate:
    def test_simulation_class_exposes_timeline(self):
        jobs = [make_job(job_id=i, submit_time=float(i)) for i in range(5)]
        result = Simulation(
            make_workload(jobs),
            Cluster([(8, 32.0)]),
            observer=TimelineSampler(),
        ).run()
        assert len(result.timeline) >= 5
        times = [s.time for s in result.timeline]
        assert times == sorted(times)

    def test_timeline_off_by_default(self):
        result = simulate(make_workload([make_job()]), Cluster([(8, 32.0)]))
        assert result.timeline == []


class TestClusterRepr:
    def test_repr_mentions_tiers(self):
        text = repr(paper_cluster(24.0))
        assert "512x32MB" in text
        assert "512x24MB" in text

    def test_ladder_repr(self):
        from repro.cluster import CapacityLadder

        assert "24.0" in repr(CapacityLadder([24.0, 32.0]))


class TestSpuriousFailuresWithNoEstimation:
    def test_baseline_retries_spurious_failures(self):
        jobs = [make_job(job_id=i, submit_time=float(i * 10), procs=2) for i in range(15)]
        result = Simulation(
            make_workload(jobs),
            Cluster([(8, 32.0)]),
            estimator=NoEstimation(),
            failure_model=FailureModel(rng=0, spurious_failure_prob=0.4),
        ).run()
        assert result.n_completed == 15
        assert result.n_spurious_failures > 0
        assert result.n_resource_failures == 0


class TestLadderDesignCsvFriendly:
    def test_demand_levels_match_ladder(self):
        from repro.cluster.builder import evaluate_ladder
        from tests.conftest import make_job, make_workload

        w = make_workload(
            [make_job(job_id=i, submit_time=float(i), used_mem=4.0) for i in range(20)]
        )
        design = evaluate_ladder(w, [16.0, 32.0], 64)
        assert [lvl for lvl, _ in design.demand_by_level] == [16.0, 32.0]
