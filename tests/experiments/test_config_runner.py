"""Experiment configuration and sweep machinery."""

import pytest

from repro.core import NoEstimation
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5 import sweep_specs
from repro.experiments.parallel import run_sweep, sweep_to_load_sweep
from repro.experiments.specs import EstimatorSpec
from repro.sim.engine import simulate


class TestExperimentConfig:
    def test_defaults_are_papers_parameters(self):
        cfg = ExperimentConfig()
        assert cfg.alpha == 2.0
        assert cfg.beta == 0.0
        assert cfg.second_tier_mem == 24.0

    def test_full_matches_trace_length(self):
        assert ExperimentConfig.full().n_jobs == 122_055

    def test_full_with_overrides(self):
        cfg = ExperimentConfig.full(seed=7)
        assert cfg.seed == 7
        assert cfg.n_jobs == 122_055

    def test_make_sim_workload_drops_full_machine(self):
        cfg = ExperimentConfig(n_jobs=2000)
        full = cfg.make_workload()
        sim = cfg.make_sim_workload()
        assert len(full) - len(sim) == 6

    def test_make_cluster(self):
        cfg = ExperimentConfig()
        assert cfg.make_cluster().ladder.levels == (24.0, 32.0)
        assert cfg.make_cluster(16.0).ladder.levels == (16.0, 32.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_jobs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(loads=())
        with pytest.raises(ValueError):
            ExperimentConfig(loads=(0.5, -1.0))


class TestLoadSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        cfg = ExperimentConfig(n_jobs=1500, loads=(0.4, 0.9))
        report = run_sweep(
            sweep_specs(cfg, EstimatorSpec(name="successive")), max_workers=1
        )
        assert report.n_errors == 0
        return sweep_to_load_sweep("est", report.outcomes)

    def test_one_point_per_load(self, sweep):
        assert len(sweep.points) == 2
        assert sweep.loads.tolist() == [0.4, 0.9]

    def test_metrics_sane(self, sweep):
        assert all(0 <= u <= 1 for u in sweep.utilizations)
        assert all(s >= 1 for s in sweep.slowdowns)

    def test_reduced_range_ordered(self, sweep):
        lo, hi = sweep.reduced_range
        assert 0 <= lo <= hi <= 1

    def test_point_run_keeps_no_attempt_trace(self):
        cfg = ExperimentConfig(n_jobs=800)
        result = simulate(cfg.make_sim_workload(), cfg.make_cluster(),
                          NoEstimation(), collect_attempts=False)
        assert result.n_completed > 0
        assert result.attempts == []  # no attempt trace kept
        assert result.n_attempts > 0  # counters still filled
