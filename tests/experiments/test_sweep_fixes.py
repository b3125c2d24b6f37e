"""The sweep-executor bugfix batch: RSS normalization, per-spec
accounting, and fault-carrying specs."""

import math

import pytest

from repro.experiments.cache import SweepCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.faults import sweep_specs as faults_sweep_specs
from repro.experiments.parallel import _rss_to_kb, run_sweep, simulate_spec
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    FaultSpec,
    RunSpec,
    WorkloadSpec,
)
from repro.sim.engine import simulate


def spec(load=0.5, estimator="none", n_jobs=300, seed=0, faults=None, **est_kwargs):
    est = (
        EstimatorSpec.make(estimator, **est_kwargs)
        if est_kwargs
        else EstimatorSpec(name=estimator)
    )
    kwargs = {}
    if faults is not None:
        kwargs["faults"] = faults
    return RunSpec(
        workload=WorkloadSpec(n_jobs=n_jobs, load=load),
        cluster=ClusterSpec(),
        estimator=est,
        seed=seed,
        label=f"{estimator}@{load:g}",
        **kwargs,
    )


class TestRssNormalization:
    def test_linux_reports_kb_passthrough(self):
        assert _rss_to_kb(51_200, platform="linux") == 51_200

    def test_darwin_reports_bytes_normalized(self):
        assert _rss_to_kb(52_428_800, platform="darwin") == 51_200

    def test_other_platforms_treated_as_kb(self):
        assert _rss_to_kb(1234, platform="freebsd13") == 1234

    def test_default_platform_returns_int(self):
        assert isinstance(_rss_to_kb(4096.0), int)


class TestDoubleAccounting:
    """Each spec is accounted once: one outcome, one callback."""

    def test_profile_excludes_resumed_from_executed(self, tmp_path):
        # Re-running a sweep over its cache directory resumes it: the points
        # come from the cache and the profile counts none of them as executed.
        specs = [spec(load=0.4), spec(load=0.6)]
        run_sweep(specs, cache=SweepCache(tmp_path / "cache"))
        report = run_sweep(specs, cache=SweepCache(tmp_path / "cache"))
        assert report.n_cache_hits == 2
        assert report.profile().n_executed == 0

    def test_on_outcome_fires_once_per_spec_in_every_mode(self, tmp_path):
        specs = [spec(load=0.4), spec(load=0.6)]
        cache = SweepCache(tmp_path / "cache")

        seen = []
        run_sweep(specs, cache=cache, on_outcome=lambda i, o: seen.append(i))
        assert sorted(seen) == [0, 1]

        seen_cached = []
        report = run_sweep(
            specs,
            cache=cache,
            on_outcome=lambda i, o: seen_cached.append((i, o.cached)),
        )
        assert report.n_cache_hits == 2
        assert sorted(seen_cached) == [(0, True), (1, True)]


class TestFaultSpecs:
    def test_default_faults_preserve_cache_key(self):
        # Adding the faults field must not invalidate pre-existing caches.
        assert "faults" not in spec().canonical()
        assert spec().cache_key() == spec(faults=FaultSpec()).cache_key()

    def test_enabled_faults_change_cache_key(self):
        faulty = spec(faults=FaultSpec(node_mtbf=5e7))
        assert "faults" in faulty.canonical()
        assert faulty.cache_key() != spec().cache_key()

    def test_faulted_spec_matches_direct_simulation(self):
        faults = FaultSpec(node_mtbf=2e7, node_mttr=3600.0)
        s = spec(load=0.7, faults=faults)
        point = simulate_spec(s)

        from repro.sim import mean_slowdown, utilization
        from repro.sim.faults import FaultConfig

        result = simulate(
            s.workload.materialize(),
            s.cluster.materialize(),
            s.estimator.materialize(),
            policy=s.policy.materialize(),
            seed=s.seed,
            fault_config=FaultConfig(node_mtbf=2e7, node_mttr=3600.0),
            collect_attempts=False,
        )
        assert point.utilization == utilization(result)
        assert point.mean_slowdown == mean_slowdown(result)
        assert result.node_downtime_seconds > 0  # faults actually fired

    def test_spurious_prob_reaches_failure_model(self):
        clean = simulate_spec(spec(load=0.5))
        spurious = simulate_spec(
            spec(load=0.5, faults=FaultSpec(spurious=0.3))
        )
        # Spuriously killed attempts burn node-seconds without useful work.
        assert spurious.wasted_node_seconds > clean.wasted_node_seconds
        assert spurious.utilization < clean.utilization

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(node_mtbf=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(node_mtbf=1e7, node_mttr=0.0)
        with pytest.raises(ValueError):
            FaultSpec(spurious=1.5)
        assert not FaultSpec().enabled
        assert FaultSpec(node_mtbf=1e7).enabled
        assert FaultSpec(spurious=0.1).enabled

    @pytest.mark.parametrize("knobs, name", [
        # NaN passed every comparison: a NaN MTBF ran fault-free under a
        # cache key of its own, and a non-finite MTTR failed only inside
        # the worker, as a per-point error.
        ({"node_mtbf": math.nan}, "node_mtbf"),
        ({"node_mtbf": 1e7, "node_mttr": math.inf}, "node_mttr"),
        ({"node_mtbf": 1e7, "node_mttr": math.nan}, "node_mttr"),
        ({"spurious": math.nan}, "spurious"),
    ])
    def test_fault_spec_rejects_non_finite_knobs(self, knobs, name):
        with pytest.raises(ValueError, match=name):
            FaultSpec(**knobs)

    def test_faults_experiment_grid(self):
        cfg = ExperimentConfig(n_jobs=200)
        specs = faults_sweep_specs(cfg, mtbfs=(math.inf, 2e7))
        assert len(specs) == 8  # 4 estimator variants x 2 mtbf levels
        clean = [s for s in specs if not s.faults.enabled]
        faulty = [s for s in specs if s.faults.enabled]
        assert len(clean) == len(faulty) == 4
        assert all(s.faults.node_mtbf == 2e7 for s in faulty)
        assert len({s.label for s in specs}) == 8
