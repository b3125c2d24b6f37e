"""The sweep-executor bugfix batch: RSS normalization, checkpoint
durability, cache/checkpoint double-accounting, and fault-carrying specs."""

import math

import pytest

from repro.experiments.cache import SweepCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.faults import sweep_specs as faults_sweep_specs
from repro.experiments.parallel import (
    SweepCheckpoint,
    _rss_to_kb,
    run_sweep,
    simulate_spec,
)
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


class TestCheckpointDurability:
    def test_append_handle_persists_across_records(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "manifest.jsonl")
        s1, s2 = spec(load=0.4), spec(load=0.6)
        p1, p2 = simulate_spec(s1), simulate_spec(s2)
        cp.record(s1, p1)
        first_handle = cp._fh
        assert first_handle is not None and not first_handle.closed
        cp.record(s2, p2)
        assert cp._fh is first_handle  # no reopen per append
        assert set(cp.load()) == {s1.cache_key(), s2.cache_key()}

    def test_record_reopens_after_close(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "manifest.jsonl")
        s1, s2 = spec(load=0.4), spec(load=0.6)
        point = simulate_spec(s1)
        cp.record(s1, point)
        cp.close()
        assert cp._fh is None
        cp.close()  # idempotent
        cp.record(s2, simulate_spec(s2))
        assert len(cp.load()) == 2

    def test_context_manager_releases_handle(self, tmp_path):
        s = spec()
        with SweepCheckpoint(tmp_path / "manifest.jsonl") as cp:
            cp.record(s, simulate_spec(s))
            assert cp._fh is not None
        assert cp._fh is None
        # Another instance sees the durable record.
        assert s.cache_key() in SweepCheckpoint(tmp_path / "manifest.jsonl").load()

    def test_run_sweep_releases_checkpoint_handle(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "manifest.jsonl")
        run_sweep([spec(load=0.4)], checkpoint=cp)
        assert cp._fh is None
        assert len(cp.load()) == 1


class TestDoubleAccounting:
    """A point present in both the cache and the checkpoint counts once."""

    def test_point_in_both_stores_is_one_cache_hit(self, tmp_path):
        specs = [spec(load=0.4), spec(load=0.6)]
        cache = SweepCache(tmp_path / "cache")
        manifest = tmp_path / "manifest.jsonl"
        run_sweep(specs, cache=cache, checkpoint=SweepCheckpoint(manifest))

        report = run_sweep(
            specs, cache=cache, checkpoint=SweepCheckpoint(manifest)
        )
        assert report.n_cache_hits == 2
        assert report.n_resumed == 0  # not double-counted as resumed too
        for outcome in report.outcomes:
            assert outcome.cached and not outcome.resumed

    def test_cached_and_resumed_are_mutually_exclusive(self, tmp_path):
        specs = [spec(load=0.4), spec(load=0.6)]
        manifest = tmp_path / "manifest.jsonl"
        run_sweep(specs, checkpoint=SweepCheckpoint(manifest))
        report = run_sweep(specs, checkpoint=SweepCheckpoint(manifest))
        assert report.n_resumed == 2
        assert report.n_cache_hits == 0
        for outcome in report.outcomes:
            assert outcome.resumed and not outcome.cached

    def test_cache_hits_written_through_to_checkpoint(self, tmp_path):
        """An up-front cache hit lands in the manifest, so a later
        cache-less rerun resumes instead of re-simulating."""
        specs = [spec(load=0.4), spec(load=0.6)]
        cache = SweepCache(tmp_path / "cache")
        run_sweep(specs, cache=cache)  # cache populated, no checkpoint yet

        manifest = tmp_path / "manifest.jsonl"
        report = run_sweep(
            specs, cache=cache, checkpoint=SweepCheckpoint(manifest)
        )
        assert report.n_cache_hits == 2

        cacheless = run_sweep(specs, checkpoint=SweepCheckpoint(manifest))
        assert cacheless.n_resumed == 2

    def test_resumed_points_promote_into_cache(self, tmp_path):
        specs = [spec(load=0.4)]
        manifest = tmp_path / "manifest.jsonl"
        run_sweep(specs, checkpoint=SweepCheckpoint(manifest))

        cache = SweepCache(tmp_path / "cache")
        report = run_sweep(
            specs, cache=cache, checkpoint=SweepCheckpoint(manifest)
        )
        assert report.n_resumed == 1
        assert cache.get(specs[0]) is not None

    def test_profile_excludes_resumed_from_executed(self, tmp_path):
        specs = [spec(load=0.4), spec(load=0.6)]
        manifest = tmp_path / "manifest.jsonl"
        run_sweep(specs, checkpoint=SweepCheckpoint(manifest))
        profile = run_sweep(
            specs, checkpoint=SweepCheckpoint(manifest)
        ).profile()
        assert profile.n_executed == 0
        assert profile.n_resumed == 2

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
