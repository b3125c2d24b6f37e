"""The parallel sweep executor, spec layer, and on-disk result cache."""

import pickle
import threading

import pytest

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.experiments.cache import SweepCache, resolve_cache
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    SweepError,
    _worker_init,
    execute_spec,
    run_sweep,
    simulate_spec,
    sweep_to_load_sweep,
)
from repro.experiments import specs as spec_memo
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
    clear_materialization_caches,
    materialization_cache_info,
)

from tests.sim.engine_reference import jobs_built

CFG = ExperimentConfig(n_jobs=800, loads=(0.5, 0.9))


def small_specs(estimator="successive", **est_kwargs):
    est = (
        EstimatorSpec.make(estimator, **est_kwargs)
        if est_kwargs
        else EstimatorSpec(name=estimator)
    )
    return [
        RunSpec(
            workload=WorkloadSpec(n_jobs=CFG.n_jobs, seed=CFG.seed, load=load),
            cluster=ClusterSpec(second_tier_mem=CFG.second_tier_mem),
            estimator=est,
            seed=CFG.seed,
            label=f"{estimator}@{load:g}",
        )
        for load in CFG.loads
    ]


class TestSpecs:
    def test_runspec_pickles(self):
        spec = small_specs(alpha=2.0, beta=0.0)[0]
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_cache_key_stable_under_kwarg_order(self):
        a = RunSpec(
            workload=WorkloadSpec(n_jobs=100),
            estimator=EstimatorSpec.make("successive", alpha=2.0, beta=0.0),
        )
        b = RunSpec(
            workload=WorkloadSpec(n_jobs=100),
            estimator=EstimatorSpec.make("successive", beta=0.0, alpha=2.0),
        )
        assert a.cache_key() == b.cache_key()

    def test_cache_key_ignores_label_but_not_parameters(self):
        import dataclasses

        base = small_specs()[0]
        assert dataclasses.replace(base, label="other").cache_key() == base.cache_key()
        assert dataclasses.replace(base, seed=base.seed + 1).cache_key() != base.cache_key()

    def test_unknown_names_fail_with_registry_listing(self):
        with pytest.raises(KeyError) as estimator_error:
            EstimatorSpec(name="no-such-estimator").materialize()
        assert estimator_error.value.args[0] == (
            "unknown estimator 'no-such-estimator'; registered: "
            f"{sorted(spec_memo.ESTIMATOR_REGISTRY)}"
        )
        assert "successive" in estimator_error.value.args[0]
        with pytest.raises(KeyError) as policy_error:
            PolicySpec(name="no-such-policy").materialize()
        assert policy_error.value.args[0] == (
            f"unknown policy 'no-such-policy'; registered: {sorted(spec_memo.POLICY_REGISTRY)}"
        )
        assert "fcfs" in policy_error.value.args[0]

    def test_non_scalar_kwargs_rejected(self):
        with pytest.raises(TypeError, match="JSON-able scalar"):
            EstimatorSpec.make("successive", key_fn=lambda j: j.user_id)


class TestRunSweepParity:
    def test_parallel_matches_serial_point_for_point(self):
        specs = small_specs(alpha=2.0, beta=0.0) + small_specs("none")
        serial = run_sweep(specs, max_workers=1)
        parallel = run_sweep(specs, max_workers=2, oversubscribe=True)
        assert serial.points() == parallel.points()
        assert parallel.max_workers == 2
        # Identical LoadSweep series either way.
        assert sweep_to_load_sweep("est", serial.outcomes[:2]) == sweep_to_load_sweep(
            "est", parallel.outcomes[:2]
        )

    def test_outcomes_keep_spec_order_and_wall_time(self):
        specs = small_specs("none")
        report = run_sweep(specs, max_workers=2, oversubscribe=True)
        assert [o.spec for o in report.outcomes] == specs
        assert all(o.wall_time > 0 for o in report.outcomes)
        assert report.n_runs == len(specs)
        assert report.runs_per_second > 0

    def test_failed_point_reports_its_spec_without_killing_the_sweep(self):
        specs = small_specs("none")
        bad = RunSpec(
            workload=WorkloadSpec(n_jobs=100),
            estimator=EstimatorSpec(name="no-such-estimator"),
            label="doomed",
        )
        report = run_sweep(specs + [bad], max_workers=2, oversubscribe=True)
        assert report.n_errors == 1
        assert [o.ok for o in report.outcomes] == [True, True, False]
        assert "no-such-estimator" in report.outcomes[-1].error
        with pytest.raises(SweepError, match="doomed"):
            report.points()

    def test_execute_spec_envelope_captures_traceback(self):
        # An unknown source is refused when the spec is built; a missing
        # trace file only shows when the worker materializes the spec.
        outcome = execute_spec(
            RunSpec(
                workload=WorkloadSpec(n_jobs=100, source="swf", trace_path="missing.swf"),
            )
        )
        assert not outcome.ok
        assert "missing.swf" in outcome.error


class TestSweepCache:
    def test_round_trip_second_run_is_all_hits(self, tmp_path):
        specs = small_specs(alpha=2.0, beta=0.0)
        cold = SweepCache(tmp_path)
        first = run_sweep(specs, cache=cold)
        assert cold.hits == 0 and cold.misses == len(specs)

        warm = SweepCache(tmp_path)
        second = run_sweep(specs, cache=warm)
        assert warm.hits == len(specs) and warm.misses == 0
        assert second.n_cache_hits == len(specs)
        assert first.points() == second.points()

    @pytest.mark.parametrize("content", ["{not json", "null", "[1]", "42"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, content):
        spec = small_specs("none")[0]
        cache = SweepCache(tmp_path)
        run_sweep([spec], cache=cache)
        (tmp_path / f"{spec.cache_key()}.json").write_text(content)
        fresh = SweepCache(tmp_path)
        report = run_sweep([spec], cache=fresh)
        assert fresh.misses == 1 and report.n_cache_hits == 0
        assert report.points()  # recomputed and rewritten

    def test_failed_runs_are_not_cached(self, tmp_path):
        cache = SweepCache(tmp_path)
        bad = RunSpec(
            workload=WorkloadSpec(n_jobs=100),
            estimator=EstimatorSpec(name="no-such-estimator"),
        )
        run_sweep([bad], cache=cache)
        assert len(cache) == 0

    def test_resolve_cache(self, tmp_path, monkeypatch):
        assert resolve_cache(enabled=False, directory=tmp_path) is None
        assert resolve_cache(directory=tmp_path).directory == tmp_path
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache().directory == tmp_path / "env"


class TestWorkerMaterializationCache:
    """The per-process base-trace memo: N specs over one trace parse it once."""

    def _shared_workload_specs(self, loads=(0.4, 0.6, 0.8)):
        return [
            RunSpec(
                workload=WorkloadSpec(n_jobs=200, seed=3, load=load),
                cluster=ClusterSpec(second_tier_mem=24.0),
                estimator=EstimatorSpec(name="none"),
                label=f"cachetest@{load:g}",
            )
            for load in loads
        ]

    def test_repeated_base_workload_parses_once_per_process(self):
        clear_materialization_caches()
        specs = self._shared_workload_specs()
        for s in specs:
            simulate_spec(s)
        info = materialization_cache_info()
        # Three load points over one trace: the base workload is generated
        # exactly once; the memo holds nothing but bases.
        assert info == {
            "base_workload_hits": len(specs) - 1,
            "base_workload_misses": 1,
        }

    def test_each_materialize_builds_a_new_cluster_and_scaled_trace(self):
        spec = self._shared_workload_specs()[0]
        assert spec.cluster.materialize() is not spec.cluster.materialize()
        first, again = spec.workload.materialize(), spec.workload.materialize()
        assert first is not again
        assert list(first) == list(again)

    def test_simulate_spec_releases_the_trace_like_execute_spec(self):
        # The scalar engine builds the memoized base's jobs as their
        # arrivals fire, and the base keeps none: every scalar run builds
        # them all again, while the fast lane builds none.
        clear_materialization_caches()
        try:
            spec = RunSpec(workload=WorkloadSpec(n_jobs=200, seed=3))
            n_jobs = len(spec.workload.materialize())
            for run, want in ((simulate_spec, n_jobs), (execute_spec, 0),
                              (simulate_spec, n_jobs)):
                with jobs_built() as built:
                    run(spec)
                assert sum(built) == want, run
                assert spec_memo._BASE_WORKLOADS
        finally:
            clear_materialization_caches()

    def test_pool_worker_parses_repeated_workload_exactly_once(self):
        # Pollute the parent's caches first: under the fork start method a
        # worker inherits parent memory, so only the pool initializer's
        # cache reset makes the worker's counters start from zero.
        specs = self._shared_workload_specs()
        for s in specs:
            simulate_spec(s)
        try:
            pool = ProcessPoolExecutor(max_workers=1, initializer=_worker_init)
            with pool:
                for s in specs:
                    assert pool.submit(execute_spec, s).result().ok
                info = pool.submit(materialization_cache_info).result()
        except (OSError, ImportError, PermissionError):
            pytest.skip("no process pool in this environment")
        # The single worker executed every spec: one parse, the rest hits.
        assert info["base_workload_misses"] == 1
        assert info["base_workload_hits"] == len(specs) - 1

    def test_concurrent_in_process_sweeps_share_no_cluster(self):
        # Worst fit is the one cluster setting the fast lane does not cover,
        # so the scalar Simulation runs, allocating on and releasing from
        # the cluster it was given.  Four sweeps run side by side in one
        # process, as the service runs them.
        spec = RunSpec(
            workload=WorkloadSpec(n_jobs=1500, seed=3, load=0.9),
            cluster=ClusterSpec(strategy="worst_fit"),
            estimator=EstimatorSpec.make("successive", alpha=2.0, beta=0.0),
        )
        side_by_side = threading.Barrier(4, timeout=60)

        def sweep(_):
            side_by_side.wait()
            return run_sweep([spec], max_workers=1)

        with ThreadPoolExecutor(max_workers=4) as threads:
            reports = list(threads.map(sweep, range(4)))
        assert [r.outcomes[0].error for r in reports] == [None] * 4
        expected = simulate_spec(spec)
        assert [r.points()[0] for r in reports] == [expected] * 4


class TestSerialFallback:
    def test_oversubscribed_request_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        specs = small_specs("none")
        report = run_sweep(specs, max_workers=8)
        assert report.max_workers == 1  # what actually ran
        assert report.requested_workers == 8
        assert report.host_cpus == 1
        assert report.pool_spinup_time == 0.0  # no pool was built
        assert len(report.points()) == len(specs)

    def test_oversubscribe_flag_forces_a_pool(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        specs = small_specs("none")
        report = run_sweep(specs, max_workers=2, oversubscribe=True)
        assert report.max_workers == 2
        # Either a real pool spun up (and its cost was accounted separately)
        # or the environment offers no pool and the executor degraded
        # in-process — both keep the results intact.
        assert len(report.points()) == len(specs)

    def test_within_cpu_budget_keeps_the_pool(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        specs = small_specs("none")
        report = run_sweep(specs, max_workers=2)
        assert report.max_workers == 2
        assert report.host_cpus == 64
        assert len(report.points()) == len(specs)
