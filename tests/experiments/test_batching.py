"""Same-trace batching inside the sweep executor.

Covers the executor's use of :func:`repro.sim.batch.simulate_batch`:
base-trace grouping (load points stack via per-lane workload overrides) at
adaptive width up to the built-in cap of 16, point-for-point parity with
per-spec scalar execution (:func:`simulate_spec`), profile surfacing, and
the per-spec fallback when a batch member fails.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    SweepError,
    _same_workload_batches,
    _spec_batch_config,
    execute_batch,
    run_sweep,
    simulate_spec,
)
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    RunSpec,
    WorkloadSpec,
)

CFG = ExperimentConfig(n_jobs=600, loads=(0.6, 0.9))


def grid_specs(estimators=("none", "successive"), loads=None):
    """A small grid sharing one base trace per load — the batchable shape."""
    loads = CFG.loads if loads is None else loads
    return [
        RunSpec(
            workload=WorkloadSpec(n_jobs=CFG.n_jobs, seed=CFG.seed, load=load),
            cluster=ClusterSpec(second_tier_mem=CFG.second_tier_mem),
            estimator=EstimatorSpec(name=name),
            seed=CFG.seed,
            label=f"{name}@{load:g}",
        )
        for name in estimators
        for load in loads
    ]


class TestBatchGrouping:
    def test_groups_by_base_trace_across_loads(self):
        specs = grid_specs()
        batches = _same_workload_batches(specs)
        # 4 specs over 2 loads of one base trace: load scaling only rewrites
        # arrival times, so the whole estimator x load grid is one batch —
        # ordered with same-load specs adjacent (one decode per load point).
        assert batches == [[0, 2, 1, 3]]
        base_keys = {spec.workload.base_key() for spec in specs}
        assert len(base_keys) == 1

    def test_interleaved_grid_stacks_full_width(self):
        # Two distinct base traces (different seeds) interleaved by an
        # estimator outer loop: grouping must reassemble full-width batches
        # instead of chunking the submission order into mixed fragments.
        def spec(name, seed):
            return RunSpec(
                workload=WorkloadSpec(n_jobs=CFG.n_jobs, seed=seed, load=0.8),
                cluster=ClusterSpec(second_tier_mem=CFG.second_tier_mem),
                estimator=EstimatorSpec(name=name),
                seed=CFG.seed,
                label=f"{name}@{seed}",
            )

        specs = [
            spec(name, seed)
            for name in ("none", "successive")
            for seed in (1, 2)
        ]
        batches = _same_workload_batches(specs)
        assert batches == [[0, 2], [1, 3]]

    def test_chunks_to_batch_size(self):
        specs = grid_specs(estimators=("none", "successive", "oracle"),
                           loads=(0.8,))
        batches = _same_workload_batches(specs, cap=2)
        assert sorted(len(b) for b in batches) == [1, 2]

    def test_deep_stack_rides_one_frontier_serially(self):
        # Eight configs over one trace, serial executor: width grows to the
        # stack depth instead of chunking at a fixed 4.
        specs = grid_specs(
            estimators=("none", "successive", "oracle", "last-instance"),
            loads=CFG.loads,
        )
        batches = _same_workload_batches(specs)
        assert [len(b) for b in batches] == [8]

    def test_deep_stack_splits_to_keep_pool_busy(self):
        # Same stack, four workers, one group: the group splits into four
        # balanced units so batching does not starve the pool.
        specs = grid_specs(
            estimators=("none", "successive", "oracle", "last-instance"),
            loads=CFG.loads,
        )
        batches = _same_workload_batches(specs, workers=4)
        assert [len(b) for b in batches] == [2, 2, 2, 2]

    def test_enough_groups_keep_full_depth_under_pool(self):
        # With at least as many groups as workers there is no reason to
        # split: each group stays one full-depth unit.
        specs = [
            RunSpec(
                workload=WorkloadSpec(n_jobs=CFG.n_jobs, seed=seed, load=0.8),
                cluster=ClusterSpec(second_tier_mem=CFG.second_tier_mem),
                estimator=EstimatorSpec(name=name),
                seed=CFG.seed,
                label=f"{name}@{seed}",
            )
            for seed in (1, 2, 3, 4)
            for name in ("none", "successive")
        ]
        batches = _same_workload_batches(specs, workers=4)
        assert [len(b) for b in batches] == [2, 2, 2, 2]



class TestWidthResolution:
    def test_builtin_default(self):
        # A 20-deep stack over one trace exceeds the built-in cap of 16, so
        # it splits into two balanced units.
        specs = grid_specs(estimators=("none",) * 10, loads=CFG.loads)
        batches = _same_workload_batches(specs)
        assert [len(b) for b in batches] == [10, 10]


class TestBatchedSweepParity:
    def test_batched_serial_sweep_matches_unbatched(self):
        specs = grid_specs()
        batched = run_sweep(specs, max_workers=1)
        assert batched.points() == [simulate_spec(s) for s in specs]
        # Both load points stack into one batch of four.
        assert all(o.batch_width == 4 for o in batched.outcomes)
        profile = batched.profile()
        assert profile.n_batched == len(specs)
        assert profile.mean_batch_width == pytest.approx(4.0)
        assert "same-trace batches" in profile.format_report()

    def test_batched_pool_sweep_matches_unbatched(self):
        specs = grid_specs()
        pooled = run_sweep(specs, max_workers=2, oversubscribe=True)
        assert pooled.points() == [simulate_spec(s) for s in specs]
        assert pooled.profile().n_batched == len(specs)

    def test_failed_member_falls_back_to_per_spec_execution(self):
        # Three specs share one trace; the middle one names an estimator
        # that cannot materialize.  The batch attempt fails as a whole, the
        # executor retries each member solo, and only the doomed spec
        # reports an error.
        specs = grid_specs(loads=(0.8,))
        bad = RunSpec(
            workload=specs[0].workload,
            cluster=specs[0].cluster,
            estimator=EstimatorSpec(name="no-such-estimator"),
            seed=CFG.seed,
            label="doomed",
        )
        report = run_sweep(specs[:1] + [bad] + specs[1:], max_workers=1)
        assert report.n_errors == 1
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert "no-such-estimator" in report.outcomes[1].error
        with pytest.raises(SweepError, match="doomed"):
            report.points()
        # The surviving members still match their scalar runs.
        good = [o.point for o in report.outcomes if o.ok]
        assert good == [simulate_spec(s) for s in specs]

    def test_execute_batch_singleton_uses_scalar_path(self):
        specs = grid_specs(estimators=("none",), loads=(0.8,))
        outcomes = execute_batch(specs)
        assert len(outcomes) == 1
        assert outcomes[0].ok
        assert outcomes[0].batch_width == 1


class TestAttemptCollection:
    def test_default_spec_canonicalizes_without_the_field(self):
        # Back-compat: pre-existing cache keys and recorded canonical docs
        # must not change for specs that never asked for attempts.
        spec = grid_specs(estimators=("none",), loads=(0.8,))[0]
        assert "collect_attempts" not in spec.canonical()
        collecting = RunSpec(
            workload=spec.workload,
            cluster=spec.cluster,
            estimator=spec.estimator,
            seed=spec.seed,
            collect_attempts=True,
        )
        assert collecting.canonical()["collect_attempts"] is True
        assert collecting.cache_key() != spec.cache_key()

    def test_lane_config_honors_per_spec_attempts(self):
        # Only specs that opted in keep the per-attempt trace.
        spec = grid_specs(estimators=("none",), loads=(0.8,))[0]
        assert _spec_batch_config(spec).collect_attempts is False
        collecting = RunSpec(
            workload=spec.workload,
            cluster=spec.cluster,
            estimator=spec.estimator,
            seed=spec.seed,
            collect_attempts=True,
        )
        assert _spec_batch_config(collecting).collect_attempts is True

    def test_mixed_collection_batch_executes_together(self):
        # A mixed batch: one lane wants the per-attempt trace, its
        # batch-mates do not.  The collecting spec stays in the batched
        # group (per-lane flag) instead of being routed to per-spec
        # execution; attempt parity itself is gated in tests/sim/test_batch.
        specs = grid_specs(estimators=("none", "successive"), loads=(0.8,))
        collecting = RunSpec(
            workload=specs[0].workload,
            cluster=specs[0].cluster,
            estimator=EstimatorSpec(name="successive"),
            seed=CFG.seed,
            label="collector",
            collect_attempts=True,
        )
        outcomes = execute_batch(specs + [collecting])
        assert all(o.ok for o in outcomes)
        assert all(o.batch_width == 3 for o in outcomes)
