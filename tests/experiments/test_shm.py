"""Shared-memory fan-out of base workloads: handle round trips, segment
lifecycle, the pickle fallback, and the batched pool scheduler around them.

Pool tests need the ``fork`` start method so monkeypatched module state
(e.g. shared memory disabled) is inherited by the workers.
"""

import glob
import multiprocessing

import pytest

import repro.experiments.shm as shm_mod
from repro.experiments.parallel import execute_batch, execute_spec, run_sweep
from repro.experiments.shm import ColumnsHandle, SharedBaseStore
from repro.experiments.specs import (
    EstimatorSpec,
    RunSpec,
    WorkloadSpec,
    _BASE_WORKLOADS,
    clear_materialization_caches,
    install_shared_columns,
    materialize_base_workload,
)

from tests.sim.engine_reference import jobs_built

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool tests need fork workers (patched modules inherited)",
)


def spec(load=0.5, estimator="none", n_jobs=300, seed=0):
    return RunSpec(
        workload=WorkloadSpec(n_jobs=n_jobs, seed=seed, load=load),
        estimator=EstimatorSpec(name=estimator),
        label=f"{estimator}@{load:g}",
    )


@pytest.fixture(autouse=True)
def _clean_caches():
    clear_materialization_caches()
    install_shared_columns(None)
    yield
    clear_materialization_caches()
    install_shared_columns(None)


class TestPublishAttach:
    def test_round_trip_preserves_the_workload_exactly(self):
        base = materialize_base_workload(spec().workload)
        store = SharedBaseStore()
        try:
            handle = store.publish(spec().workload.base_key(), base)
            assert handle.kind == "shm"
            attached = handle.attach()
            assert list(attached) == list(base)
            assert attached.total_nodes == base.total_nodes
            assert attached.node_mem == base.node_mem
            assert attached.name == base.name
        finally:
            store.close()

    def test_attached_columns_are_read_only_views(self):
        base = materialize_base_workload(spec().workload)
        store = SharedBaseStore()
        try:
            attached = store.publish(spec().workload.base_key(), base).attach()
            with pytest.raises((ValueError, RuntimeError)):
                attached.as_columns().submit_time[0] = -1.0
        finally:
            store.close()

    def test_close_unlinks_every_segment(self):
        base = materialize_base_workload(spec().workload)
        store = SharedBaseStore()
        handle = store.publish(spec().workload.base_key(), base)
        names = store.segment_names()
        assert names
        store.close()
        assert store.segment_names() == []
        with pytest.raises(FileNotFoundError):
            shm_mod._attach_segment(handle.segment_name)
        store.close()  # idempotent

    def test_inline_fallback_when_shared_memory_unavailable(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "_shared_memory", None)
        base = materialize_base_workload(spec().workload)
        store = SharedBaseStore()
        try:
            handle = store.publish(spec().workload.base_key(), base)
            assert handle.kind == "inline"
            assert store.segment_names() == []
            assert list(handle.attach()) == list(base)
        finally:
            store.close()

    def test_installed_handle_short_circuits_materialization(self):
        base = materialize_base_workload(spec().workload)
        store = SharedBaseStore()
        try:
            handle = store.publish(spec().workload.base_key(), base)
            clear_materialization_caches()
            install_shared_columns([handle])
            again = materialize_base_workload(spec().workload)
            assert list(again) == list(base)
            # Attached views, not a regenerated trace:
            assert not again.as_columns().submit_time.flags.writeable
        finally:
            store.close()


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


needs_dev_shm = pytest.mark.skipif(
    not glob.glob("/dev/shm"), reason="no /dev/shm on this platform"
)


class TestSweepLifecycle:
    @fork_only
    @needs_dev_shm
    def test_segments_unlinked_after_normal_sweep(self):
        before = _shm_segments()
        report = run_sweep(
            [spec(load=0.4), spec(load=0.6)],
            max_workers=2,
            oversubscribe=True,
        )
        assert report.n_errors == 0
        assert _shm_segments() - before == set()

    @fork_only
    def test_pool_parity_with_inline_fallback(self, monkeypatch):
        specs = [spec(load=l, estimator=e)
                 for e in ("none", "successive") for l in (0.5, 0.8)]
        serial = run_sweep(specs, max_workers=1)
        monkeypatch.setattr(shm_mod, "_shared_memory", None)
        pooled = run_sweep(specs, max_workers=2, oversubscribe=True)
        assert pooled.points() == serial.points()

    @fork_only
    def test_pool_parity_with_shared_memory(self):
        specs = [spec(load=l, estimator=e)
                 for e in ("none", "successive") for l in (0.5, 0.8)]
        serial = run_sweep(specs, max_workers=1)
        pooled = run_sweep(specs, max_workers=2, oversubscribe=True)
        assert pooled.points() == serial.points()


class TestWorkerDataPlane:
    def test_execute_spec_trims_materialized_jobs(self):
        # An unscaled point runs on the memoized base itself, and a
        # protocol-mode estimator's lane builds its job list from it.  The
        # base keeps none of it: the next run builds the list again.
        spec = RunSpec(
            workload=WorkloadSpec(n_jobs=300, seed=0),
            estimator=EstimatorSpec(name="last-instance"),
        )
        n_jobs = len(spec.workload.materialize())
        for _ in range(2):
            with jobs_built() as built:
                outcome = execute_spec(spec)
            assert outcome.ok, outcome.error
            assert built == [n_jobs]
        assert outcome.worker_rss_kb >= 0
        assert _BASE_WORKLOADS

    def test_execute_batch_returns_per_spec_outcomes_in_order(self):
        specs = [spec(load=0.4), spec(load=0.6)]
        outcomes = execute_batch(specs)
        assert [o.spec for o in outcomes] == specs
        assert all(o.ok for o in outcomes)
        singles = [execute_spec(s) for s in specs]
        assert [o.point for o in outcomes] == [o.point for o in singles]

    def test_batch_errors_stay_per_spec(self):
        bad = RunSpec(
            workload=WorkloadSpec(n_jobs=300, seed=0, load=0.5),
            estimator=EstimatorSpec(name="no-such-estimator"),
        )
        outcomes = execute_batch([spec(load=0.4), bad])
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert "no-such-estimator" in outcomes[1].error

    def test_peak_worker_rss_is_reported(self):
        report = run_sweep([spec(load=0.4)], max_workers=1)
        assert report.peak_worker_rss_kb > 0  # serial path: parent's own RSS
