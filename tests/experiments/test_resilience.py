"""Crash resilience of the sweep executor: worker death, timeouts, retries,
and checkpoint/resume.

The process-killing tests need the ``fork`` start method: the crashing
estimators below are registered in *this* module, and only forked workers
inherit the registration (spawned workers re-import a clean registry).
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.baselines import NoEstimation
from repro.experiments.cache import SweepCache
from repro.experiments.parallel import (
    ResilienceConfig,
    SweepCheckpoint,
    run_sweep,
    set_default_resilience,
)
from repro.experiments.specs import (
    EstimatorSpec,
    RunSpec,
    WorkloadSpec,
    register_estimator,
)
from repro.sim.metrics import utilization  # noqa: F401  (import sanity)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash tests need fork workers (registry inherited from parent)",
)


class KillWorkerOnce(NoEstimation):
    """SIGKILLs its own process on first construction (then behaves)."""

    name = "kill-worker-once"

    def __init__(self, sentinel: str = ""):
        super().__init__()
        if sentinel and not os.path.exists(sentinel):
            with open(sentinel, "w") as fh:
                fh.write("killed\n")
            os.kill(os.getpid(), signal.SIGKILL)


class FlakyOnce(NoEstimation):
    """Raises on first construction (then behaves) — the retry target."""

    name = "flaky-once"

    def __init__(self, sentinel: str = ""):
        super().__init__()
        if sentinel and not os.path.exists(sentinel):
            with open(sentinel, "w") as fh:
                fh.write("failed\n")
            raise RuntimeError("transient failure (first attempt)")


class SlowOnce(NoEstimation):
    """Sleeps past any reasonable timeout on first construction."""

    name = "slow-once"

    def __init__(self, sentinel: str = "", delay: float = 3.0):
        super().__init__()
        if sentinel and not os.path.exists(sentinel):
            with open(sentinel, "w") as fh:
                fh.write("slept\n")
            time.sleep(delay)


register_estimator("kill-worker-once", KillWorkerOnce)
register_estimator("flaky-once", FlakyOnce)
register_estimator("slow-once", SlowOnce)


def spec(estimator="none", load=0.5, n_jobs=300, **est_kwargs):
    est = (
        EstimatorSpec.make(estimator, **est_kwargs)
        if est_kwargs
        else EstimatorSpec(name=estimator)
    )
    return RunSpec(
        workload=WorkloadSpec(n_jobs=n_jobs, seed=0, load=load),
        estimator=est,
        label=f"{estimator}@{load:g}",
    )


class TestWorkerDeath:
    @fork_only
    def test_sigkilled_worker_does_not_lose_the_sweep(self, tmp_path):
        # One spec SIGKILLs its worker mid-sweep (breaking the whole pool);
        # the executor must rebuild the pool, keep every completed outcome,
        # and finish with correct, cache-consistent results.
        sentinel = tmp_path / "killed"
        specs = [
            spec(load=0.4),
            spec("kill-worker-once", load=0.5, sentinel=str(sentinel)),
            spec(load=0.6),
            spec(load=0.7),
        ]
        cache = SweepCache(tmp_path / "cache")
        report = run_sweep(specs, max_workers=2, oversubscribe=True, cache=cache)
        assert sentinel.exists(), "the kill never fired"
        assert report.n_errors == 0
        assert report.n_pool_rebuilds >= 1
        assert len(report.points()) == 4
        # Every result (pre- and post-crash) was committed incrementally:
        # a rerun is pure cache hits and point-for-point identical.
        rerun = run_sweep(specs, max_workers=2, oversubscribe=True, cache=SweepCache(tmp_path / "cache"))
        assert rerun.n_cache_hits == 4
        assert rerun.points() == report.points()

    @fork_only
    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
    )
    def test_shared_segments_unlinked_after_sigkilled_worker(self, tmp_path):
        # A SIGKILLed worker never runs cleanup of its own; the *parent*
        # owns the shared-memory segments (repro.experiments.shm) and must
        # unlink them even when the pool breaks and is rebuilt mid-sweep.
        import glob

        before = set(glob.glob("/dev/shm/psm_*"))
        sentinel = tmp_path / "killed"
        report = run_sweep(
            [
                spec(load=0.4),
                spec("kill-worker-once", load=0.5, sentinel=str(sentinel)),
                spec(load=0.6),
            ],
            max_workers=2,
            oversubscribe=True,
        )
        assert sentinel.exists(), "the kill never fired"
        assert report.n_errors == 0
        assert report.n_pool_rebuilds >= 1
        assert set(glob.glob("/dev/shm/psm_*")) - before == set()

    @fork_only
    def test_repeat_offender_is_quarantined_in_process(self, tmp_path):
        # A spec that kills its worker every time (no sentinel reprieve after
        # the first crash: fresh sentinel per attempt via crash-count naming
        # is overkill — simplest is a spec that always kills) must not
        # crash-loop the sweep forever; after the quarantine threshold it
        # runs in the parent process, where construction succeeds only if
        # the sentinel exists.  Use a sentinel the parent pre-creates so the
        # quarantined in-process run cannot kill the test process itself.
        sentinel = tmp_path / "killed"
        killer = spec("kill-worker-once", load=0.5, sentinel=str(sentinel))
        report = run_sweep([spec(load=0.4), killer], max_workers=2, oversubscribe=True)
        # First worker crash creates the sentinel; any resubmission (pool or
        # quarantine) then constructs cleanly.
        assert report.n_errors == 0
        assert report.n_pool_rebuilds >= 1

    def test_pool_unavailable_falls_back_to_in_process(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        def no_pool(*args, **kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", no_pool)
        report = run_sweep([spec(load=0.4), spec(load=0.6)], max_workers=2, oversubscribe=True)
        assert report.n_errors == 0
        assert len(report.points()) == 2

    def test_unexpected_pool_error_is_not_swallowed(self, monkeypatch):
        # Regression: a broad `except RuntimeError` here used to catch
        # BrokenProcessPool (a RuntimeError subclass), silently discard all
        # completed results, and rerun the whole grid in-process.  Arbitrary
        # RuntimeErrors must propagate, not trigger the fallback.
        import repro.experiments.parallel as parallel_mod

        def broken(*args, **kwargs):
            raise RuntimeError("not an environment problem")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", broken)
        with pytest.raises(RuntimeError, match="not an environment problem"):
            run_sweep([spec(load=0.4), spec(load=0.6)], max_workers=2, oversubscribe=True)


class TestRetries:
    def test_serial_retry_recovers_transient_failure(self, tmp_path):
        flaky = spec("flaky-once", sentinel=str(tmp_path / "f1"))
        report = run_sweep([flaky], max_workers=1, max_retries=2, retry_backoff=0.0)
        assert report.n_errors == 0
        assert report.n_retries == 1

    @fork_only
    def test_parallel_retry_recovers_transient_failure(self, tmp_path):
        flaky = spec("flaky-once", sentinel=str(tmp_path / "f2"))
        report = run_sweep(
            [spec(load=0.4), flaky],
            max_workers=2, oversubscribe=True,
            max_retries=2,
            retry_backoff=0.0,
        )
        assert report.n_errors == 0
        assert report.n_retries == 1
        assert len(report.points()) == 2

    def test_retries_are_bounded(self, tmp_path):
        # Never creates its sentinel -> fails every attempt.
        always_bad = spec("flaky-once")  # no sentinel: never raises...
        always_bad = RunSpec(
            workload=WorkloadSpec(n_jobs=300, seed=0, load=0.5),
            estimator=EstimatorSpec(name="no-such-estimator"),
            label="doomed",
        )
        report = run_sweep([always_bad], max_workers=1, max_retries=2)
        assert report.n_errors == 1
        assert report.n_retries == 2
        assert "retries" in report.summary()

    @fork_only
    def test_timeout_abandons_run_then_retry_succeeds(self, tmp_path):
        slow = spec("slow-once", sentinel=str(tmp_path / "s1"), delay=15.0)
        report = run_sweep(
            [slow, spec(load=0.4)],
            max_workers=2, oversubscribe=True,
            timeout=1.0,
            max_retries=1,
            retry_backoff=0.0,
        )
        assert report.n_timeouts == 1
        assert report.n_retries == 1
        assert report.n_errors == 0

    @fork_only
    def test_timeout_without_retries_reports_error(self, tmp_path):
        slow = spec("slow-once", sentinel=str(tmp_path / "s2"), delay=15.0)
        report = run_sweep([slow, spec(load=0.4)], max_workers=2, oversubscribe=True, timeout=1.0)
        assert report.n_timeouts == 1
        assert report.n_errors == 1
        timed_out = [o for o in report.outcomes if not o.ok]
        assert "timed out" in timed_out[0].error


class TestCheckpoint:
    def test_record_and_load_round_trip(self, tmp_path):
        manifest = SweepCheckpoint(tmp_path / "sweep.jsonl")
        s = spec(load=0.4)
        report = run_sweep([s], checkpoint=manifest)
        restored = manifest.load()
        assert list(restored) == [s.cache_key()]
        assert restored[s.cache_key()] == report.points()[0]
        assert len(manifest) == 1

    def test_load_tolerates_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        manifest = SweepCheckpoint(path)
        s = spec(load=0.4)
        run_sweep([s], checkpoint=manifest)
        with open(path, "a") as fh:
            fh.write('{"version": 99, "key": "other-schema"}\n')
            fh.write("null\n")
            fh.write("[1, 2]\n")
            fh.write('{"version": 1, "key": "torn", "point": {"loa')  # no \n
        assert list(manifest.load()) == [s.cache_key()]

    def test_missing_file_is_empty(self, tmp_path):
        assert SweepCheckpoint(tmp_path / "never-written.jsonl").load() == {}

    def test_killed_sweep_resumes_from_partial_results(self, tmp_path):
        # Simulate a sweep killed after two of three points: the manifest
        # holds the completed pair; the re-run recomputes only the third.
        path = tmp_path / "sweep.jsonl"
        specs = [spec(load=0.4), spec(load=0.5), spec(load=0.6)]
        full = run_sweep(specs, checkpoint=SweepCheckpoint(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")  # "crash" after point 2

        resumed = run_sweep(specs, checkpoint=SweepCheckpoint(path))
        assert resumed.n_resumed == 2
        assert resumed.points() == full.points()
        assert "resumed from checkpoint" in resumed.summary()
        # The recomputed third point was appended; a further run resumes all.
        assert run_sweep(specs, checkpoint=SweepCheckpoint(path)).n_resumed == 3

    def test_checkpoint_promotes_into_cache(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs = [spec(load=0.4), spec(load=0.5)]
        run_sweep(specs, checkpoint=SweepCheckpoint(path))  # no cache yet
        cache = SweepCache(tmp_path / "cache")
        report = run_sweep(specs, cache=cache, checkpoint=SweepCheckpoint(path))
        assert report.n_resumed == 2
        assert len(cache) == 2  # restored points were written through

    def test_checkpoint_path_accepted_as_string(self, tmp_path):
        report = run_sweep([spec(load=0.4)], checkpoint=str(tmp_path / "m.jsonl"))
        assert (tmp_path / "m.jsonl").exists()
        assert len(report.points()) == 1

    def test_record_payload_is_versioned_json(self, tmp_path):
        manifest = SweepCheckpoint(tmp_path / "m.jsonl")
        run_sweep([spec(load=0.4)], checkpoint=manifest)
        doc = json.loads((tmp_path / "m.jsonl").read_text().splitlines()[0])
        assert doc["version"] == 1
        assert set(doc) == {"version", "key", "label", "wall_time", "point"}


class TestResilienceDefaults:
    def test_set_default_resilience_applies_and_restores(self, tmp_path):
        manifest_path = tmp_path / "default.jsonl"
        previous = set_default_resilience(
            ResilienceConfig(max_retries=1, checkpoint=manifest_path)
        )
        try:
            run_sweep([spec(load=0.4)])
            assert manifest_path.exists()
        finally:
            assert set_default_resilience(previous).max_retries == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(timeout=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(retry_backoff=-0.1)
