"""Crash resilience of the sweep executor: worker death, timeouts, retries,
and resuming a killed sweep from its cache.

The process-killing tests need the ``fork`` start method: the crashing
estimators below are registered in *this* module, and only forked workers
inherit the registration (spawned workers re-import a clean registry).
"""

import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.baselines import NoEstimation
from repro.experiments.cache import SweepCache
from repro.experiments.parallel import run_sweep
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


class AlwaysRaises(NoEstimation):
    """Logs each construction to ``log``, then raises: a deterministic bug."""

    name = "always-raises"

    def __init__(self, log: str = ""):
        super().__init__()
        with open(log, "a") as fh:
            fh.write("constructed\n")
        raise ValueError("bad estimator parameters")


class SlowOnce(NoEstimation):
    """Sleeps past any reasonable timeout on first construction."""

    name = "slow-once"

    def __init__(self, sentinel: str = "", delay: float = 3.0):
        super().__init__()
        if sentinel and not os.path.exists(sentinel):
            with open(sentinel, "w") as fh:
                fh.write("slept\n")
            time.sleep(delay)


class AlwaysSlow(NoEstimation):
    """Sleeps ``delay`` seconds on every construction."""

    name = "always-slow"

    def __init__(self, delay: float = 2.0):
        super().__init__()
        time.sleep(delay)


register_estimator("kill-worker-once", KillWorkerOnce)
register_estimator("always-raises", AlwaysRaises)
register_estimator("slow-once", SlowOnce)
register_estimator("always-slow", AlwaysSlow)


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
        # A spec that kills its worker once (its sentinel spares every later
        # construction) is in flight for one crash, below the quarantine
        # threshold: it goes back to the rebuilt pool and succeeds there.
        # A spec that kills its worker every time is the child interpreter
        # of test_poison_spec_never_runs_in_the_caller.
        sentinel = tmp_path / "killed"
        killer = spec("kill-worker-once", load=0.5, sentinel=str(sentinel))
        report = run_sweep([spec(load=0.4), killer], max_workers=2, oversubscribe=True)
        assert report.n_errors == 0
        assert report.n_pool_rebuilds >= 1

    @fork_only
    def test_poison_spec_never_runs_in_the_caller(self, tmp_path):
        # A fresh interpreter, since a poison spec run in the calling
        # process kills it.  Both specs are in flight for two crashes and
        # are quarantined: each then runs alone on the pool.  The bystander
        # succeeds; the poison spec's third crash is its own and fails it.
        out, err = tmp_path / "out", tmp_path / "err"
        with out.open("w") as stdout, err.open("w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", _POISON_SWEEP], env=_env_with_src(),
                stdout=stdout, stderr=stderr, start_new_session=True,
            )
            try:
                returncode = proc.wait(timeout=120)
            finally:
                # A killed sweep leaves its pool's workers behind.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert returncode == 0, err.read_text()
        same_point, rebuilds, error = out.read_text().splitlines()
        assert same_point == "True"
        assert rebuilds == "3"
        assert error == (
            "in flight for 3 worker crashes and not rerun: "
            "a worker died running it alone"
        )

    @fork_only
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists children via /proc")
    def test_workers_end_with_a_killed_sweep(self, tmp_path):
        # A sweep process SIGKILLed while both its workers run: the workers
        # (and the resource tracker they keep alive) must not outlive it.
        proc = subprocess.Popen(
            [sys.executable, "-c", _STUCK_SWEEP, str(tmp_path)],
            env=_env_with_src(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        children = []
        try:
            deadline = time.monotonic() + 60
            while len(list(tmp_path.glob("worker-*"))) < 2:
                assert proc.poll() is None, "the sweep exited early"
                assert time.monotonic() < deadline, "the workers never started"
                time.sleep(0.05)
            children = _children_of(proc.pid)
            workers = {int(p.name.split("-")[1]) for p in tmp_path.glob("worker-*")}
            assert workers <= set(children)
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10
            while [pid for pid in children if _running(pid)]:
                assert time.monotonic() < deadline, (
                    f"alive 10 s after the sweep died: "
                    f"{[pid for pid in children if _running(pid)]}"
                )
                time.sleep(0.1)
        finally:
            for pid in [pid for pid in children if _running(pid)] + [-proc.pid]:
                try:
                    os.kill(pid, signal.SIGKILL)  # -pid: the child's session
                except ProcessLookupError:
                    pass
            proc.wait(timeout=30)

    @fork_only
    def test_crashed_spec_is_not_drained_in_process(self, monkeypatch, tmp_path):
        # No pool starts after the crash: the rest of the sweep runs
        # in-process, except the specs that were in flight when the worker
        # died.  The killer's sentinel would let it construct here, so only
        # the drain rule keeps it off this process.
        import repro.experiments.parallel as parallel_mod

        real_pool, pools = parallel_mod.ProcessPoolExecutor, []

        def first_pool_only(*args, **kwargs):
            if pools:
                raise OSError("no second pool in this sandbox")
            pools.append(real_pool(*args, **kwargs))
            return pools[0]

        sentinel = tmp_path / "killed"
        killer = spec("kill-worker-once", load=0.5, sentinel=str(sentinel))
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", first_pool_only)
        report = run_sweep([killer, spec(load=0.6)], max_workers=2, oversubscribe=True)
        assert sentinel.exists(), "the kill never fired"
        assert report.outcomes[0].error == (
            "in flight for 1 worker crashes and not rerun: no process pool is left"
        )

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
    def test_raising_spec_runs_once(self, tmp_path):
        # A simulation is a pure function of its spec: a spec that raised
        # would raise again, so it is reported after one run, retries or not.
        log = tmp_path / "constructions"
        bad = spec("always-raises", log=str(log))
        report = run_sweep([bad], max_workers=1, max_retries=3)
        assert report.n_errors == 1 and report.n_retries == 0
        assert "bad estimator parameters" in report.outcomes[0].error
        assert report.outcomes[0].retries == 0
        assert log.read_text().count("constructed") == 1

    @fork_only
    def test_raising_spec_runs_once_on_a_pool(self, tmp_path):
        log = tmp_path / "constructions"
        bad = spec("always-raises", log=str(log))
        report = run_sweep(
            [spec(load=0.4), bad],
            max_workers=2, oversubscribe=True,
            max_retries=3, timeout=60.0,
        )
        assert report.n_errors == 1 and report.n_retries == 0
        assert "bad estimator parameters" in report.outcomes[1].error
        assert report.outcomes[1].retries == 0
        assert log.read_text().count("constructed") == 1

    @fork_only
    def test_timeout_abandons_run_then_retry_succeeds(self, tmp_path):
        slow = spec("slow-once", sentinel=str(tmp_path / "s1"), delay=15.0)
        report = run_sweep(
            [slow, spec(load=0.4)],
            max_workers=2, oversubscribe=True,
            timeout=1.0,
            max_retries=1,
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

    @fork_only
    def test_retries_are_bounded(self, tmp_path):
        # A run that times out on every attempt is resubmitted at most
        # max_retries times; its outcome says how often.
        slow = spec("always-slow", delay=2.0)
        report = run_sweep([slow], max_workers=1, timeout=0.3, max_retries=1)
        assert report.n_timeouts == 2
        assert report.n_retries == 1
        assert report.n_errors == 1
        (outcome,) = report.outcomes
        assert outcome.retries == 1 and "timed out" in outcome.error
        assert report.profile().total_retries == 1
        assert "retries" in report.summary()

    @fork_only
    def test_retry_waits_for_a_free_worker(self, tmp_path):
        # Both first runs time out but keep their workers for 6 s.  A retry
        # submitted before they finish would queue behind them with its
        # timer running, and time out without ever running.
        slow = [
            spec("slow-once", load=load, sentinel=str(tmp_path / f"s{i}"), delay=6.0)
            for i, load in enumerate((0.4, 0.6))
        ]
        report = run_sweep(
            slow, max_workers=2, oversubscribe=True, timeout=2.0, max_retries=1
        )
        assert report.n_timeouts == 2
        assert report.n_retries == 2
        assert report.n_errors == 0

    @fork_only
    def test_timeout_holds_on_the_serial_path(self, tmp_path):
        slow = spec("slow-once", sentinel=str(tmp_path / "s3"), delay=3.0)
        t0 = time.monotonic()
        report = run_sweep([slow], max_workers=1, timeout=0.5)
        assert time.monotonic() - t0 < 2.5
        assert report.n_timeouts == 1
        assert report.n_errors == 1

    @fork_only
    def test_timed_out_run_is_stopped_with_its_worker(self):
        # A fresh interpreter: the sweep returns at the timeout, and the
        # process exits without waiting for the 8 s run to finish.
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _TIMED_OUT_SWEEP],
            env=_env_with_src(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]
        assert "Traceback" not in proc.stderr
        assert time.monotonic() - t0 < 4.0

    @fork_only
    def test_bystander_of_a_timeout_is_charged_nothing(self, tmp_path):
        # "hang" times out at 2 s while "bystander" (submitted at ~1 s, once
        # "warm" returns) still sleeps: the pool is replaced under both, and
        # the bystander reruns on the new pool without a retry.
        hang = spec("always-slow", load=0.4, delay=8.0)
        warm = spec("slow-once", load=0.5, sentinel=str(tmp_path / "w"), delay=1.0)
        bystander = spec("slow-once", load=0.6, sentinel=str(tmp_path / "b"), delay=5.0)
        report = run_sweep(
            [hang, warm, bystander], max_workers=2, oversubscribe=True, timeout=2.0
        )
        assert (tmp_path / "b").exists(), "the bystander never started"
        assert report.n_timeouts == 1 and report.n_retries == 0
        assert report.n_pool_rebuilds == 0
        assert "timed out" in report.outcomes[0].error
        assert report.outcomes[1].ok and report.outcomes[2].ok
        assert report.outcomes[2].retries == 0

    def test_timeout_without_a_pool_is_logged(self, monkeypatch, caplog):
        import repro.experiments.parallel as parallel_mod

        def no_pool(*args, **kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", no_pool)
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            report = run_sweep([spec(load=0.4)], max_workers=1, timeout=30.0)
        assert report.n_errors == 0
        assert "cannot be enforced" in caplog.text


#: A sweep of one run that sleeps 8 s, under a 0.5 s timeout.
_TIMED_OUT_SWEEP = """
import time
from repro.core.baselines import NoEstimation
from repro.experiments.parallel import run_sweep
from repro.experiments.specs import EstimatorSpec, RunSpec, WorkloadSpec, register_estimator

class AlwaysSlow(NoEstimation):
    def __init__(self, delay):
        super().__init__()
        time.sleep(delay)

register_estimator("always-slow", AlwaysSlow)
spec = RunSpec(
    workload=WorkloadSpec(n_jobs=300, seed=0, load=0.5),
    estimator=EstimatorSpec.make("always-slow", delay=8.0),
)
report = run_sweep([spec], max_workers=1, timeout=0.5)
print(report.n_timeouts, report.n_errors)
"""


def _env_with_src() -> dict:
    src = Path(__file__).resolve().parents[2] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))


#: A sweep of a bystander beside a spec that SIGKILLs every worker it runs in.
_POISON_SWEEP = """
import os, signal
from repro.core.baselines import NoEstimation
from repro.experiments.parallel import run_sweep, simulate_spec
from repro.experiments.specs import EstimatorSpec, RunSpec, WorkloadSpec, register_estimator

class AlwaysKills(NoEstimation):
    def __init__(self):
        super().__init__()
        os.kill(os.getpid(), signal.SIGKILL)

register_estimator("always-kills", AlwaysKills)
bystander = RunSpec(workload=WorkloadSpec(n_jobs=300, seed=0, load=0.4))
poison = RunSpec(
    workload=WorkloadSpec(n_jobs=300, seed=0, load=0.5),
    estimator=EstimatorSpec(name="always-kills"),
)
report = run_sweep([bystander, poison], max_workers=2, oversubscribe=True)
print(report.outcomes[0].point == simulate_spec(bystander))
print(report.n_pool_rebuilds)
print(report.outcomes[1].error)
"""


#: A sweep of two runs on two workers, each of which marks its worker's pid
#: in the directory ``argv[1]`` and then never finishes.
_STUCK_SWEEP = """
import os, sys, time
from repro.core.baselines import NoEstimation
from repro.experiments.parallel import run_sweep
from repro.experiments.specs import EstimatorSpec, RunSpec, WorkloadSpec, register_estimator

class Stuck(NoEstimation):
    def __init__(self):
        super().__init__()
        open(os.path.join(sys.argv[1], f"worker-{os.getpid()}"), "w").close()
        time.sleep(600)

register_estimator("stuck", Stuck)
specs = [
    RunSpec(workload=WorkloadSpec(n_jobs=300, seed=0, load=load),
            estimator=EstimatorSpec(name="stuck"))
    for load in (0.4, 0.5)
]
run_sweep(specs, max_workers=2, oversubscribe=True)
"""


def _children_of(pid: int) -> list:
    """Pids whose parent is ``pid``, read from /proc."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state != "Z"


#: A sweep process that SIGKILLs itself once its second point is committed.
_KILLED_SWEEP = """
import os, signal, sys
from repro.experiments.cache import SweepCache
from repro.experiments.parallel import run_sweep
from repro.experiments.specs import RunSpec, WorkloadSpec

def die_after_two(index, outcome):
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)

specs = [
    RunSpec(workload=WorkloadSpec(n_jobs=300, seed=0, load=load))
    for load in (0.4, 0.5, 0.6, 0.7)
]
run_sweep(specs, cache=SweepCache(sys.argv[1]), on_outcome=die_after_two)
"""


class TestCheckpoint:
    """The cache directory is a sweep's checkpoint."""

    def test_killed_sweep_resumes_from_partial_results(self, tmp_path):
        cache_dir = tmp_path / "cache"
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_SWEEP, str(cache_dir)],
            env=_env_with_src(), capture_output=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert len(SweepCache(cache_dir)) == 2

        specs = [
            RunSpec(workload=WorkloadSpec(n_jobs=300, seed=0, load=load))
            for load in (0.4, 0.5, 0.6, 0.7)
        ]
        resumed = run_sweep(specs, cache=SweepCache(cache_dir))
        assert [o.cached for o in resumed.outcomes] == [True, True, False, False]
        assert resumed.profile().n_executed == 2
        assert resumed.points() == run_sweep(specs).points()


class TestSettings:
    def test_run_sweep_validates_settings(self):
        with pytest.raises(ValueError, match="timeout must be positive"):
            run_sweep([spec(load=0.4)], timeout=0.0)
        with pytest.raises(ValueError, match="max_retries must be >= 0"):
            run_sweep([spec(load=0.4)], max_retries=-1)
