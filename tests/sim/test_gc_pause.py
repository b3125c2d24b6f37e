"""The cyclic-GC pause around :func:`repro.sim.batch.simulate_batch`.

:func:`simulate_batch` holds the cyclic garbage collector off for its
whole body.  These tests pin the contract that makes that safe: the
collector comes back exactly as the caller left it (on or off, thresholds
untouched) after a return or a raise, under concurrent threads and in a
child forked mid-pause; and every lane kind the pause covers leaves no
cyclic garbage behind, so pausing the collector never holds memory a
collection would have freed.
"""

import gc
import os
import sys
import threading
import time
import warnings

import pytest

from repro.cluster import Cluster, paper_cluster
from repro.core import (
    HybridEstimator,
    LastInstance,
    NoEstimation,
    OnlineSimilarityEstimator,
    RegressionEstimator,
    ReinforcementLearning,
    RobustLineSearch,
    SuccessiveApproximation,
)
from repro.core.base import Estimator
from repro.obs.counters import CounterObserver
from repro.obs.sampler import TimelineSampler
from repro.sim import FaultConfig, simulate
from repro.sim import batch
from repro.sim.batch import BatchConfig, fast_lane_eligible, simulate_batch
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.workload import drop_full_machine_jobs, lanl_cm5_like, scale_load


@pytest.fixture(scope="module")
def workload():
    return scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=300, seed=7)), 0.8
    )


@pytest.fixture(autouse=True)
def collector_restored():
    """Whatever a test does to the collector, the next test starts with
    the process's own settings."""
    enabled = gc.isenabled()
    threshold = gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _run(workload, estimator=None):
    return simulate(
        workload, paper_cluster(24.0),
        estimator=SuccessiveApproximation() if estimator is None else estimator,
        seed=1,
    )


class _CollectorSpy(LastInstance):
    """A protocol-mode estimator noting whether the collector runs while
    the lane asks it for estimates."""

    def __init__(self):
        super().__init__()
        self.seen = set()

    def estimate(self, job, attempt=0):
        self.seen.add(gc.isenabled())
        return super().estimate(job, attempt)


class _ZeroEstimate(Estimator):
    """Asks for nothing: the protocol lane refuses the requirement."""

    name = "zero"

    def estimate(self, job, attempt=0):
        return 0.0

    def observe(self, feedback):
        pass


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_collector_left_as_found(workload, enabled):
    gc.set_threshold(1234, 11, 12)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    spy = _CollectorSpy()
    _run(workload, spy)
    assert spy.seen == {False}  # paused while the lane ran
    assert gc.isenabled() is enabled
    assert gc.get_threshold() == (1234, 11, 12)
    assert batch._gc_depth == 0


def test_collector_restored_after_a_lane_raises(workload):
    gc.enable()
    config = BatchConfig(cluster=paper_cluster(24.0), estimator=_ZeroEstimate())
    assert fast_lane_eligible(config)
    with pytest.raises(ValueError, match="min_capacity must be > 0"):
        simulate_batch(workload, [config])
    assert gc.isenabled()
    assert batch._gc_depth == 0
    _run(workload)  # the pause still works after the raise
    assert gc.isenabled()


def test_nested_pause_ends_with_the_outermost(workload):
    gc.enable()
    with batch._gc_paused():
        _run(workload)
        assert not gc.isenabled()  # the inner call left the outer pause on
        assert batch._gc_depth == 1
    assert gc.isenabled()
    assert batch._gc_depth == 0


def _run_threads(target, n):
    """Start ``n`` threads on ``target(k)`` with a short switch interval,
    so they interleave as much as they can, and join each within a
    bound."""
    errors = []

    def guarded(k):
        try:
            target(k)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=guarded, args=(k,)) for k in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def test_concurrent_threads_restore_the_collector(workload):
    gc.enable()
    expected = _run(workload).fingerprint()
    start = threading.Barrier(4)
    fingerprints = [None] * 4

    def worker(k):
        start.wait(60)
        for _ in range(3):
            fingerprints[k] = _run(workload).fingerprint()

    _run_threads(worker, 4)
    assert fingerprints == [expected] * 4
    assert gc.isenabled()
    assert batch._gc_depth == 0


def test_pause_holds_while_any_thread_is_inside():
    """Eight threads entering and leaving the pause as fast as they can:
    no thread ever finds the collector on inside its pause, and the last
    one out turns it back on."""
    gc.enable()
    seen_on = []

    def worker(k):
        for _ in range(2000):
            with batch._gc_paused():
                if gc.isenabled():
                    seen_on.append(k)

    _run_threads(worker, 8)
    assert not seen_on
    assert gc.isenabled()
    assert batch._gc_depth == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_inside_another_threads_pause(workload):
    """A child forked while another thread is inside the pause, holding
    its lock, starts with the collector on and a usable pause."""
    gc.enable()
    inside = threading.Event()
    release = threading.Event()

    def hold():
        with batch._gc_paused():
            with batch._gc_lock:
                inside.set()
                release.wait(60)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert inside.wait(60)
        assert not gc.isenabled()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: report through the exit code only
            code = 2
            try:
                if gc.isenabled() and batch._gc_depth == 0:
                    code = 3
                    result = _run(workload)
                    if gc.isenabled() and result.n_attempts > 0:
                        code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung inside the pause")
            time.sleep(0.02)
    finally:
        release.set()
        holder.join(60)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
    assert gc.isenabled()
    assert batch._gc_depth == 0


# --------------------------------------------------- no cyclic garbage
_FAST_ESTIMATORS = {
    "none": NoEstimation,
    "successive": SuccessiveApproximation,
    "last-instance": LastInstance,
    "rl": ReinforcementLearning,
    "regression": RegressionEstimator,
    "line-search": RobustLineSearch,
    "online": OnlineSimilarityEstimator,
    "hybrid": HybridEstimator,
}

_FAULTS = FaultConfig(node_mtbf=5.0e5, node_mttr=3600.0)

_ENGINE_CASES = {
    "timeline": lambda: BatchConfig(
        cluster=paper_cluster(24.0), estimator=SuccessiveApproximation(),
        observer=TimelineSampler(),
    ),
    "counter-observer": lambda: BatchConfig(
        cluster=paper_cluster(24.0), estimator=LastInstance(),
        observer=CounterObserver(),
    ),
    "worst-fit": lambda: BatchConfig(
        cluster=Cluster([(512, 32.0), (512, 24.0)], strategy="worst_fit"),
        estimator=SuccessiveApproximation(), policy=EasyBackfilling(),
    ),
}


def _assert_run_leaves_no_cycles(workload, config):
    gc.disable()
    gc.collect()  # clear what came before: count only this run's garbage
    results = simulate_batch(workload, [config])
    assert results[0].n_attempts > 0
    if config.fault_config is not None:
        assert results[0].n_fault_kills > 0  # the kill path ran too
    del results
    assert gc.collect() == 0


@pytest.mark.parametrize("policy", [Fcfs, ShortestJobFirst, EasyBackfilling])
@pytest.mark.parametrize("estimator", sorted(_FAST_ESTIMATORS))
def test_fast_lanes_leave_no_cyclic_garbage(workload, estimator, policy):
    config = BatchConfig(
        cluster=paper_cluster(24.0),
        estimator=_FAST_ESTIMATORS[estimator](),
        policy=policy(),
        seed=2,
        spurious_failure_prob=0.02,
    )
    assert fast_lane_eligible(config)
    _assert_run_leaves_no_cycles(workload, config)


@pytest.mark.parametrize("policy", [Fcfs, ShortestJobFirst, EasyBackfilling])
@pytest.mark.parametrize("estimator", ["successive", "last-instance"])
def test_faulted_fast_lanes_leave_no_cyclic_garbage(workload, estimator, policy):
    config = BatchConfig(
        cluster=paper_cluster(24.0),
        estimator=_FAST_ESTIMATORS[estimator](),
        policy=policy(),
        fault_config=_FAULTS,
        spurious_failure_prob=0.01,
    )
    assert fast_lane_eligible(config)
    _assert_run_leaves_no_cycles(workload, config)


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_engine_lanes_leave_no_cyclic_garbage(workload, case):
    config = _ENGINE_CASES[case]()
    assert not fast_lane_eligible(config)
    _assert_run_leaves_no_cycles(workload, config)
