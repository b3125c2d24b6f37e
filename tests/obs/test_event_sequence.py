"""The observer hook contract: exact event sequences from scripted runs.

The scenario covers every job-lifecycle hook: a job that completes first
try, a job that fails a resource probe and succeeds on resubmission, and a
job killed mid-run by a scripted node fault (then waiting out the repair).
"""

import math

import pytest

from repro.cluster.cluster import Cluster
from repro.core import SuccessiveApproximation
from repro.obs import RecordingObserver
from repro.sim import FaultStats, Simulation
from repro.sim.failure import FailureModel
from repro.sim.faults import NodeFaultInjector
from tests.conftest import make_job, make_workload


class ScriptedInjector:
    """A fault injector that fires exactly once, at a scripted time.

    Implements the duck interface the engine consumes (``enabled``,
    ``stats``, ``rng``, and the draw methods) with deterministic values, so
    event-sequence tests need no RNG archaeology.  The victim draws are the
    real injector's, fed by the scripted ``rng``.
    """

    class _Rng:
        def random(self):  # only consulted for busy-vs-free victim draws
            return 0.0

        def choice(self, n, p=None):
            return 0

    def __init__(self, fire_after: float, repair: float, level: float) -> None:
        self.enabled = True
        self.stats = FaultStats()
        self.rng = self._Rng()
        self._delays = [fire_after]
        self.repair = repair
        self.level = level

    def next_failure_delay(self, n_nodes: int) -> float:
        return self._delays.pop() if self._delays else math.inf

    def repair_delay(self) -> float:
        return self.repair

    def n_victims(self) -> int:
        return 1

    def choose_level(self, in_service):
        return self.level

    victim_is_busy = NodeFaultInjector.victim_is_busy
    pick_victim = NodeFaultInjector.pick_victim


@pytest.fixture()
def scripted_run():
    # One 32MB node + one 16MB node.  Job A (group u1/a1/32) succeeds and
    # drops the group estimate to 16; job B of the same group probes 16,
    # fails (uses 20), and succeeds on resubmission at the restored 32; job
    # C (group u2) is killed at t=500 by the scripted fault on the 32MB
    # node, waits out the 100s repair, and completes on the repaired node.
    jobs = [
        make_job(job_id=1, submit_time=0.0, run_time=100.0, procs=1,
                 req_mem=32.0, used_mem=20.0, user_id=1, app_id=1),
        make_job(job_id=2, submit_time=200.0, run_time=100.0, procs=1,
                 req_mem=32.0, used_mem=20.0, user_id=1, app_id=1),
        make_job(job_id=3, submit_time=400.0, run_time=1000.0, procs=1,
                 req_mem=32.0, used_mem=8.0, user_id=2, app_id=1),
    ]
    observer = RecordingObserver()
    result = Simulation(
        make_workload(jobs, total_nodes=2),
        Cluster([(1, 32.0), (1, 16.0)]),
        estimator=SuccessiveApproximation(),
        failure_model=FailureModel(rng=0),
        fault_injector=ScriptedInjector(fire_after=500.0, repair=100.0, level=32.0),
        observer=observer,
    ).run()
    return result, observer


class TestExactEventSequence:
    def test_full_transcript(self, scripted_run):
        result, observer = scripted_run
        assert observer.events == [
            ("run_start", 3, 2),
            # Job A: clean first-try completion at the user's request.
            ("enqueued", 1, 0, 32.0, False),
            ("started", 1, 0, 32.0, 32.0),
            ("completed", 1, 0),
            # Job B: probes the reduced 16MB estimate, fails (uses 20MB),
            # resubmits *at the head* with the restored safe value.
            ("enqueued", 2, 0, 16.0, False),
            ("started", 2, 0, 16.0, 16.0),
            ("failed", 2, 0, True),
            ("enqueued", 2, 1, 32.0, True),
            ("started", 2, 1, 32.0, 32.0),
            ("completed", 2, 1),
            # Job C: killed by the scripted node fault (kill hooks fire
            # before the node-down hook: the engine evicts the victim, then
            # takes the node out of service), waits out the repair.
            ("enqueued", 3, 0, 32.0, False),
            ("started", 3, 0, 32.0, 32.0),
            ("killed", 3, 0),
            ("enqueued", 3, 1, 32.0, True),
            ("node_failed", 32.0),
            ("node_repaired", 32.0),
            ("started", 3, 1, 32.0, 32.0),
            ("completed", 3, 1),
            ("run_end", 3),
        ]

    def test_result_agrees_with_transcript(self, scripted_run):
        result, observer = scripted_run
        assert result.n_completed == 3
        assert result.n_resource_failures == 1
        assert result.n_fault_kills == 1
        assert result.n_node_failures == 1
        # The node was down exactly for its repair interval [500, 600],
        # fully inside the observed trace — no clamping needed here.
        assert result.node_downtime_seconds == pytest.approx(100.0)
        # The killed job restarts only after the repair: t=600, +1000s run.
        killed_job = result.summaries[-1]
        assert killed_job.start_time == pytest.approx(600.0)
        assert killed_job.end_time == pytest.approx(1600.0)

    def test_scheduling_passes_optional(self):
        w = make_workload([make_job(procs=1)], total_nodes=1)
        recording = RecordingObserver(record_scheduling=True)
        Simulation(w, Cluster([(1, 32.0)]), observer=recording).run()
        scheds = [e for e in recording.events if e[0] == "sched"]
        assert scheds, "scheduling passes were not recorded"
        # First pass starts the only job; final pass sees an empty system.
        assert scheds[0] == ("sched", 1, 0, 1, 0)
        assert scheds[-1] == ("sched", 0, 0, 0, 0)


class TestDowntimeClamp:
    def test_repair_past_end_of_trace_is_clamped(self):
        # The fault fires at t=50 (killing the only job, which restarts on
        # the second node) and schedules a repair far past the end of the
        # workload.  Only the in-trace slice of the interval may count.
        job = make_job(job_id=1, submit_time=0.0, run_time=100.0, procs=1,
                       req_mem=32.0, used_mem=8.0)
        injector = ScriptedInjector(fire_after=50.0, repair=1e9, level=32.0)
        result = Simulation(
            make_workload([job], total_nodes=2),
            Cluster([(2, 32.0)]),
            failure_model=FailureModel(rng=0),
            fault_injector=injector,
        ).run()
        assert result.n_fault_kills == 1
        # Trace spans [0, 150]: the restarted job runs 50 -> 150.  The node
        # went down at 50, so at most 100s of downtime is observable.
        assert result.t_last_end == pytest.approx(150.0)
        assert result.node_downtime_seconds == pytest.approx(100.0)
        # The injector's own stats agree with the clamped figure.
        assert injector.stats.node_downtime_seconds == pytest.approx(100.0)
