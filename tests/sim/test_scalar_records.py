"""The scalar engine builds an attempt's record only for an observer.

The attempt trace is an :class:`~repro.sim.records.AttemptLog` of plain
numbers and the summaries a :class:`~repro.sim.records.JobTable`, so
without an observer :class:`Simulation` builds no
:class:`~repro.sim.records.AttemptRecord` and no
:class:`~repro.sim.records.JobSummary`, collected trace or not; its
summaries and counters must not notice the trace being off.  An attached
observer still receives full records on every path — completion, failure
and a node fault's kill.
"""

import dataclasses

import pytest

from repro.cluster import paper_cluster
from repro.core import SuccessiveApproximation
from repro.obs import CounterObserver
from repro.sim.engine import Simulation
from repro.sim.failure import FailureModel
from repro.sim.faults import FaultConfig, NodeFaultInjector, fault_rng
from repro.sim.policies import EasyBackfilling, Fcfs
from repro.workload import drop_full_machine_jobs, lanl_cm5_like, scale_load

from tests.sim.engine_reference import records_built

SEED = 0

#: The reference slices' fault rates: a 600-job trace sees dozens of kills.
FAULTS = FaultConfig(node_mtbf=2.0e6, node_mttr=3600.0)

#: (policy, fault config) per case; spurious failures run in all three.
CONFIGS = {
    "fcfs": (Fcfs, None),
    "easy": (EasyBackfilling, None),
    "fcfs-faulted": (Fcfs, FAULTS),
}


def _workload():
    return scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=600, seed=SEED)), 0.8
    )


def _run(config, collect_attempts, observer=None):
    policy, faults = CONFIGS[config]
    injector = (
        None if faults is None
        else NodeFaultInjector(faults, rng=fault_rng(SEED))
    )
    return Simulation(
        workload=_workload(),
        cluster=paper_cluster(24.0),
        estimator=SuccessiveApproximation(),
        policy=policy(),
        failure_model=FailureModel(rng=SEED, spurious_failure_prob=0.01),
        fault_injector=injector,
        collect_attempts=collect_attempts,
        observer=observer,
    ).run()


class _RecordKeeper(CounterObserver):
    """Counts like :class:`CounterObserver` and keeps every record it is
    handed, with the hook and the time."""

    def __init__(self):
        super().__init__()
        self.records = []

    def on_job_completed(self, now, record):
        super().on_job_completed(now, record)
        self.records.append(("completed", now, record))

    def on_job_failed(self, now, record):
        super().on_job_failed(now, record)
        self.records.append(("failed", now, record))

    def on_job_killed(self, now, record):
        super().on_job_killed(now, record)
        self.records.append(("killed", now, record))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_no_record_is_built_when_none_is_read(config):
    with records_built() as made:
        full = _run(config, collect_attempts=True)
        lean = _run(config, collect_attempts=False)
    assert made == []
    assert len(full.attempts) == full.n_attempts > 0
    assert full.n_resource_failures and full.n_spurious_failures
    assert bool(full.n_fault_kills) == (CONFIGS[config][1] is not None)
    assert lean.attempts == []
    assert lean.summaries == full.summaries
    # Every counter, node-second sum and time bound agrees too.
    assert lean == dataclasses.replace(full, attempts=lean.attempts)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_an_observer_gets_full_records_without_the_trace(config):
    kept = _RecordKeeper()
    full = _run(config, collect_attempts=True, observer=kept)
    lean_kept = _RecordKeeper()
    lean = _run(config, collect_attempts=False, observer=lean_kept)

    assert lean_kept.snapshot() == kept.snapshot()
    assert lean_kept.records == kept.records
    hooks = {hook for hook, _, _ in kept.records}
    assert {"completed", "failed"} <= hooks
    assert ("killed" in hooks) == (CONFIGS[config][1] is not None)
    # The observer saw exactly the records the trace holds.
    assert [record for _, _, record in kept.records] == full.attempts
    assert lean == dataclasses.replace(full, attempts=lean.attempts)
