"""Results keep their attempt records as a log of numbers.

A completion appends one record of plain numbers to the run's
:class:`AttemptLog`, its allocation the ``(ladder index, take)`` pairs the
engine filled (the fast lane's unsorted), flattened into a companion
chunk; a result's ``attempts`` is a :class:`Records` view that maps them
to ``(level, take)`` and sorts them on every read, a chunk at a time,
keeping nothing.  These tests pin that a fast-lane result's attempts
answer exactly what the scalar engine's answer — records, equality,
fingerprint, per-tier occupancy — for every estimation mode, fast-lane
policy and allocation strategy, on a trace whose jobs span several
capacity levels and fail both spuriously and for lack of memory.  The
oracle is an explicit scalar ``Simulation`` run (``scalar_run``), never
``simulate``.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import LastInstance, NoEstimation, SuccessiveApproximation
from repro.sim import simulate
from repro.sim.analysis import tier_utilization
from repro.sim.faults import FaultConfig
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.sim.records import (
    LOG_CHUNK, LOG_FIELDS, AttemptLog, AttemptRecord, Records,
)
from repro.workload import Workload
from repro.workload.columns import JobColumns

from tests.sim.engine_reference import (
    assert_fingerprint_keeps_nothing, records_built, scalar_run,
)

MODES = {
    "none": NoEstimation,
    "successive": SuccessiveApproximation,
    "protocol": LastInstance,
}
POLICIES = {"fcfs": Fcfs, "sjf": ShortestJobFirst, "easy": EasyBackfilling}
STRATEGIES = ("best_fit", "first_fit")

#: Three machine classes declared out of level order, so a first-fit lane
#: fills 32 MB nodes before 16 and 24 MB ones: its allocation pairs come
#: out of ladder order, and only the build's sort puts them back.
TIERS = ((6, 32.0), (6, 16.0), (6, 24.0))

SPURIOUS = 0.1

#: Node faults frequent enough that a faulted lane kills running jobs.
FAULTS = FaultConfig(node_mtbf=2.0e4, node_mttr=600.0)


def _trace(n: int = 240, seed: int = 11) -> Workload:
    """A columnar trace of wide jobs (up to 14 of 18 nodes, so many span
    several classes) whose used memory sits well under the request for
    some, so estimation under-grants and resource failures follow."""
    rng = np.random.default_rng(seed)
    req = rng.choice((8.0, 12.0, 16.0, 24.0, 32.0), size=n)
    used = req * rng.choice((0.2, 0.5, 0.8, 1.0), size=n)
    cols = JobColumns(
        job_id=np.arange(1, n + 1),
        submit_time=np.cumsum(rng.choice((0.0, 5.0, 20.0, 60.0), size=n)),
        run_time=rng.choice((10.0, 40.0, 90.0, 300.0), size=n),
        procs=rng.integers(1, 15, size=n),
        req_mem=req,
        used_mem=used,
        req_time=np.full(n, 400.0),
        user_id=rng.integers(0, 3, size=n),
        group_id=np.zeros(n, dtype=np.int64),
        app_id=rng.integers(0, 2, size=n),
        status=np.ones(n, dtype=np.int64),
    )
    return Workload.from_columns(
        cols, total_nodes=18, node_mem=32.0, name="lazy-attempts"
    )


def _cluster(strategy: str) -> Cluster:
    return Cluster(list(TIERS), strategy=strategy, name="three-tier")


def _run(mode, policy, strategy, workload=None, **kwargs):
    """``simulate`` (on ``workload``, by default a fresh trace) and its
    scalar twin on a trace of its own (so ``==`` compares two traces'
    jobs), each with a fresh estimator (the estimator learns in place)."""
    kwargs.setdefault("seed", 4)
    kwargs.setdefault("spurious_failure_prob", SPURIOUS)
    return tuple(
        run(trace, _cluster(strategy), MODES[mode](), POLICIES[policy](),
            **kwargs)
        for run, trace in (
            (simulate, _trace() if workload is None else workload),
            (scalar_run, _trace()),
        )
    )


#: Every mode x policy x strategy lane, then a faulted lane per mode,
#: whose kills log attempts of their own.
LANES = [
    pytest.param(mode, policy, strategy, {}, id=f"{mode}-{policy}-{strategy}")
    for mode in sorted(MODES)
    for policy in sorted(POLICIES)
    for strategy in STRATEGIES
] + [
    pytest.param(mode, "easy", "first_fit", {"fault_config": FAULTS},
                 id=f"{mode}-easy-first_fit-faulted")
    for mode in sorted(MODES)
]


@pytest.mark.parametrize("mode, policy, strategy, kwargs", LANES)
def test_lazy_attempts_equal_the_scalar_records(mode, policy, strategy, kwargs):
    workload = _trace()
    result, twin = _run(mode, policy, strategy, workload, **kwargs)
    attempts = result.attempts
    assert isinstance(attempts, Records)
    assert isinstance(attempts.table, AttemptLog)
    # The trace exercises what the build has to get right (without
    # estimation every attempt gets its full request, so none fails for
    # lack of memory).
    assert twin.n_spurious_failures
    assert bool(twin.n_resource_failures) == (mode != "none")
    assert any(len(a.allocation) > 1 for a in twin.attempts)
    assert bool(twin.n_fault_kills) == ("fault_config" in kwargs)

    # Counts, truthiness and == read the log.
    with records_built() as built:
        assert len(attempts) == result.n_attempts == twin.n_attempts
        assert bool(attempts)
        assert attempts == twin.attempts and twin.attempts == attempts
    assert built == []

    assert_fingerprint_keeps_nothing(result, twin)
    assert attempts == twin.attempts and twin.attempts == attempts
    assert list(attempts) == twin.attempts
    assert all(type(a) is AttemptRecord for a in attempts)
    assert attempts[0] == twin.attempts[0]
    assert attempts[-3:] == twin.attempts[-3:]
    assert tier_utilization(result, _cluster(strategy)) == tier_utilization(
        twin, _cluster(strategy)
    )


def _logged_allocations(log: AttemptLog) -> list:
    """Each logged attempt's ``(ladder index, take)`` pairs, in fill
    order."""
    out = []
    for chunk, pairs in zip(log.records, log.pairs):
        p = 0
        for k in range(LOG_FIELDS - 1, len(chunk), LOG_FIELDS):
            end = p + 2 * chunk[k]
            out.append(list(zip(pairs[p:end:2], pairs[p + 1:end:2])))
            p = end
        assert p == len(pairs)
    return out


def test_first_fit_fills_out_of_level_order():
    """The logged allocation really is unsorted on a first-fit lane; the
    built record is sorted by level, as the scalar engine records it."""
    result, twin = _run("none", "fcfs", "first_fit")
    allocations = _logged_allocations(result.attempts.table)
    assert len(allocations) == result.n_attempts
    assert any(
        [j for j, _ in pairs] != sorted(j for j, _ in pairs)
        for pairs in allocations
    )
    assert result.attempts == twin.attempts


def test_lazy_attempts_compare_with_each_other():
    runs = [_run("successive", "sjf", "first_fit")[0] for _ in range(2)]
    other = _run("none", "sjf", "first_fit")[0]
    with records_built() as built:
        assert runs[0].attempts == runs[1].attempts
        assert runs[1].attempts == runs[0].attempts
        assert runs[0].attempts != other.attempts
    assert built == []


def test_fill_order_alone_does_not_make_records_differ():
    """Best fit and first fit may fill the same nodes in another order:
    the logs then differ while the built records agree, and == follows
    the records."""
    levels = (16.0, 24.0, 32.0)
    head = (1, 0, 0.0, 0.0, 10.0, 3, 16.0, 16.0, True, False, True)
    logs = [AttemptLog(levels), AttemptLog(levels)]
    logs[0].append(head, [(0, 1), (2, 2)])
    logs[1].append(head, [(2, 2), (0, 1)])
    assert logs[0].pairs != logs[1].pairs
    filled, reversed_fill = (Records(log) for log in logs)
    assert filled == reversed_fill
    assert filled[0].allocation == ((16.0, 1), (32.0, 2))
    assert repr(reversed_fill) == "Records(AttemptLog, 1 rows)"


@pytest.mark.parametrize("mode", sorted(MODES))
def test_no_collection_still_yields_empty_attempts(mode):
    result, twin = _run(mode, "fcfs", "first_fit", collect_attempts=False)
    assert result.attempts == [] and twin.attempts == []
    assert not result.attempts and len(result.attempts) == 0
    assert result.n_attempts == twin.n_attempts > 0
    assert result.fingerprint() == twin.fingerprint()
    with pytest.raises(ValueError, match="collect_attempts=True"):
        tier_utilization(result, _cluster("first_fit"))


#: One collected run per fast-lane kind: the inlined FCFS driver (both
#: inlined estimation modes), the generic loop (SJF, EASY), the faulted
#: loop, whose kills log attempts of their own, and protocol mode; then
#: the scalar engine, faulted.
LANE_KINDS = {
    "fcfs-none": ("none", "fcfs", {}),
    "fcfs-successive": ("successive", "fcfs", {}),
    "sjf": ("successive", "sjf", {}),
    "easy": ("successive", "easy", {}),
    "faulted": ("successive", "easy", {"fault_config": FAULTS}),
    "protocol": ("protocol", "fcfs", {}),
    "scalar": ("successive", "easy", {"fault_config": FAULTS}),
}


def _tracked_reachable(*roots) -> list:
    """Every GC-tracked object reachable from ``roots``, roots included."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return [obj for obj in seen.values() if gc.is_tracked(obj)]


@pytest.mark.parametrize("kind", sorted(LANE_KINDS))
def test_log_holds_no_per_attempt_tracked_objects(kind):
    """A collected result's log is its chunk lists and plain numbers: the
    collector scans a handful of lists, not one object per attempt."""
    mode, policy, kwargs = LANE_KINDS[kind]
    workload = _trace(n=600)
    run = scalar_run if kind == "scalar" else simulate
    result = run(workload, _cluster("first_fit"), MODES[mode](),
                 POLICIES[policy](), seed=4,
                 spurious_failure_prob=SPURIOUS, **kwargs)
    if "fault_config" in kwargs:
        assert result.n_fault_kills > 0
    log = result.attempts.table
    assert len(result.attempts) == len(log) == result.n_attempts > LOG_CHUNK
    n_chunks = result.n_attempts // LOG_CHUNK + 1
    assert len(log.records) == len(log.pairs) == n_chunks
    assert all(len(c) == LOG_CHUNK * LOG_FIELDS for c in log.records[:-1])
    chunks = log.records + log.pairs
    assert all(type(x) in (int, float, bool) for c in chunks for x in c)
    tracked = _tracked_reachable(log.records, log.pairs)
    assert sorted(map(id, tracked)) == sorted(
        map(id, [log.records, log.pairs, *chunks])
    )
    twin = scalar_run(workload, _cluster("first_fit"), MODES[mode](),
                      POLICIES[policy](), seed=4,
                      spurious_failure_prob=SPURIOUS, **kwargs)
    assert result.fingerprint() == twin.fingerprint()


def test_reading_keeps_no_records():
    """Iterating the attempts decodes the log a chunk at a time and keeps
    no record, so a full pass peaks at a small fraction of what the list
    of the same records takes."""
    result = simulate(_trace(n=6000), _cluster("first_fit"),
                      NoEstimation(), Fcfs(), seed=4,
                      spurious_failure_prob=SPURIOUS)
    assert len(result.attempts.table.records) > 10

    def peak_of(read):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = read()
            return tracemalloc.get_traced_memory()[1] - before, kept
        finally:
            tracemalloc.stop()

    streamed, n = peak_of(lambda: sum(1 for _ in result.attempts))
    listed, records = peak_of(lambda: list(result.attempts))
    assert n == len(records) == result.n_attempts
    assert streamed < listed / 4, (streamed, listed)
