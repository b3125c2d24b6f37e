"""Fast-lane results keep their attempt records raw until read.

:class:`repro.sim.records.LazyAttempts` stands in for the fast lane's
:class:`AttemptRecord` list.  A completion appends a raw tuple whose
allocation is the unsorted ``(ladder index, take)`` pairs the lane filled;
the first read maps them to ``(level, take)`` and sorts them.  These tests
pin that the lazy list answers exactly what the scalar engine's eager list
answers — records, equality, fingerprint, pickling, per-tier occupancy —
for every estimation mode, fast-lane policy and allocation strategy, on a
trace whose jobs span several capacity levels and fail both spuriously and
for lack of memory.  The oracle is an explicit scalar ``Simulation`` run
(``scalar_run``), never ``simulate``.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import LastInstance, NoEstimation, SuccessiveApproximation
from repro.sim import simulate
from repro.sim.analysis import tier_utilization
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.sim.records import AttemptRecord, LazyAttempts
from repro.workload import Workload
from repro.workload.columns import JobColumns

from tests.sim.engine_reference import scalar_run

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


def _run(mode, policy, strategy, **kwargs):
    """``simulate`` and its scalar twin, each with a fresh estimator (the
    estimator learns in place)."""
    workload = _trace()
    kwargs.setdefault("seed", 4)
    kwargs.setdefault("spurious_failure_prob", SPURIOUS)
    return tuple(
        run(workload, _cluster(strategy), MODES[mode](), POLICIES[policy](),
            **kwargs)
        for run in (simulate, scalar_run)
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_lazy_attempts_equal_the_scalar_records(mode, policy, strategy):
    result, twin = _run(mode, policy, strategy)
    attempts = result.attempts
    assert isinstance(attempts, LazyAttempts)
    # The trace exercises what the build has to get right (without
    # estimation every attempt gets its full request, so none fails for
    # lack of memory).
    assert twin.n_spurious_failures
    assert bool(twin.n_resource_failures) == (mode != "none")
    assert any(len(a.allocation) > 1 for a in twin.attempts)

    # Counts and truthiness read the raw list.
    assert len(attempts) == result.n_attempts == twin.n_attempts
    assert bool(attempts)
    assert not attempts.built()

    assert attempts == twin.attempts and twin.attempts == attempts
    assert result == twin and twin == result
    assert not attempts.built(), "== against a list keeps nothing"

    assert result.fingerprint() == twin.fingerprint()
    assert attempts.built()
    assert attempts == twin.attempts and twin.attempts == attempts
    assert list(attempts) == twin.attempts
    assert all(type(a) is AttemptRecord for a in attempts)
    assert attempts[0] == twin.attempts[0]
    assert attempts[-3:] == twin.attempts[-3:]
    assert tier_utilization(result, _cluster(strategy)) == tier_utilization(
        twin, _cluster(strategy)
    )


def test_first_fit_fills_out_of_level_order():
    """The raw allocation really is unsorted on a first-fit lane; the
    built record is sorted by level, as the scalar engine records it."""
    result, twin = _run("none", "fcfs", "first_fit")
    raw = result.attempts._raw
    assert any(
        [j for j, _ in pairs] != sorted(j for j, _ in pairs)
        for *_, pairs in raw
    )
    assert result.attempts == twin.attempts


def test_tier_utilization_builds_on_demand():
    result, twin = _run("successive", "fcfs", "first_fit")
    assert not result.attempts.built()
    assert tier_utilization(result, _cluster("first_fit")) == tier_utilization(
        twin, _cluster("first_fit")
    )
    assert result.attempts.built()


@pytest.mark.parametrize("copier", [
    lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_copies_hold_the_plain_list(copier):
    result, twin = _run("successive", "easy", "first_fit")
    clone = copier(result)
    assert type(clone.attempts) is list
    assert clone.attempts == twin.attempts
    assert clone == result and result == clone
    assert clone.fingerprint() == twin.fingerprint()
    assert type(copier(result.attempts)) is list


def test_lazy_attempts_compare_with_each_other():
    runs = [_run("successive", "sjf", "first_fit")[0] for _ in range(2)]
    other = _run("none", "sjf", "first_fit")[0]
    assert runs[0].attempts == runs[1].attempts
    assert runs[0].attempts != other.attempts
    assert not any(r.attempts.built() for r in runs + [other])
    runs[0].attempts[0]  # built on one side only
    assert runs[0].attempts == runs[1].attempts
    assert runs[1].attempts == runs[0].attempts
    assert runs[0].attempts != other.attempts


def test_fill_order_alone_does_not_make_records_differ():
    """Best fit and first fit may fill the same nodes in another order:
    raw tuples then differ while the built records agree, and == follows
    the records."""
    levels = (16.0, 24.0, 32.0)
    head = (1, 0, 0.0, 0.0, 10.0, 3, 16.0, 16.0, True, False, True)
    filled = LazyAttempts([head + (((0, 1), (2, 2)),)], levels)
    reversed_fill = LazyAttempts([head + (((2, 2), (0, 1)),)], levels)
    assert filled == reversed_fill
    assert filled[0].allocation == ((16.0, 1), (32.0, 2))
    assert repr(reversed_fill) == "LazyAttempts(1 attempts, lazy)"


@pytest.mark.parametrize("mode", sorted(MODES))
def test_no_collection_still_yields_empty_attempts(mode):
    result, twin = _run(mode, "fcfs", "first_fit", collect_attempts=False)
    assert result.attempts == [] and twin.attempts == []
    assert not result.attempts and len(result.attempts) == 0
    assert result.n_attempts == twin.n_attempts > 0
    assert result.fingerprint() == twin.fingerprint()
    with pytest.raises(ValueError, match="collect_attempts=True"):
        tier_utilization(result, _cluster("first_fit"))
