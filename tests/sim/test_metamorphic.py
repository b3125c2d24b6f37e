"""Metamorphic relations of the scheduling model, on both engines.

A differential test shows that the fast lane matches the scalar engine; it
cannot catch a fault both share.  These properties check the model itself:
a change to the input that the paper's §3.1 rules ignore must leave every
job's schedule unchanged, bit for bit.  Each relation runs on generated
traces (``tests.sim.test_batch._diff_traces``) under FCFS, EASY and SJF,
through ``simulate()`` (the fast lane) and the scalar ``Simulation``:

* doubling every request, every usage and every tier capacity (memory
  units are arbitrary);
* adding 10^5 to every user id and 10^6 to every job id (ids only name
  things);
* on a one-tier cluster that holds every request, successive approximation
  schedules exactly as no estimation does: whatever it estimates, the
  matcher can only grant the one tier.  (A request above the tier is
  rejected without estimation but may be admitted with it, so a smaller
  tier would break the relation by design.)

Shifting every submit time by 2^22 s (and every start and end back) keeps
each job's attempt count and reduced flag, and its start and end to within
one ulp at 2^23 s.  Not bit for bit: a failed attempt's uniformly drawn
duration rounds differently when added at 2^22 s.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.cluster import Cluster
from repro.core import NoEstimation, SuccessiveApproximation
from repro.sim import simulate
from repro.sim.engine import Simulation
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.workload import Workload

from tests.sim.test_batch import _DIFF_TIERS, _diff_cluster, _diff_traces

POLICIES = {"fcfs": Fcfs, "easy": EasyBackfilling, "sjf": ShortestJobFirst}
ESTIMATORS = {"none": NoEstimation, "successive": SuccessiveApproximation}
ENGINES = {
    "fast": simulate,
    "scalar": lambda workload, cluster, **kw: Simulation(
        workload, cluster, **kw
    ).run(),
}

parametrize_runs = pytest.mark.parametrize(
    "engine,policy", [(e, p) for e in ENGINES for p in POLICIES]
)
parametrize_estimators = pytest.mark.parametrize("estimator", sorted(ESTIMATORS))


def schedule(result):
    """Every job's ``(start, end, attempts, reduced, wasted)``, in the
    result's job order."""
    return [
        (s.start_time, s.end_time, s.n_attempts, s.reduced, s.wasted_node_seconds)
        for s in result.summaries
    ]


def run(engine, workload, cluster, estimator, policy):
    return ENGINES[engine](
        workload, cluster,
        estimator=ESTIMATORS[estimator](), policy=POLICIES[policy](), seed=1,
    )


def rewritten(workload, node_mem=None, **columns):
    """``workload`` with each named job column mapped through its function."""
    cols = workload.as_columns()
    return Workload.from_columns(
        replace(cols, **{name: f(getattr(cols, name)) for name, f in columns.items()}),
        total_nodes=workload.total_nodes,
        node_mem=workload.node_mem if node_mem is None else node_mem,
    )


@settings(max_examples=30, deadline=None)
@given(workload=_diff_traces())
@parametrize_estimators
@parametrize_runs
def test_doubling_memory_keeps_the_schedule(workload, engine, policy, estimator):
    doubled = rewritten(
        workload,
        node_mem=2 * workload.node_mem,
        req_mem=lambda mem: 2 * mem,
        used_mem=lambda mem: 2 * mem,
    )
    cluster = Cluster([(count, 2 * mem) for count, mem in _DIFF_TIERS])
    assert schedule(run(engine, doubled, cluster, estimator, policy)) == schedule(
        run(engine, workload, _diff_cluster("best_fit"), estimator, policy)
    )


@settings(max_examples=30, deadline=None)
@given(workload=_diff_traces())
@parametrize_estimators
@parametrize_runs
def test_shifting_user_ids_keeps_the_schedule(workload, engine, policy, estimator):
    shifted = rewritten(workload, user_id=lambda uid: uid + 10**5)
    assert schedule(
        run(engine, shifted, _diff_cluster("best_fit"), estimator, policy)
    ) == schedule(run(engine, workload, _diff_cluster("best_fit"), estimator, policy))


@settings(max_examples=30, deadline=None)
@given(workload=_diff_traces())
@parametrize_estimators
@parametrize_runs
def test_shifting_job_ids_keeps_the_schedule(workload, engine, policy, estimator):
    shifted = rewritten(workload, job_id=lambda jid: jid + 10**6)
    result = run(engine, shifted, _diff_cluster("best_fit"), estimator, policy)
    original = run(engine, workload, _diff_cluster("best_fit"), estimator, policy)
    assert schedule(result) == schedule(original)
    assert [s.job.job_id - 10**6 for s in result.summaries] == [
        s.job.job_id for s in original.summaries
    ]


@settings(max_examples=30, deadline=None)
@given(workload=_diff_traces())
@parametrize_runs
def test_estimation_on_one_tier_keeps_the_schedule(workload, engine, policy):
    def one_tier():
        return Cluster([(8, max(job.req_mem for job in workload))])

    assert schedule(run(engine, workload, one_tier(), "successive", policy)) == schedule(
        run(engine, workload, one_tier(), "none", policy)
    )


SHIFT = 2.0**22


@settings(max_examples=30, deadline=None)
@given(workload=_diff_traces())
@parametrize_estimators
@parametrize_runs
def test_shifting_submit_times_keeps_the_schedule(workload, engine, policy, estimator):
    shifted = rewritten(workload, submit_time=lambda t: t + SHIFT)
    result = run(engine, shifted, _diff_cluster("best_fit"), estimator, policy)
    original = run(engine, workload, _diff_cluster("best_fit"), estimator, policy)
    tolerance = math.ulp(2.0**23)
    assert len(result.summaries) == len(original.summaries)
    for moved, kept in zip(result.summaries, original.summaries):
        assert (moved.n_attempts, moved.reduced) == (kept.n_attempts, kept.reduced)
        assert abs(moved.start_time - SHIFT - kept.start_time) <= tolerance
        assert abs(moved.end_time - SHIFT - kept.end_time) <= tolerance
