"""Reference slices pinning the engine's exact behavior across PRs.

Each slice is one small-but-representative simulation run: a deterministic
synthetic LANL-CM5-like trace through one (policy, estimator, faults,
spurious-failures) configuration mirroring the headline experiments —
Figure 5 (utilization at load 0.8, all three policies), Figure 6 (the
slowdown study's mid-load point), and the EXT-FAULTS study.  The recorded
``SimResult.fingerprint()`` of every slice lives in
``tests/data/engine_fingerprints.json``; ``test_engine_fingerprints.py``
asserts the current engine still reproduces each digest bit-for-bit, with
the observer both off and on.

Regenerate the recorded digests (ONLY when a behavior change is intended
and understood) with::

    PYTHONPATH=src python tests/sim/record_engine_fingerprints.py
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional
from unittest import mock

from repro.cluster import paper_cluster
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
from repro.obs import CompositeObserver, TimelineSampler
from repro.sim.engine import Simulation
from repro.sim.failure import FailureModel
from repro.sim.faults import FaultConfig, NodeFaultInjector, fault_rng
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.sim.records import AttemptRecord, JobSummary, SimResult
from repro.workload import drop_full_machine_jobs, lanl_cm5_like, scale_load
from repro.workload.columns import JobColumns

FINGERPRINTS_PATH = "tests/data/engine_fingerprints.json"


@dataclass(frozen=True)
class SliceSpec:
    """One reference configuration (everything derives from these fields)."""

    policy: str
    estimator: str
    load: float
    n_jobs: int = 2000
    seed: int = 0
    spurious: float = 0.0
    faults: bool = False
    #: Run with a :class:`~repro.obs.TimelineSampler`, so the digest covers
    #: the queue timeline too.
    timeline: bool = False
    strategy: str = "best_fit"


#: The reference matrix: FCFS/SJF/backfilling x estimation on/off at the
#: Figure 5 load, the Figure 6 mid-load point, and the fault study (which
#: also exercises spurious failures so every failure channel is pinned).
REFERENCE_SLICES: Dict[str, SliceSpec] = {
    "fig5-fcfs-none": SliceSpec("fcfs", "none", 0.8, timeline=True),
    "fig5-fcfs-successive": SliceSpec("fcfs", "successive", 0.8, timeline=True),
    "fig5-sjf-none": SliceSpec("sjf", "none", 0.8),
    "fig5-sjf-successive": SliceSpec("sjf", "successive", 0.8),
    "fig5-backfilling-none": SliceSpec("easy-backfilling", "none", 0.8),
    "fig5-backfilling-successive": SliceSpec("easy-backfilling", "successive", 0.8),
    "fig6-fcfs-none": SliceSpec("fcfs", "none", 0.6),
    "fig6-fcfs-successive": SliceSpec("fcfs", "successive", 0.6),
    "faults-fcfs-none": SliceSpec("fcfs", "none", 0.8, spurious=0.001, faults=True),
    "faults-fcfs-successive": SliceSpec(
        "fcfs", "successive", 0.8, spurious=0.001, faults=True
    ),
    # First-fit allocation: pins the widened fast lane's second cluster
    # strategy against the scalar engine on both policies' hot paths.
    "fig5-fcfs-successive-firstfit": SliceSpec(
        "fcfs", "successive", 0.8, strategy="first_fit"
    ),
    "fig5-sjf-successive-firstfit": SliceSpec(
        "sjf", "successive", 0.8, strategy="first_fit"
    ),
    # Table 1's other estimators (and this repo's line-search, online and
    # hybrid ones), FCFS at the Figure 5 load: pins the fast lane's
    # estimator-protocol mode against the scalar engine.
    "table1-fcfs-last-instance": SliceSpec("fcfs", "last-instance", 0.8),
    "table1-fcfs-rl": SliceSpec("fcfs", "rl", 0.8),
    "table1-fcfs-regression": SliceSpec("fcfs", "regression", 0.8),
    "table1-fcfs-line-search": SliceSpec("fcfs", "line-search", 0.8),
    "table1-fcfs-online": SliceSpec("fcfs", "online", 0.8),
    "table1-fcfs-hybrid": SliceSpec("fcfs", "hybrid", 0.8),
}

_POLICIES = {
    "fcfs": Fcfs,
    "sjf": ShortestJobFirst,
    "easy-backfilling": EasyBackfilling,
}

_ESTIMATORS = {
    "none": NoEstimation,
    "successive": SuccessiveApproximation,
    "last-instance": LastInstance,
    "rl": ReinforcementLearning,
    "regression": RegressionEstimator,
    "line-search": RobustLineSearch,
    "online": OnlineSimilarityEstimator,
    "hybrid": HybridEstimator,
}

#: MTBF/MTTR for the fault slices: frequent enough that a 2000-job trace
#: sees dozens of kills, short enough that repairs land inside the trace.
_FAULT_CONFIG = FaultConfig(node_mtbf=2.0e6, node_mttr=3600.0)


def slice_workload(spec: SliceSpec):
    """The slice's workload (shared by the scalar and batched paths)."""
    return scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=spec.n_jobs, seed=spec.seed)),
        spec.load,
    )


def slice_observer(spec: SliceSpec, observer=None):
    """The observer a slice runs with: ``observer``, composed with a
    fresh :class:`~repro.obs.TimelineSampler` on a timeline slice."""
    if not spec.timeline:
        return observer
    sampler = TimelineSampler()
    if observer is None:
        return sampler
    return CompositeObserver([sampler, observer])


def run_slice(spec: SliceSpec, observer=None) -> SimResult:
    """Run one reference slice to completion (deterministic in ``spec``)."""
    injector: Optional[NodeFaultInjector] = None
    if spec.faults:
        injector = NodeFaultInjector(_FAULT_CONFIG, rng=fault_rng(spec.seed))
    return Simulation(
        workload=slice_workload(spec),
        cluster=paper_cluster(24.0, strategy=spec.strategy),
        estimator=_ESTIMATORS[spec.estimator](),
        policy=_POLICIES[spec.policy](),
        failure_model=FailureModel(
            rng=spec.seed, spurious_failure_prob=spec.spurious
        ),
        fault_injector=injector,
        collect_attempts=True,
        observer=slice_observer(spec, observer),
    ).run()


def slice_batch_config(spec: SliceSpec, observer=None):
    """The :class:`repro.sim.batch.BatchConfig` lane equivalent to
    :func:`run_slice`'s scalar configuration."""
    from repro.sim.batch import BatchConfig

    return BatchConfig(
        cluster=paper_cluster(24.0, strategy=spec.strategy),
        estimator=_ESTIMATORS[spec.estimator](),
        policy=_POLICIES[spec.policy](),
        seed=spec.seed,
        spurious_failure_prob=spec.spurious,
        fault_config=_FAULT_CONFIG if spec.faults else None,
        observer=slice_observer(spec, observer),
    )


def scalar_run(
    workload,
    cluster,
    estimator=None,
    policy=None,
    seed=0,
    spurious_failure_prob=0.0,
    fault_config=None,
    collect_attempts=True,
) -> SimResult:
    """The oracle: an explicit scalar :class:`Simulation` run with
    :func:`repro.sim.engine.simulate`'s parameters — never the fast lane
    ``simulate`` may route to."""
    injector = None
    if fault_config is not None and fault_config.enabled:
        injector = NodeFaultInjector(fault_config, rng=fault_rng(seed))
    return Simulation(
        workload=workload,
        cluster=cluster,
        estimator=estimator,
        policy=policy,
        failure_model=FailureModel(
            rng=seed, spurious_failure_prob=spurious_failure_prob
        ),
        fault_injector=injector,
        seed=seed,
        collect_attempts=collect_attempts,
    ).run()


@contextmanager
def records_built() -> Iterator[List[type]]:
    """Count the :class:`JobSummary` and :class:`AttemptRecord` records
    built inside the block: the yielded list gets the record type of each.
    The result views and the scalar engine build every record through the
    type's ``_make``, which is what this counts."""
    built: List[type] = []

    def counting(cls):
        make = cls._make
        return lambda fields: built.append(cls) or make(fields)

    with mock.patch.object(JobSummary, "_make", counting(JobSummary)), \
            mock.patch.object(AttemptRecord, "_make", counting(AttemptRecord)):
        yield built


@contextmanager
def jobs_built() -> Iterator[List[int]]:
    """Count the :class:`Job` objects built inside the block: the yielded
    list gets the row count of each build.  Every row-to-``Job`` build
    (a workload's view, ``Workload.iter_jobs``, a protocol lane's job
    list) goes through :meth:`JobColumns.to_jobs`, which is what this
    counts."""
    built: List[int] = []
    to_jobs = JobColumns.to_jobs

    def counting(columns):
        built.append(len(columns))
        return to_jobs(columns)

    with mock.patch.object(JobColumns, "to_jobs", counting):
        yield built


def assert_fingerprint_keeps_nothing(result, twin) -> None:
    """A fast-lane ``result`` fingerprints like its scalar ``twin`` and
    like itself once its records were read.  Taking the fingerprint
    builds no record and no :class:`Job`; comparing with the twin builds
    no record."""
    with records_built() as built, jobs_built() as jobs:
        digest = result.fingerprint()
        assert digest == twin.fingerprint()
    assert jobs == []
    with records_built() as more:
        assert result == twin and twin == result
    assert built == more == []
    list(result.attempts), list(result.summaries)
    assert result.fingerprint() == digest
