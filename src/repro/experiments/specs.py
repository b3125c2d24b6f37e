"""Declarative, picklable run specifications for the sweep subsystem.

The sweep experiments (Figures 5, 6, 8 and the seed replication) used to
thread *factory closures* through :mod:`repro.experiments.runner` — fine in
process, but closures do not pickle, which rules out multi-process fan-out.
This module replaces them with plain-data **specs**: frozen dataclasses
whose fields are JSON-able scalars, so a spec can be

* pickled into a :class:`concurrent.futures.ProcessPoolExecutor` worker,
* canonicalized into a stable JSON document, and
* hashed (SHA-256) into the on-disk cache key of
  :mod:`repro.experiments.cache`.

A spec is *materialized* into live objects (workload, cluster, estimator,
policy) inside whichever process runs it.  Estimators and policies are
looked up by name in module-level registries; extensions register their own
factories with :func:`register_estimator` / :func:`register_policy` before
building specs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.cluster import Cluster, paper_cluster
from repro.core import (
    Estimator,
    HybridEstimator,
    LastInstance,
    NoEstimation,
    OnlineSimilarityEstimator,
    OracleEstimator,
    RegressionEstimator,
    ReinforcementLearning,
    RobustLineSearch,
    SuccessiveApproximation,
)
from repro.sim.policies import EasyBackfilling, Fcfs, Policy, ShortestJobFirst
from repro.workload import (
    Workload,
    drop_full_machine_jobs,
    lanl_cm5_like,
    read_swf,
    scale_load,
)

#: Estimator factories constructible from a spec, by name.  Factories take
#: the spec's keyword arguments; stateless names map straight to classes.
ESTIMATOR_REGISTRY: Dict[str, Callable[..., Estimator]] = {
    "none": NoEstimation,
    "successive": SuccessiveApproximation,
    "last-instance": LastInstance,
    "rl": ReinforcementLearning,
    "regression": RegressionEstimator,
    "line-search": RobustLineSearch,
    "online": OnlineSimilarityEstimator,
    "hybrid": HybridEstimator,
    "oracle": OracleEstimator,
}

POLICY_REGISTRY: Dict[str, Callable[..., Policy]] = {
    "fcfs": Fcfs,
    "sjf": ShortestJobFirst,
    "easy-backfilling": EasyBackfilling,
}


def register_estimator(name: str, factory: Callable[..., Estimator]) -> None:
    """Make ``EstimatorSpec(name=...)`` resolvable to ``factory``.

    Workers resolve names against *their own* registry, so custom factories
    must be registered at import time of the module that defines them (a
    plain module-level call), not conditionally at runtime.
    """
    ESTIMATOR_REGISTRY[name] = factory


def register_policy(name: str, factory: Callable[..., Policy]) -> None:
    """Make ``PolicySpec(name=...)`` resolvable to ``factory``."""
    POLICY_REGISTRY[name] = factory


def _freeze_kwargs(kwargs: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Sort and tuple-ize kwargs so equal configurations hash equally."""
    for key, value in kwargs.items():
        if not isinstance(value, (int, float, str, bool, type(None))):
            raise TypeError(
                f"spec kwarg {key}={value!r} is not a JSON-able scalar; "
                "register a named factory closing over rich arguments instead"
            )
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class WorkloadSpec:
    """How to (re)build a workload inside any process.

    ``source`` is ``"lanl-cm5-synthetic"`` (the calibrated generator —
    deterministic in ``(n_jobs, seed)``) or ``"swf"`` (read ``trace_path``).
    ``load`` rescales arrival times to the given offered load
    (:func:`repro.workload.transforms.scale_load`); ``None`` leaves the
    trace as-is.
    """

    n_jobs: int = 20_000
    seed: int = 0
    source: str = "lanl-cm5-synthetic"
    trace_path: Optional[str] = None
    drop_full_machine: bool = True
    load: Optional[float] = None

    def base_key(self) -> Tuple:
        """Identity of the workload *before* load scaling (memoization key)."""
        return (self.source, self.n_jobs, self.seed, self.trace_path,
                self.drop_full_machine)

    def materialize(self) -> Workload:
        if self.load is None:
            return _base_workload(self)
        key = self.base_key() + (self.load,)
        cached = _SCALED_WORKLOADS.get(key)
        if cached is not None:
            _CACHE_STATS["scaled_workload_hits"] += 1
            return cached
        _CACHE_STATS["scaled_workload_misses"] += 1
        scaled = scale_load(_base_workload(self), self.load)
        if len(_SCALED_WORKLOADS) >= _SCALED_WORKLOADS_MAX:
            _SCALED_WORKLOADS.pop(next(iter(_SCALED_WORKLOADS)))
        _SCALED_WORKLOADS[key] = scaled
        return scaled

    def fingerprint(self) -> str:
        """Stable digest of the workload content's provenance.

        Synthetic traces are fully determined by their parameters; SWF
        traces additionally hash the file bytes so a regenerated trace file
        invalidates cached sweep points.
        """
        h = hashlib.sha256(repr(self.base_key() + (self.load,)).encode())
        if self.source == "swf" and self.trace_path:
            with open(self.trace_path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        return h.hexdigest()


#: Per-process materialization memos.  A sweep re-uses one trace across
#: every load point, and a pool worker re-uses it across every spec it
#: executes, so generation/parse cost is paid once per process — the pool
#: initializer (:mod:`repro.experiments.parallel`) resets these at worker
#: start so each worker carries its *own* bounded cache, keyed by the same
#: provenance fields the spec fingerprint hashes.
#:
#: Three layers, cheapest-to-derive last:
#:  * base workloads (``base_key()``): the parse/generate cost,
#:  * load-scaled workloads (``base_key() + (load,)``): the arrival rescale,
#:  * clusters (``(second_tier_mem, strategy)``): safe to share because
#:    :meth:`repro.sim.engine.Simulation.run` resets the cluster before
#:    every run, and the capacity ladder (plus its rounding memos) is
#:    immutable — re-using it across runs is pure win.
_BASE_WORKLOADS: Dict[Tuple, Workload] = {}
_BASE_WORKLOADS_MAX = 4
_SCALED_WORKLOADS: Dict[Tuple, Workload] = {}
_SCALED_WORKLOADS_MAX = 16
_CLUSTERS: Dict[Tuple, Cluster] = {}
_CLUSTERS_MAX = 16

#: Zero-copy base workloads published by the sweep executor, by
#: ``base_key()``.  Installed into each pool worker by the pool initializer
#: (:func:`install_shared_columns`); :func:`_base_workload` attaches one of
#: these instead of re-generating/re-parsing the trace.  Attaching still
#: counts as that worker's one base-workload *miss* (the memo above caches
#: the attached workload), so the hit/miss accounting is representation-
#: independent.  Not a cache: survives :func:`clear_materialization_caches`
#: and is replaced wholesale on install.
_SHARED_BASES: Dict[Tuple, Any] = {}


def install_shared_columns(handles: Optional[Sequence[Any]]) -> None:
    """Install published base-workload handles for this process.

    ``handles`` are :class:`repro.experiments.shm.ColumnsHandle` objects
    (duck-typed here to keep this module free of the shm dependency); pass
    ``None`` or an empty sequence to clear — the pool initializer does this
    unconditionally so a forked worker never acts on handles inherited from
    a previous pool.
    """
    _SHARED_BASES.clear()
    for handle in handles or ():
        _SHARED_BASES[tuple(handle.base_key)] = handle


#: Hit/miss counters for the memos above (per process — a pool worker's
#: counters describe that worker only).  Read via
#: :func:`materialization_cache_info`.
_CACHE_STATS: Dict[str, int] = {
    "base_workload_hits": 0,
    "base_workload_misses": 0,
    "scaled_workload_hits": 0,
    "scaled_workload_misses": 0,
    "cluster_hits": 0,
    "cluster_misses": 0,
}


def materialization_cache_info() -> Dict[str, int]:
    """Snapshot of this process's materialization-cache hit/miss counters.

    Module-level (hence picklable): submitting this function to a pool
    worker returns *that worker's* counters, which is how the tests prove a
    repeated workload spec is parsed exactly once per worker.
    """
    return dict(_CACHE_STATS)


def trim_materialized_workloads() -> None:
    """Release every memoized workload's materialized per-job objects.

    Inlined fast lanes (no estimation, Algorithm 1) read a columnar
    workload's arrays and never materialize it.  Protocol-mode lanes, the
    scalar engine and code that reads a fast-lane result's summaries
    consume Python :class:`Job` objects, which a columnar workload
    materializes on first iteration — several MB per 20k-job trace, and
    the memos above would retain one such list per cached (base/scaled)
    workload.  The sweep executor calls this after every run so a worker
    keeps at most one materialized list live at a time; the columns stay
    cached, making the next run's re-materialization a cheap bulk pass
    rather than a re-parse (cache hit/miss counters unaffected).  A result
    still holding a released workload rebuilds bit-identical jobs from
    the columns if its summaries are read later.
    """
    for workload in _BASE_WORKLOADS.values():
        workload.release_materialized()
    for workload in _SCALED_WORKLOADS.values():
        workload.release_materialized()


def clear_materialization_caches() -> None:
    """Drop every materialization memo and zero the hit/miss counters.

    Called by the sweep executor's pool initializer so each worker starts
    with empty caches (under ``fork`` a worker would otherwise inherit the
    parent's memos *and* counters), and by tests needing a clean slate.
    """
    _BASE_WORKLOADS.clear()
    _SCALED_WORKLOADS.clear()
    _CLUSTERS.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def _base_workload(spec: WorkloadSpec) -> Workload:
    key = spec.base_key()
    cached = _BASE_WORKLOADS.get(key)
    if cached is not None:
        _CACHE_STATS["base_workload_hits"] += 1
        return cached
    _CACHE_STATS["base_workload_misses"] += 1
    shared = _SHARED_BASES.get(key)
    if shared is not None:
        # Zero-copy fast path: the parent already materialized this base
        # (drop_full_machine included — it is part of the key) and published
        # its columns; attach views instead of re-deriving the trace.
        workload = shared.attach()
    else:
        if spec.source == "lanl-cm5-synthetic":
            workload = lanl_cm5_like(n_jobs=spec.n_jobs, seed=spec.seed)
        elif spec.source == "swf":
            if not spec.trace_path:
                raise ValueError("WorkloadSpec(source='swf') requires trace_path")
            workload, _report = read_swf(spec.trace_path)
        else:
            raise ValueError(f"unknown workload source {spec.source!r}")
        if spec.drop_full_machine:
            workload = drop_full_machine_jobs(workload)
    if len(_BASE_WORKLOADS) >= _BASE_WORKLOADS_MAX:
        _BASE_WORKLOADS.pop(next(iter(_BASE_WORKLOADS)))
    _BASE_WORKLOADS[key] = workload
    return workload


def materialize_base_workload(spec: WorkloadSpec) -> Workload:
    """The spec's base workload (pre load-scaling), via this process's memo.

    Public entry point for the sweep executor, which materializes each
    distinct base once in the parent in order to publish its columns to the
    pool workers (:mod:`repro.experiments.shm`).
    """
    return _base_workload(spec)


@dataclass(frozen=True)
class ClusterSpec:
    """The paper's 512x32MB + 512x``m``MB cluster, by parameters."""

    second_tier_mem: float = 24.0
    strategy: str = "best_fit"

    def materialize(self) -> Cluster:
        # Memoized per process: Simulation.run() resets the cluster before
        # every run, so sequential runs can share one instance — and they
        # then also share the ladder's immutable rounding memos.
        key = (self.second_tier_mem, self.strategy)
        cached = _CLUSTERS.get(key)
        if cached is not None:
            _CACHE_STATS["cluster_hits"] += 1
            return cached
        _CACHE_STATS["cluster_misses"] += 1
        cluster = paper_cluster(self.second_tier_mem, strategy=self.strategy)
        if len(_CLUSTERS) >= _CLUSTERS_MAX:
            _CLUSTERS.pop(next(iter(_CLUSTERS)))
        _CLUSTERS[key] = cluster
        return cluster


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator by registry name plus frozen keyword arguments."""

    name: str = "none"
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **kwargs: Any) -> "EstimatorSpec":
        return cls(name=name, kwargs=_freeze_kwargs(kwargs))

    def materialize(self) -> Estimator:
        try:
            factory = ESTIMATOR_REGISTRY[self.name]
        except KeyError:
            raise KeyError(
                f"unknown estimator {self.name!r}; registered: "
                f"{sorted(ESTIMATOR_REGISTRY)}"
            ) from None
        return factory(**dict(self.kwargs))


@dataclass(frozen=True)
class PolicySpec:
    """A scheduling policy by registry name plus frozen keyword arguments."""

    name: str = "fcfs"
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **kwargs: Any) -> "PolicySpec":
        return cls(name=name, kwargs=_freeze_kwargs(kwargs))

    def materialize(self) -> Policy:
        try:
            factory = POLICY_REGISTRY[self.name]
        except KeyError:
            raise KeyError(
                f"unknown policy {self.name!r}; registered: {sorted(POLICY_REGISTRY)}"
            ) from None
        return factory(**dict(self.kwargs))


@dataclass(frozen=True)
class FaultSpec:
    """Simulation-level failure knobs of one run (all off by default).

    ``node_mtbf`` is the per-node mean time between injected failures in
    seconds (0 disables fault injection, matching the CLI's convention);
    ``node_mttr`` the mean repair time; ``spurious`` the per-attempt
    spurious-failure probability (§2.1 false positives).  The fault RNG
    stream derives from the run's seed exactly as in
    :func:`repro.sim.engine.simulate`, so a faulted spec reproduces the
    direct-simulation result bit for bit.
    """

    node_mtbf: float = 0.0
    node_mttr: float = 3600.0
    spurious: float = 0.0

    def __post_init__(self) -> None:
        if self.node_mtbf < 0:
            raise ValueError(f"node_mtbf must be >= 0, got {self.node_mtbf}")
        if self.node_mttr <= 0:
            raise ValueError(f"node_mttr must be positive, got {self.node_mttr}")
        if not 0.0 <= self.spurious <= 1.0:
            raise ValueError(f"spurious must be in [0, 1], got {self.spurious}")

    @property
    def enabled(self) -> bool:
        return self.node_mtbf > 0 or self.spurious > 0


@dataclass(frozen=True)
class RunSpec:
    """One fully-described simulation run: the unit the sweep executor
    schedules, pickles into workers, and keys the result cache on."""

    workload: WorkloadSpec
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    estimator: EstimatorSpec = field(default_factory=EstimatorSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    seed: int = 0  # failure-model seed (fixed across load points of a sweep)
    label: str = ""
    faults: FaultSpec = field(default_factory=FaultSpec)

    @property
    def load(self) -> float:
        """The offered load this point was run at (1.0 when unscaled)."""
        return self.workload.load if self.workload.load is not None else 1.0

    def canonical(self) -> Dict[str, Any]:
        """JSON-able, order-stable description of everything that affects
        the simulation result (``label`` is presentation-only and excluded)."""
        doc = asdict(self)
        doc.pop("label")
        if not self.faults.enabled and self.faults == FaultSpec():
            # Fault-free specs canonicalize exactly as before the ``faults``
            # field existed, so every pre-existing cache entry stays valid.
            doc.pop("faults")
        doc["estimator"]["kwargs"] = [list(kv) for kv in self.estimator.kwargs]
        doc["policy"]["kwargs"] = [list(kv) for kv in self.policy.kwargs]
        return doc

    def cache_key(self) -> str:
        """SHA-256 over the canonical spec plus the workload fingerprint."""
        payload = json.dumps(
            {"spec": self.canonical(), "workload": self.workload.fingerprint()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()
