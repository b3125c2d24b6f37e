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

Building, canonicalizing and keying a spec imports no estimator, policy,
workload module or numpy: the built-in registry entries name their
factories, and each ``materialize()`` imports what it builds.  The sweep
service parses and keys submissions on this path alone.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.cluster.cluster import Cluster
    from repro.core.base import Estimator
    from repro.sim.policies import Policy
    from repro.workload.job import Workload

#: Estimator factories constructible from a spec, by name.  Factories take
#: the spec's keyword arguments; stateless names map straight to classes.
#: A built-in entry names its factory as ``"module:attr"``, imported on the
#: first :meth:`EstimatorSpec.materialize` of that name, so building,
#: keying and validating a spec imports no estimator (and no numpy).
ESTIMATOR_REGISTRY: Dict[str, Union[str, Callable[..., Estimator]]] = {
    "none": "repro.core.baselines:NoEstimation",
    "successive": "repro.core.successive:SuccessiveApproximation",
    "last-instance": "repro.core.last_instance:LastInstance",
    "rl": "repro.core.reinforcement:ReinforcementLearning",
    "regression": "repro.core.regression:RegressionEstimator",
    "line-search": "repro.core.linesearch:RobustLineSearch",
    "online": "repro.core.online:OnlineSimilarityEstimator",
    "hybrid": "repro.core.hybrid:HybridEstimator",
    "oracle": "repro.core.baselines:OracleEstimator",
}

POLICY_REGISTRY: Dict[str, Union[str, Callable[..., Policy]]] = {
    "fcfs": "repro.sim.policies:Fcfs",
    "sjf": "repro.sim.policies:ShortestJobFirst",
    "easy-backfilling": "repro.sim.policies:EasyBackfilling",
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


def _factory(registry: Dict[str, Any], name: str, what: str) -> Callable[..., Any]:
    """``registry[name]`` as a callable, importing a ``"module:attr"`` entry
    and storing what it names in its place."""
    try:
        factory = registry[name]
    except KeyError:
        raise KeyError(
            f"unknown {what} {name!r}; registered: {sorted(registry)}"
        ) from None
    if isinstance(factory, str):
        module, _, attr = factory.partition(":")
        factory = registry[name] = getattr(importlib.import_module(module), attr)
    return factory


def load_registered_factories() -> None:
    """Import every factory the registries still name by ``"module:attr"``.

    The sweep executor calls this when it is imported, so each forked pool
    worker inherits the estimator and policy modules compiled.
    """
    for registry, what in ((ESTIMATOR_REGISTRY, "estimator"), (POLICY_REGISTRY, "policy")):
        for name in list(registry):
            _factory(registry, name, what)


# The workload builders a spec calls, imported on first call.  Sweep code
# calls them through these module globals, which is where the end-to-end
# benchmark's tracer (benchmarks/e2e/tracing.py) wraps them.
def lanl_cm5_like(*args: Any, **kwargs: Any) -> Workload:
    """:func:`repro.workload.lanl_cm5.lanl_cm5_like`."""
    from repro.workload.lanl_cm5 import lanl_cm5_like as generate

    return generate(*args, **kwargs)


def drop_full_machine_jobs(*args: Any, **kwargs: Any) -> Workload:
    """:func:`repro.workload.transforms.drop_full_machine_jobs`."""
    from repro.workload.transforms import drop_full_machine_jobs as drop

    return drop(*args, **kwargs)


def scale_load(*args: Any, **kwargs: Any) -> Workload:
    """:func:`repro.workload.transforms.scale_load`."""
    from repro.workload.transforms import scale_load as scale

    return scale(*args, **kwargs)


#: The workload sources :func:`_base_workload` can build.
_SOURCES = ("lanl-cm5-synthetic", "swf")


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

    def __post_init__(self) -> None:
        if type(self.n_jobs) is not int or self.n_jobs < 1:
            raise ValueError(f"n_jobs must be an integer >= 1, got {self.n_jobs!r}")
        # Negated comparison, so a NaN load fails it too.
        if self.load is not None and not 0 < self.load < math.inf:
            raise ValueError(f"load must be positive and finite, got {self.load}")
        if self.source not in _SOURCES:
            raise ValueError(
                f"unknown workload source {self.source!r}; pick from {_SOURCES}"
            )

    def base_key(self) -> Tuple:
        """Identity of the workload *before* load scaling (memoization key)."""
        return (self.source, self.n_jobs, self.seed, self.trace_path,
                self.drop_full_machine)

    def materialize(self) -> Workload:
        """The memoized base trace, or a new copy of it scaled to ``load``."""
        if self.load is None:
            return _base_workload(self)
        return scale_load(_base_workload(self), self.load)

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


#: Per-process memo of base workloads (``base_key()``): a sweep re-uses one
#: trace across its load points and a pool worker across its specs, so the
#: generate/parse cost is paid once per process.  A memoized workload is its
#: columns only (its jobs are a view that keeps none), so nothing a run
#: builds from it outlives the run.  The pool initializer
#: (:mod:`repro.experiments.parallel`) clears it at worker start.  Scaled
#: traces (0.9 ms per 20k jobs) and clusters (microseconds) are built per
#: run: a :class:`~repro.cluster.cluster.Cluster` is mutable run state, and
#: the service runs sweeps side by side in one process.
_BASE_WORKLOADS: Dict[Tuple, Workload] = {}
_BASE_WORKLOADS_MAX = 4

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


#: Hit/miss counters of the base-workload memo (per process — a pool worker's
#: counters describe that worker only).  Read via
#: :func:`materialization_cache_info`.
_CACHE_STATS: Dict[str, int] = {
    "base_workload_hits": 0,
    "base_workload_misses": 0,
}


def materialization_cache_info() -> Dict[str, int]:
    """Snapshot of this process's materialization-cache hit/miss counters.

    Module-level (hence picklable): submitting this function to a pool
    worker returns *that worker's* counters, which is how the tests prove a
    repeated workload spec is parsed exactly once per worker.
    """
    return dict(_CACHE_STATS)


def clear_materialization_caches() -> None:
    """Drop the base-workload memo and zero its hit/miss counters.

    Called by the sweep executor's pool initializer so each worker starts
    with an empty memo (under ``fork`` a worker would otherwise inherit the
    parent's memo *and* counters), and by tests needing a clean slate.
    """
    _BASE_WORKLOADS.clear()
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
        else:  # "swf"
            from repro.workload.swf import read_swf

            if not spec.trace_path:
                raise ValueError("WorkloadSpec(source='swf') requires trace_path")
            workload, _report = read_swf(spec.trace_path)
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

    def __post_init__(self) -> None:
        from repro.cluster.cluster import _STRATEGIES

        if not 0 < self.second_tier_mem < math.inf:
            raise ValueError(
                f"second_tier_mem must be positive and finite, got {self.second_tier_mem}"
            )
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; pick from {_STRATEGIES}"
            )

    def materialize(self) -> Cluster:
        """A new cluster: a run mutates its nodes, so no two runs share one."""
        from repro.cluster.builder import paper_cluster

        return paper_cluster(self.second_tier_mem, strategy=self.strategy)


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator by registry name plus frozen keyword arguments."""

    name: str = "none"
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **kwargs: Any) -> "EstimatorSpec":
        return cls(name=name, kwargs=_freeze_kwargs(kwargs))

    def materialize(self) -> Estimator:
        return _factory(ESTIMATOR_REGISTRY, self.name, "estimator")(**dict(self.kwargs))


@dataclass(frozen=True)
class PolicySpec:
    """A scheduling policy by registry name plus frozen keyword arguments."""

    name: str = "fcfs"
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **kwargs: Any) -> "PolicySpec":
        return cls(name=name, kwargs=_freeze_kwargs(kwargs))

    def materialize(self) -> Policy:
        return _factory(POLICY_REGISTRY, self.name, "policy")(**dict(self.kwargs))


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
        # Negated comparisons, so a NaN knob fails them too.
        if not self.node_mtbf >= 0:
            raise ValueError(f"node_mtbf must be >= 0, got {self.node_mtbf}")
        if not 0 < self.node_mttr < math.inf:
            raise ValueError(
                f"node_mttr must be positive and finite, got {self.node_mttr}"
            )
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

    def __post_init__(self) -> None:
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
