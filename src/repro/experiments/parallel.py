"""Crash-resilient multi-process sweep executor.

Every headline artifact (Figures 5, 6, 8; the seed replication) is a grid
of *independent* simulation runs, each described by a picklable
:class:`~repro.experiments.specs.RunSpec`.  :func:`run_sweep` fans a spec
list out over a :class:`concurrent.futures.ProcessPoolExecutor` and
collects results **in spec order**, so the parallel path is point-for-point
identical to the serial one — ``max_workers=1`` without a timeout *is*
the serial path (no pool is created), and a restricted environment
without ``fork``/semaphores degrades to in-process execution rather than
failing.

Resilience model
----------------
Specs are submitted as *individual futures* (a sliding window of at most
``max_workers`` in flight), never ``pool.map``, so one lost worker cannot
take the whole grid down:

* **Incremental write-back** — each result is committed to the
  :class:`~repro.experiments.cache.SweepCache` (one file per point,
  written by atomic rename) the moment it lands, not when the sweep ends.
  A sweep whose process is killed halfway leaves everything it computed
  on disk, and re-running it over the same cache directory recomputes only
  the missing points.  Nothing is fsynced, so a *host* crash may lose the
  newest points; they are recomputed like any other miss.
* **Pool rebuild** — a worker dying (OOM kill, segfault, ``SIGKILL``)
  breaks the whole :class:`ProcessPoolExecutor`; the executor rebuilds the
  pool and resubmits only the *unfinished* specs, preserving every
  completed outcome.  A spec that repeatedly coincides with pool crashes is
  quarantined: it runs alone on the pool, and if a worker dies then, it is
  reported failed, so a poison spec cannot crash-loop the sweep forever.
  A spec that was in flight when a worker died never runs in the calling
  process, where it could kill the sweep (or the service) itself.
* **Per-spec timeout** — a run exceeding ``timeout`` seconds of wall clock
  since submission is stopped: the pool's workers are terminated and a
  fresh pool replaces it.  The run is resubmitted at once, up to
  ``max_retries`` times; specs that were in flight beside it go back to
  the front of the queue, charged nothing.  A timeout runs the sweep on a
  pool even at ``max_workers=1``, since only a worker can be stopped.
* **No retry of errors** — a simulation is a pure function of its spec,
  so a spec that raises would raise again; its traceback is reported on
  its outcome after one run.

Each run returns a :class:`RunOutcome` envelope: the spec, its
:class:`~repro.experiments.runner.SweepPoint` (or a formatted traceback if
the worker raised — one bad point reports itself instead of killing the
sweep), the wall time, and whether it was served from the
:class:`~repro.experiments.cache.SweepCache` (``cached``).
Sweep-level throughput, cache, and resilience accounting is reported on
:class:`SweepReport` and logged via the ``repro.sweep`` logger.

Importing this module imports everything a pool worker runs (the engines,
every built-in estimator and policy, the protocol and fault lanes, the
workload builders), so a forked worker inherits it compiled instead of
compiling it after the fork.
"""

from __future__ import annotations

import importlib
import logging
import multiprocessing
import os
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as wait_for_ready
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import SweepCache
from repro.experiments.runner import LoadSweep, SweepPoint
from repro.experiments.shm import SharedBaseStore
from repro.experiments.specs import (
    RunSpec,
    clear_materialization_caches,
    install_shared_columns,
    load_registered_factories,
    materialize_base_workload,
)
# ``simulate_batch`` is not called here; the e2e benchmark's tracer
# (benchmarks/e2e/tracing.py) wraps it under this module's name.
from repro.sim.batch import simulate_batch  # noqa: F401
from repro.sim.engine import _simulate_scalar, simulate
from repro.sim.faults import FaultConfig
from repro.sim.metrics import mean_slowdown, utilization
from repro.sim.records import SimResult

try:  # POSIX-only; on platforms without it RSS reports as 0
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]

# What a pool worker runs but no import above reaches: the modules behind
# the built-in registry entries, the two lanes repro.sim.batch imports on
# first use, and the workload builders a spec calls.  The service imports
# this module in the background, so its first submission finds them too.
load_registered_factories()
for _module in (
    "repro.sim.protocol_lane",
    "repro.sim.fault_lane",
    "repro.workload.lanl_cm5",
    "repro.workload.synthetic",
    "repro.workload.swf",
    "repro.workload.transforms",
):
    importlib.import_module(_module)

logger = logging.getLogger("repro.sweep")

#: Errors that mean "no usable process pool in this environment" (no fork,
#: no /dev/shm, missing _multiprocessing).  Deliberately narrow: a
#: ``BrokenProcessPool`` is *not* in this set — it means a worker died
#: mid-sweep and is handled by rebuilding the pool while keeping every
#: completed outcome, not by discarding the sweep and starting over.
_POOL_UNAVAILABLE = (OSError, ImportError, PermissionError)


@dataclass(frozen=True)
class RunOutcome:
    """Envelope around one executed (or cached, or failed) run."""

    spec: RunSpec
    point: Optional[SweepPoint]
    error: Optional[str] = None
    wall_time: float = 0.0
    #: Served from the :class:`~repro.experiments.cache.SweepCache` without
    #: executing.
    cached: bool = False
    #: Times this spec was resubmitted after a timeout before the recorded
    #: result landed (0 for first-try results and cache hits).
    retries: int = 0
    #: ``ru_maxrss`` (KB) of the process that executed this run, sampled as
    #: the run finished — the sweep-level peak is the memory a worker
    #: actually needs (0 for cache hits and platforms without getrusage).
    worker_rss_kb: int = 0

    @property
    def ok(self) -> bool:
        return self.point is not None


class SweepError(RuntimeError):
    """Raised when results are demanded from a sweep with failed points."""


def _spec_fault_config(spec: RunSpec) -> Optional[FaultConfig]:
    if spec.faults.node_mtbf > 0:
        return FaultConfig(
            node_mtbf=spec.faults.node_mtbf, node_mttr=spec.faults.node_mttr
        )
    return None


def _result_to_point(spec: RunSpec, result: SimResult) -> SweepPoint:
    return SweepPoint(
        load=float(spec.load),
        utilization=utilization(result),
        mean_slowdown=mean_slowdown(result),
        frac_failed_executions=result.frac_failed_executions,
        frac_reduced_submissions=result.frac_reduced_submissions,
        wasted_node_seconds=result.wasted_node_seconds,
    )


def _simulate(spec: RunSpec, run: Callable[..., SimResult]) -> SimResult:
    """Materialize ``spec`` and run it through ``run``.

    The attempt trace is off: a sweep point only aggregates.
    """
    return run(
        spec.workload.materialize(),
        spec.cluster.materialize(),
        spec.estimator.materialize(),
        policy=spec.policy.materialize(),
        seed=spec.seed,
        spurious_failure_prob=spec.faults.spurious,
        fault_config=_spec_fault_config(spec),
        collect_attempts=False,
    )


def _run_spec(spec: RunSpec, run: Callable[..., SimResult]) -> SweepPoint:
    """``spec``'s sweep point from a :func:`_simulate` through ``run``."""
    return _result_to_point(spec, _simulate(spec, run))


def simulate_spec(spec: RunSpec) -> SweepPoint:
    """``spec``'s sweep point from the scalar oracle engine.

    Always runs a :class:`~repro.sim.engine.Simulation`, whatever the
    configuration.  The executor itself runs :func:`execute_spec`, which
    takes the fast lane whenever it can; tests and the e2e benchmark's
    cross-check compare sweep points against this function, so that check
    is a fast-versus-scalar comparison.
    """
    return _run_spec(spec, _simulate_scalar)


def _worker_init(shared_handles=None) -> None:
    """Process-pool initializer: tie the worker to its parent, clear the
    base-trace memo, then install shared-base handles.

    A worker ends itself (:func:`_exit_with_parent`) once the process that
    built its pool is gone, so a sweep killed by a signal leaves no idle
    workers behind.

    :mod:`repro.experiments.specs` memoizes base workloads per process,
    keyed by the same provenance fields the spec fingerprint hashes — so N
    specs over the same trace parse it once per worker.  Under the
    ``fork`` start method a fresh worker would *inherit* the parent's memo
    and hit counters; clearing them at worker start makes the memo (and
    its accounting) genuinely per-worker and bounded.  Clusters and
    load-scaled traces are built afresh for every run.

    ``shared_handles`` are the parent's published base-workload columns
    (:mod:`repro.experiments.shm`); installing them lets this worker attach
    zero-copy views instead of re-deriving each base trace.  Installation
    happens unconditionally (``None`` installs nothing) so handles from a
    previous pool can never leak across rebuilds.
    """
    _exit_with_parent()
    clear_materialization_caches()
    install_shared_columns(shared_handles)


def _exit_with_parent() -> None:
    """End this process once its parent process exits.

    A daemon thread blocks on the parent's sentinel, which becomes ready
    when the parent dies, however it dies.  (``prctl(PR_SET_PDEATHSIG)``
    would not do: it fires when the forking *thread* ends, and the service
    builds its pools from short-lived sweep threads.)  Under ``fork``,
    workers forked later inherit the parent's end of this worker's
    sentinel pipe, so the workers of a dead parent end newest first.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait_for_ready([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _worker_warmup() -> int:
    """No-op shipped to freshly spawned workers to force/measure spin-up."""
    return os.getpid()


def _rss_to_kb(ru_maxrss: float, platform: str = sys.platform) -> int:
    """Normalize a raw ``ru_maxrss`` reading to kilobytes.

    ``getrusage`` reports ``ru_maxrss`` in kilobytes on Linux (and most
    other POSIX systems) but in **bytes** on macOS — an un-normalized
    reading over-reports Darwin worker memory ~1024x.
    """
    value = int(ru_maxrss)
    if platform == "darwin":
        return value // 1024
    return value


def _peak_rss_kb() -> int:
    """This process's peak resident set size in KB (0 where unsupported)."""
    if _resource is None:
        return 0
    return _rss_to_kb(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec, capturing any exception into the outcome envelope.

    The spec runs through :func:`repro.sim.engine.simulate`, which takes the
    fast lane (a one-lane :func:`~repro.sim.batch.simulate_batch`) when
    :func:`~repro.sim.batch.fast_lane_eligible` accepts the configuration
    and the scalar engine otherwise; both give bit-identical points.  One
    spec is the executor's whole scheduling unit.  Module-level (hence
    picklable): this is the function shipped to pool workers.
    """
    t0 = time.perf_counter()
    try:
        point = _run_spec(spec, simulate)
        return RunOutcome(
            spec=spec,
            point=point,
            wall_time=time.perf_counter() - t0,
            worker_rss_kb=_peak_rss_kb(),
        )
    except Exception:
        return RunOutcome(
            spec=spec,
            point=None,
            error=traceback.format_exc(),
            wall_time=time.perf_counter() - t0,
            worker_rss_kb=_peak_rss_kb(),
        )


def execute_batch(specs: Sequence[RunSpec]) -> List[RunOutcome]:
    """:func:`execute_spec` over ``specs`` in this process, in order.

    The executor no longer calls this; it stays because the e2e
    benchmark's tracer (benchmarks/e2e/tracing.py) binds it by name.
    """
    return [execute_spec(spec) for spec in specs]


@dataclass
class _ExecutionStats:
    """Mutable resilience counters threaded through one ``_execute_all``."""

    n_retries: int = 0
    n_timeouts: int = 0
    n_pool_rebuilds: int = 0
    #: Wall clock spent constructing process pools and spawning their
    #: workers (cumulative across rebuilds) — reported separately so pool
    #: overhead is never mistaken for simulation time.
    pool_spinup_seconds: float = 0.0


@dataclass(frozen=True)
class SweepProfile:
    """Aggregated per-spec profiling of one sweep.

    Built by :meth:`SweepReport.profile` from the wall-clock, retry, and
    cache fields each :class:`RunOutcome` envelope carries.  ``wall_time``
    figures cover *executed* runs only (cache hits cost ~0 and would drown
    the mean); ``slowest`` lists the heaviest executed specs as
    ``(label, seconds)`` pairs — the ones to cache, shard, or shrink first.
    """

    n_runs: int
    n_executed: int
    n_cache_hits: int
    n_errors: int
    total_wall_time: float  # summed across executed runs (CPU-ish seconds)
    mean_wall_time: float
    max_wall_time: float
    total_retries: int
    n_timeouts: int
    n_pool_rebuilds: int
    slowest: Tuple[Tuple[str, float], ...] = ()

    @property
    def mean_batch_width(self) -> float:
        """Specs per executor unit: always 1.0, since each unit is one spec.

        Kept for readers of the old profile shape (the e2e benchmark's
        tracer reports it as ``parallel.batch_width_mean``).
        """
        return 1.0

    @property
    def cache_hit_rate(self) -> float:
        return self.n_cache_hits / self.n_runs if self.n_runs else 0.0

    def format_report(self) -> str:
        lines = [
            f"runs        : {self.n_runs} ({self.n_executed} executed, "
            f"{self.n_cache_hits} cache hits = {self.cache_hit_rate:.0%}, "
            f"{self.n_errors} errors)",
            f"wall time   : {self.total_wall_time:.2f}s total across workers "
            f"(mean {self.mean_wall_time:.2f}s, max {self.max_wall_time:.2f}s "
            f"per executed run)",
            f"resilience  : {self.total_retries} retries, "
            f"{self.n_timeouts} timeouts, {self.n_pool_rebuilds} pool rebuilds",
        ]
        if self.slowest:
            lines.append("slowest runs:")
            lines.extend(
                f"  {seconds:>8.2f}s  {label}" for label, seconds in self.slowest
            )
        return "\n".join(lines)


@dataclass
class SweepReport:
    """Ordered outcomes of one sweep plus throughput/cache accounting."""

    outcomes: List[RunOutcome]
    wall_time: float
    max_workers: int
    #: Runs resubmitted after a timeout (at most ``max_retries`` per spec).
    n_retries: int = 0
    #: Runs stopped for exceeding the per-spec timeout (retries included).
    n_timeouts: int = 0
    #: Times a dead worker broke the pool and it was rebuilt mid-sweep.
    n_pool_rebuilds: int = 0
    #: Workers the caller asked for (``max_workers`` is what actually ran:
    #: oversubscription on a small host falls back to the serial path).
    requested_workers: int = 0
    #: ``os.cpu_count()`` of the executing host (0 when undetermined).
    host_cpus: int = 0
    #: Seconds spent building pools and spawning workers, separate from
    #: ``wall_time`` accounting of the simulations themselves.
    pool_spinup_time: float = 0.0

    @property
    def n_runs(self) -> int:
        return len(self.outcomes)

    @property
    def n_cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def n_errors(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def runs_per_second(self) -> float:
        return self.n_runs / self.wall_time if self.wall_time > 0 else float("inf")

    @property
    def peak_worker_rss_kb(self) -> int:
        """Largest ``ru_maxrss`` (KB) any executing process reported.

        On the pool path this is worker memory; on the serial path it is the
        parent's own peak.  0 when every point was served from cache or the
        platform lacks ``getrusage``.
        """
        return max((o.worker_rss_kb for o in self.outcomes), default=0)

    def points(self) -> List[SweepPoint]:
        """All points, in spec order; raises :class:`SweepError` with every
        failing spec's label and traceback if any run failed."""
        failed = [o for o in self.outcomes if not o.ok]
        if failed:
            detail = "\n\n".join(
                f"spec {o.spec.label or o.spec.canonical()}:\n{o.error}"
                for o in failed
            )
            raise SweepError(
                f"{len(failed)}/{len(self.outcomes)} sweep points failed:\n{detail}"
            )
        return [o.point for o in self.outcomes]

    def profile(self, top: int = 5) -> SweepProfile:
        """Fold the per-spec envelopes into a :class:`SweepProfile`.

        ``top`` bounds the ``slowest`` list (executed runs only, heaviest
        first, labelled by ``spec.label`` or the spec's canonical form).
        """
        executed = [o for o in self.outcomes if not o.cached]
        walls = [o.wall_time for o in executed]
        by_cost = sorted(executed, key=lambda o: o.wall_time, reverse=True)
        return SweepProfile(
            n_runs=self.n_runs,
            n_executed=len(executed),
            n_cache_hits=self.n_cache_hits,
            n_errors=self.n_errors,
            total_wall_time=float(sum(walls)),
            mean_wall_time=float(sum(walls) / len(walls)) if walls else 0.0,
            max_wall_time=max(walls) if walls else 0.0,
            total_retries=sum(o.retries for o in self.outcomes),
            n_timeouts=self.n_timeouts,
            n_pool_rebuilds=self.n_pool_rebuilds,
            slowest=tuple(
                (o.spec.label or o.spec.canonical(), o.wall_time)
                for o in by_cost[: max(top, 0)]
            ),
        )

    def summary(self) -> str:
        text = (
            f"{self.n_runs} runs in {self.wall_time:.2f}s "
            f"({self.runs_per_second:.1f} runs/s, workers={self.max_workers}, "
            f"{self.n_cache_hits} cache hits, {self.n_errors} errors)"
        )
        extras = [
            f"{count} {label}"
            for count, label in (
                (self.n_retries, "retries"),
                (self.n_timeouts, "timeouts"),
                (self.n_pool_rebuilds, "pool rebuilds"),
            )
            if count
        ]
        if self.pool_spinup_time > 0:
            extras.append(f"pool spin-up {self.pool_spinup_time:.2f}s")
        if extras:
            text += " [" + ", ".join(extras) + "]"
        return text


def run_sweep(
    specs: Sequence[RunSpec],
    max_workers: int = 1,
    cache: Optional[SweepCache] = None,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    oversubscribe: bool = False,
    on_outcome: Optional[Callable[[int, RunOutcome], None]] = None,
) -> SweepReport:
    """Execute every spec, in parallel when ``max_workers > 1``.

    Each spec is one unit of work: :func:`execute_spec` runs it through
    :func:`repro.sim.engine.simulate`, so an eligible spec takes the fast
    lane on its own and any other spec runs the scalar engine.

    Cache lookups happen up front in the parent process; only misses are
    dispatched, and each result is written back the moment it lands (never
    at the end — a killed sweep keeps its partial work, and re-running it
    over the same cache resumes it).  Failed runs are never cached.
    Results always come back in ``specs`` order.

    ``timeout`` (seconds of wall clock per run) stops a run that takes
    longer and resubmits it, at most ``max_retries`` times; a run that
    raises is never retried.  Only a worker process can be stopped, so a
    ``timeout`` runs even ``max_workers=1`` on a one-worker pool.

    ``on_outcome(index, outcome)`` is invoked in the parent process for
    every finalized outcome — up-front cache hits immediately, executed
    runs the moment their result lands (completion order, not spec order).
    The sweep service streams per-point progress through this hook; it
    must not raise.

    Requesting more workers than the host has CPUs buys nothing for these
    CPU-bound simulations — it adds pool spin-up and scheduling overhead on
    top of serial-speed progress — so the sweep falls back to one worker
    when ``max_workers > os.cpu_count()``.  Pass ``oversubscribe=True``
    to force a pool anyway (tests of the pool machinery itself do this).
    """
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    t0 = time.perf_counter()
    host_cpus = os.cpu_count() or 0
    requested = max(1, max_workers)
    effective_workers = requested
    if requested > 1 and host_cpus and requested > host_cpus and not oversubscribe:
        logger.warning(
            "requested %d workers but the host has %d CPU(s); falling back "
            "to one worker (oversubscribe=True forces a pool)",
            requested,
            host_cpus,
        )
        effective_workers = 1
    emit = on_outcome or (lambda i, outcome: None)

    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    todo: List[int] = []
    for i, spec in enumerate(specs):
        point = cache.get(spec) if cache is not None else None
        if point is None:
            todo.append(i)
        else:
            outcomes[i] = RunOutcome(spec=spec, point=point, cached=True)
            emit(i, outcomes[i])

    stats = _ExecutionStats()
    if todo:

        def commit(j: int, outcome: RunOutcome) -> None:
            outcomes[todo[j]] = outcome
            if outcome.ok and cache is not None:
                cache.put(outcome.spec, outcome.point)
            emit(todo[j], outcome)

        _execute_all(
            [specs[i] for i in todo],
            effective_workers,
            timeout=timeout,
            max_retries=max_retries,
            on_result=commit,
            stats=stats,
        )

    report = SweepReport(
        outcomes=list(outcomes),
        wall_time=time.perf_counter() - t0,
        max_workers=effective_workers,
        n_retries=stats.n_retries,
        n_timeouts=stats.n_timeouts,
        n_pool_rebuilds=stats.n_pool_rebuilds,
        requested_workers=requested,
        host_cpus=host_cpus,
        pool_spinup_time=stats.pool_spinup_seconds,
    )
    logger.info("sweep: %s", report.summary())
    return report


def _execute_all(
    specs: Sequence[RunSpec],
    max_workers: int,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    on_result: Optional[Callable[[int, RunOutcome], None]] = None,
    stats: Optional[_ExecutionStats] = None,
) -> List[RunOutcome]:
    """Execute ``specs``, invoking ``on_result(index, outcome)`` as each
    lands (indices are positions in ``specs``; completion order is
    arbitrary).  Returns the outcomes in ``specs`` order."""
    stats = stats if stats is not None else _ExecutionStats()
    results: List[Optional[RunOutcome]] = [None] * len(specs)
    emit = on_result or (lambda j, outcome: None)

    def finish(j: int, outcome: RunOutcome) -> None:
        results[j] = outcome
        emit(j, outcome)

    if timeout is not None or (max_workers > 1 and len(specs) > 1):
        _PoolExecution(
            specs,
            min(max_workers, len(specs)),
            timeout=timeout,
            max_retries=max_retries,
            finish=finish,
            stats=stats,
        ).run()
    else:
        for j, spec in enumerate(specs):
            finish(j, execute_spec(spec))
    return results


class _PoolExecution:
    """One pool-backed ``_execute_all``: sliding-window futures over a pool.

    Each future runs one spec (:func:`execute_spec`), so every pending
    future maps to one spec index: a timeout measures one run, and
    retries, crash resubmissions and quarantine each charge exactly the
    spec they concern.

    At most ``workers`` tasks are in flight at a time, so every pending
    future is (approximately) *running*, which makes the per-spec timeout a
    measure of actual runtime rather than queue wait.  A running task
    cannot be cancelled, so a timeout terminates the pool's workers and
    replaces the pool.
    All mutable state lives here so broken-pool recovery can reason about
    exactly which specs are unfinished.

    Before building the pool the parent materializes each distinct base
    workload once and publishes its columns (:mod:`repro.experiments.shm`);
    the pool initializer hands workers zero-copy handles, and ``run``
    unlinks every segment in its ``finally`` — crashes included.
    """

    def __init__(
        self,
        specs: Sequence[RunSpec],
        workers: int,
        timeout: Optional[float],
        max_retries: int,
        finish: Callable[[int, RunOutcome], None],
        stats: _ExecutionStats,
    ) -> None:
        self.specs = specs
        self.workers = workers
        self.timeout = timeout
        self.max_retries = max_retries
        self.finish = finish
        self.stats = stats
        n = len(specs)
        self.todo: deque = deque(range(n))
        self.pending: Dict[Future, int] = {}
        self.started: Dict[Future, float] = {}
        self.retries_used = [0] * n
        #: Pool crashes a spec was in flight for.  A spec exceeding the
        #: quarantine threshold runs alone on the pool, so the next crash is
        #: its own and fails it: a poison spec (e.g. one that OOM-kills its
        #: worker every time) cannot crash-loop the sweep, and a bystander
        #: quarantined with it gets a run of its own.
        self.crashes = [0] * n
        #: The quarantined spec running alone on the pool, if any.
        self.alone: Optional[int] = None
        self.pool: Optional[ProcessPoolExecutor] = None
        self.shm_store = SharedBaseStore()

    # Quarantine after more pool crashes than plausible for a bystander.
    @property
    def crash_quarantine(self) -> int:
        return max(1, self.max_retries)

    def _publish_bases(self) -> None:
        """Materialize each distinct base once and publish its columns.

        Failure here must never fail the sweep: workers fall back to
        materializing their own bases exactly as before.
        """
        try:
            seen = set()
            for spec in self.specs:
                key = spec.workload.base_key()
                if key in seen:
                    continue
                seen.add(key)
                self.shm_store.publish(
                    key, materialize_base_workload(spec.workload)
                )
        except Exception as exc:
            logger.warning(
                "publishing shared base workloads failed (%s); workers will "
                "materialize their own",
                exc,
            )
            self.shm_store.close()
            self.shm_store.handles.clear()  # never hand out dead segments

    def run(self) -> None:
        try:
            self._publish_bases()
            self.pool = self._new_pool()
            if self.pool is None:
                self._drain_in_process()
                return
            while self.todo or self.pending:
                self._submit_ready()
                if self.pending:
                    self._wait_round()
        finally:
            if self.pool is not None:
                # Join idle workers (a few ms): a process that exits while the
                # pool's manager thread is still closing its wakeup pipe can
                # make CPython's exit hook write to the closed pipe (EBADF).
                self.pool.shutdown(wait=not self.pending, cancel_futures=True)
            self.shm_store.close()

    # ------------------------------------------------------------- plumbing
    def _new_pool(self) -> Optional[ProcessPoolExecutor]:
        t0 = time.perf_counter()
        try:
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(tuple(self.shm_store.handles),),
            )
            # Warm-up barrier: force workers to spawn (running _worker_init)
            # *now*, so (a) spin-up cost is accounted separately instead of
            # leaking into the first specs' wall times and per-spec timeouts,
            # and (b) the caches start empty before any spec executes.
            wait([pool.submit(_worker_warmup) for _ in range(self.workers)])
        except _POOL_UNAVAILABLE as exc:
            # Restricted environments (no /dev/shm, no fork) land here:
            # degrade to in-process execution rather than failing the sweep.
            logger.warning(
                "process pool unavailable (%s); running sweep in-process", exc
            )
            return None
        self.stats.pool_spinup_seconds += time.perf_counter() - t0
        return pool

    def _finish(self, j: int, outcome: RunOutcome) -> None:
        if self.retries_used[j]:
            # Per-spec profiling: the envelope records how many times this
            # spec was resubmitted before the result that landed.
            outcome = replace(outcome, retries=self.retries_used[j])
        self.finish(j, outcome)

    def _drain_in_process(self) -> None:
        """Run every unfinished spec serially, keeping completed outcomes."""
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None
        if self.timeout is not None and self.todo:
            logger.warning(
                "the per-spec timeout of %gs cannot be enforced in-process; "
                "the remaining %d specs run to completion",
                self.timeout,
                len(self.todo),
            )
        while self.todo:
            j = self.todo.popleft()
            if self.crashes[j]:
                # It may be what killed the worker: never run it here.
                self._finish(j, self._crashed(j, "no process pool is left"))
            else:
                self._finish(j, execute_spec(self.specs[j]))

    def _crashed(self, j: int, why: str) -> RunOutcome:
        return RunOutcome(
            spec=self.specs[j],
            point=None,
            error=(
                f"in flight for {self.crashes[j]} worker crashes and not "
                f"rerun: {why}"
            ),
        )

    def _run_alone(self, j: int) -> None:
        """Run quarantined spec ``j`` on the pool with nothing beside it.

        A worker that dies now was killed by ``j``:
        :meth:`_recover_broken_pool` reports it failed.
        """
        logger.warning(
            "spec %s was in flight for %d pool crashes; running it alone",
            self.specs[j].label or f"#{j}",
            self.crashes[j],
        )
        if not self._submit(j):
            return
        self.alone = j
        while self.pending:
            self._wait_round()
        self.alone = None

    def _submit_ready(self) -> None:
        while self.todo and len(self.pending) < self.workers:
            j = self.todo.popleft()
            if self.crashes[j] > self.crash_quarantine:
                if self.pending:
                    # It runs alone: wait for the pool to drain first.
                    self.todo.appendleft(j)
                    return
                self._run_alone(j)
                continue
            if not self._submit(j):
                return

    def _submit(self, j: int) -> bool:
        """Put spec ``j`` in flight; False if the pool failed instead."""
        try:
            future = self.pool.submit(execute_spec, self.specs[j])
        except BrokenExecutor as exc:
            # The break can surface at submit time (a worker died between
            # wait rounds) — same recovery as a break seen at result time.
            self._recover_broken_pool(j, exc)
            return False
        except _POOL_UNAVAILABLE as exc:
            logger.warning(
                "submission to the process pool failed (%s); running the "
                "remaining %d specs in-process",
                exc,
                len(self.todo) + 1,
            )
            self.todo.appendleft(j)
            self._recall_pending()
            self._drain_in_process()
            return False
        self.pending[future] = j
        self.started[future] = time.monotonic()
        return True

    def _recall_pending(self) -> None:
        """Move every pending index back onto ``todo`` (pool is dead)."""
        recalled = sorted(self.pending.values())
        self.pending.clear()
        self.started.clear()
        self.todo.extendleft(reversed(recalled))

    def _wait_round(self) -> None:
        wait_timeout = None
        if self.timeout is not None and self.pending:
            earliest = min(self.started[f] for f in self.pending)
            wait_timeout = max(0.0, earliest + self.timeout - time.monotonic()) + 0.02
        done, _ = wait(
            self.pending, timeout=wait_timeout, return_when=FIRST_COMPLETED
        )
        for future in done:
            if future not in self.pending:
                continue  # cleared by broken-pool recovery earlier this round
            j = self.pending.pop(future)
            t_submit = self.started.pop(future)
            try:
                outcome = future.result()
            except BrokenExecutor as exc:
                self._recover_broken_pool(j, exc)
                return
            except CancelledError:
                continue
            except Exception:
                # Submission-side failure (e.g. the spec did not pickle):
                # report it on the envelope like a worker exception.
                outcome = RunOutcome(
                    spec=self.specs[j],
                    point=None,
                    error=traceback.format_exc(),
                    wall_time=time.monotonic() - t_submit,
                )
            self._finish(j, outcome)
        if self.timeout is not None:
            self._expire_overdue()

    def _expire_overdue(self) -> None:
        now = time.monotonic()
        expired = {
            j: now - self.started[future]
            for future, j in self.pending.items()
            if now - self.started[future] >= self.timeout
        }
        if not expired:
            return
        # A running task cannot be cancelled: stop every worker (Python
        # 3.14's ``terminate_workers()`` does the same) and start a fresh
        # pool.  Specs in flight beside the overdue ones go back to the
        # front of the queue, charged no retry and no crash.
        for process in list(self.pool._processes.values()):
            process.terminate()
        self.pool.shutdown(wait=True, cancel_futures=True)
        bystanders = sorted(set(self.pending.values()) - set(expired))
        self.pending.clear()
        self.started.clear()
        self.todo.extendleft(reversed(bystanders))
        for j, elapsed in expired.items():
            self.stats.n_timeouts += 1
            if self.retries_used[j] < self.max_retries:
                # The run already waited ``timeout``: resubmit it at once.
                self.retries_used[j] += 1
                self.stats.n_retries += 1
                self.todo.append(j)
                continue
            self._finish(
                j,
                RunOutcome(
                    spec=self.specs[j],
                    point=None,
                    error=(
                        f"timed out after {elapsed:.1f}s "
                        f"(per-spec timeout {self.timeout:g}s)"
                    ),
                    wall_time=elapsed,
                ),
            )
        self._replace_pool()

    def _recover_broken_pool(self, j: int, exc: BaseException) -> None:
        """A worker died: rebuild the pool, resubmit only unfinished specs.

        ``j`` is the spec whose future surfaced the break; every spec in
        flight with it counts one crash toward its own quarantine.  A
        quarantined spec that ran alone killed the worker itself: it is
        reported failed, not resubmitted.
        """
        self.stats.n_pool_rebuilds += 1
        unfinished = sorted({j, *self.pending.values()})
        self.pending.clear()
        self.started.clear()
        for k in unfinished:
            self.crashes[k] += 1
        if j == self.alone:
            self._finish(j, self._crashed(j, "a worker died running it alone"))
            unfinished = []
        self.todo.extendleft(reversed(unfinished))
        logger.warning(
            "process pool broke (%s); rebuilding and resubmitting %d "
            "unfinished specs (completed outcomes are preserved)",
            exc,
            len(unfinished),
        )
        try:
            self.pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # the dead pool's shutdown must never mask recovery
            pass
        self._replace_pool()

    def _replace_pool(self) -> None:
        """Start a fresh pool, or run the rest in-process if none starts."""
        self.pool = self._new_pool()
        if self.pool is None:
            self._drain_in_process()


def sweep_to_load_sweep(
    label: str,
    outcomes: Sequence[RunOutcome],
) -> LoadSweep:
    """Fold one configuration's outcomes into a :class:`LoadSweep` series."""
    report = SweepReport(outcomes=list(outcomes), wall_time=0.0, max_workers=1)
    return LoadSweep(label=label, points=tuple(report.points()))
