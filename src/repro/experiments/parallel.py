"""Crash-resilient multi-process sweep executor.

Every headline artifact (Figures 5, 6, 8; the seed replication) is a grid
of *independent* simulation runs, each described by a picklable
:class:`~repro.experiments.specs.RunSpec`.  :func:`run_sweep` fans a spec
list out over a :class:`concurrent.futures.ProcessPoolExecutor` and
collects results **in spec order**, so the parallel path is point-for-point
identical to the serial one — ``max_workers=1`` *is* the serial path (no
pool is created), and a restricted environment without ``fork``/semaphores
degrades to in-process execution rather than failing.

Resilience model
----------------
Specs are submitted as *individual futures* (a sliding window of at most
``max_workers`` in flight), never ``pool.map``, so one lost worker cannot
take the whole grid down:

* **Incremental write-back** — each result is committed to the
  :class:`~repro.experiments.cache.SweepCache` (and the checkpoint
  manifest) the moment it lands, not when the sweep ends.  A sweep killed
  halfway leaves everything it computed on disk.
* **Pool rebuild** — a worker dying (OOM kill, segfault, ``SIGKILL``)
  breaks the whole :class:`ProcessPoolExecutor`; the executor rebuilds the
  pool and resubmits only the *unfinished* specs, preserving every
  completed outcome.  A spec that repeatedly coincides with pool crashes is
  quarantined to in-process execution so a poison spec cannot crash-loop
  the sweep forever.
* **Bounded retry** — a failed run is retried up to ``max_retries`` times
  with exponential backoff plus jitter before its error is reported.
* **Per-spec timeout** — a run exceeding ``timeout`` seconds of wall clock
  since submission is abandoned (the worker slot is reclaimed when the task
  eventually finishes; the result is discarded) and counts as a retryable
  failure.
* **Checkpoint manifest** — with ``checkpoint=<path>``, completed points
  are appended to a JSONL manifest; a re-run restores them without
  recomputation (even with no cache configured), so a killed sweep resumes
  from its partial results.

Each run returns a :class:`RunOutcome` envelope: the spec, its
:class:`~repro.experiments.runner.SweepPoint` (or a formatted traceback if
the worker raised — one bad point reports itself instead of killing the
sweep), the wall time, and whether it was served from the
:class:`~repro.experiments.cache.SweepCache` (``cached``) or restored from
the checkpoint manifest (``resumed``) — a point found in both stores
counts once, as a cache hit.
Sweep-level throughput, cache, and resilience accounting is reported on
:class:`SweepReport` and logged via the ``repro.sweep`` logger.
"""

from __future__ import annotations

import json
import logging
import os
import random
import sys
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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import IO, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.cache import SweepCache
from repro.experiments.runner import LoadSweep, SweepPoint
from repro.experiments.shm import SharedBaseStore
from repro.experiments.specs import (
    RunSpec,
    clear_materialization_caches,
    install_shared_columns,
    materialize_base_workload,
    trim_materialized_workloads,
)
from repro.sim.batch import BatchConfig, simulate_batch
from repro.sim.engine import _simulate_scalar
from repro.sim.faults import FaultConfig
from repro.sim.metrics import mean_slowdown, utilization
from repro.sim.records import SimResult

try:  # POSIX-only; on platforms without it RSS reports as 0
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]

logger = logging.getLogger("repro.sweep")

#: Errors that mean "no usable process pool in this environment" (no fork,
#: no /dev/shm, missing _multiprocessing).  Deliberately narrow: a
#: ``BrokenProcessPool`` is *not* in this set — it means a worker died
#: mid-sweep and is handled by rebuilding the pool while keeping every
#: completed outcome, not by discarding the sweep and starting over.
_POOL_UNAVAILABLE = (OSError, ImportError, PermissionError)

#: Backoff delays are capped so a high retry count cannot stall a sweep.
_BACKOFF_CAP = 30.0

#: Built-in ceiling on how many specs ride in one same-trace batch.  The
#: actual width adapts per group (see :func:`_same_workload_batches`): a
#: group of same-trace specs runs at its full stack depth up to this cap,
#: split further only when a pooled sweep needs more units in flight to
#: keep its workers busy.  The cap bounds per-lane memory and keeps one
#: batch's wall clock within the sliding window's load-balancing grain.
_MAX_BATCH = 16

@dataclass(frozen=True)
class RunOutcome:
    """Envelope around one executed (or cached, or failed) run."""

    spec: RunSpec
    point: Optional[SweepPoint]
    error: Optional[str] = None
    wall_time: float = 0.0
    #: Served from the :class:`~repro.experiments.cache.SweepCache` without
    #: executing.  Mutually exclusive with ``resumed``: a point found in both
    #: stores counts once, as a cache hit.
    cached: bool = False
    #: Restored from a checkpoint manifest (and not also a cache hit).
    resumed: bool = False
    #: Times this spec was re-executed after a failure or timeout before the
    #: recorded result landed (0 for first-try successes and cache hits).
    retries: int = 0
    #: ``ru_maxrss`` (KB) of the process that executed this run, sampled as
    #: the run finished — the sweep-level peak is the memory a worker
    #: actually needs (0 for cache hits and platforms without getrusage).
    worker_rss_kb: int = 0
    #: Lanes of the batch this run executed in (1 = plain scalar execution;
    #: >1 = one :func:`repro.sim.batch.simulate_batch` call over that many
    #: same-trace configs).
    batch_width: int = 1

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


def simulate_spec(spec: RunSpec) -> SweepPoint:
    """Materialize ``spec`` and run its simulation to one sweep point.

    This is the executor's per-spec path, shared by the serial loop and the
    pool workers (which is what guarantees worker/in-process parity) and
    the fallback when a batch fails.  It always runs the scalar
    :class:`~repro.sim.engine.Simulation` — the oracle batched sweeps are
    checked against — with the attempt trace off, as ``run_point`` does.
    """
    result = _simulate_scalar(
        spec.workload.materialize(),
        spec.cluster.materialize(),
        spec.estimator.materialize(),
        policy=spec.policy.materialize(),
        seed=spec.seed,
        spurious_failure_prob=spec.faults.spurious,
        fault_config=_spec_fault_config(spec),
        collect_attempts=False,
    )
    return _result_to_point(spec, result)


def _spec_batch_config(spec: RunSpec, workload=None) -> BatchConfig:
    """The :func:`simulate_batch` lane configuration equivalent to
    :func:`simulate_spec`'s scalar run (same seeds, same knobs).

    ``workload`` is the per-lane workload override (``None`` inherits the
    batch's shared workload) — how load points of one base trace stack into
    a single batch.
    """
    return BatchConfig(
        cluster=spec.cluster.materialize(),
        estimator=spec.estimator.materialize(),
        policy=spec.policy.materialize(),
        seed=spec.seed,
        spurious_failure_prob=spec.faults.spurious,
        fault_config=_spec_fault_config(spec),
        # Sweep points aggregate, so only specs that ask for the
        # per-attempt trace pay for it.
        collect_attempts=spec.collect_attempts,
        workload=workload,
    )


def _worker_init(shared_handles=None) -> None:
    """Process-pool initializer: clean spec caches, then shared-base handles.

    :mod:`repro.experiments.specs` memoizes materialized workloads and
    clusters per process, keyed by the same provenance fields the spec
    fingerprint hashes — so N specs over the same trace parse it once per
    worker.  Under the ``fork`` start method a fresh worker would *inherit*
    the parent's memos and hit counters; clearing them at worker start makes
    the cache (and its accounting) genuinely per-worker and bounded.

    ``shared_handles`` are the parent's published base-workload columns
    (:mod:`repro.experiments.shm`); installing them lets this worker attach
    zero-copy views instead of re-deriving each base trace.  Installation
    happens unconditionally (``None`` installs nothing) so handles from a
    previous pool can never leak across rebuilds.
    """
    clear_materialization_caches()
    install_shared_columns(shared_handles)


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

    Module-level (hence picklable) — this is the function shipped to pool
    workers.
    """
    t0 = time.perf_counter()
    try:
        point = simulate_spec(spec)
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
    finally:
        # Keep at most one materialized job list live per process: the memo
        # caches keep the (cheap) columns, so peak RSS stays near one trace.
        trim_materialized_workloads()


def execute_batch(specs: Sequence[RunSpec]) -> List[RunOutcome]:
    """Run a batch of specs in this process, one outcome per spec, in order.

    The batch is the pool scheduling unit (see ``_PoolExecution``): specs
    sharing a base workload travel together, so one worker amortizes a
    single base materialization (or shared-memory attach) across the whole
    batch and the executor pays one future round-trip instead of one per
    spec.

    Specs sharing the same *base* trace (identical ``WorkloadSpec`` up to
    the load scaling — :meth:`WorkloadSpec.base_key`) additionally run as
    lanes of one :func:`repro.sim.batch.simulate_batch` call: load scaling
    rewrites only the arrival schedule, so lanes at different load points
    carry per-lane workload overrides while the whole group shares one
    decoded trace per load point and one ``(K, G)`` seeding.  The batched
    engine is gated bit-identical to the scalar one
    (``tests/sim/test_engine_fingerprints``), so results are exactly what
    per-spec execution would have produced; the group's wall clock is split
    evenly across its members and each outcome records the ``batch_width``
    it ran at.  Any failure inside a batched group falls
    back to per-spec execution, so one bad spec reports its own error
    instead of sinking its batch-mates.
    """
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    groups: Dict[object, List[int]] = {}
    for idx, spec in enumerate(specs):
        groups.setdefault(spec.workload.base_key(), []).append(idx)
    for indices in groups.values():
        if len(indices) == 1:
            outcomes[indices[0]] = execute_spec(specs[indices[0]])
            continue
        members = [specs[idx] for idx in indices]
        t0 = time.perf_counter()
        try:
            # One materialization per distinct load point; lanes at the
            # shared (first) workload carry no override.
            materialized: Dict[object, object] = {}
            for spec in members:
                if spec.workload not in materialized:
                    materialized[spec.workload] = spec.workload.materialize()
            workload = materialized[members[0].workload]
            configs = [
                _spec_batch_config(
                    spec,
                    workload=(
                        None
                        if materialized[spec.workload] is workload
                        else materialized[spec.workload]
                    ),
                )
                for spec in members
            ]
            results = simulate_batch(workload, configs)
            wall = (time.perf_counter() - t0) / len(indices)
            rss = _peak_rss_kb()
            for idx, spec, result in zip(indices, members, results):
                outcomes[idx] = RunOutcome(
                    spec=spec,
                    point=_result_to_point(spec, result),
                    wall_time=wall,
                    worker_rss_kb=rss,
                    batch_width=len(indices),
                )
        except Exception as exc:
            logger.warning(
                "batch of %d same-trace specs failed (%s); re-running "
                "per-spec to isolate the failure",
                len(indices),
                exc,
            )
            for idx in indices:
                outcomes[idx] = execute_spec(specs[idx])
        finally:
            trim_materialized_workloads()
    return outcomes


# --------------------------------------------------------------- resilience
@dataclass
class ResilienceConfig:
    """Sweep-level fault-tolerance knobs (see the module docstring).

    The module-level default (set via :func:`set_default_resilience`, e.g.
    by the CLI's ``--run-timeout``/``--max-retries``/``--checkpoint`` flags)
    applies to every :func:`run_sweep` call that does not pass the knob
    explicitly — experiments plumb ``max_workers``/``cache`` through and
    inherit resilience settings from here.
    """

    timeout: Optional[float] = None  # per-spec wall-clock timeout (seconds)
    max_retries: int = 0
    retry_backoff: float = 0.25  # base delay; grows 2x per retry, jittered
    checkpoint: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )


_DEFAULT_RESILIENCE = ResilienceConfig()


def set_default_resilience(config: ResilienceConfig) -> ResilienceConfig:
    """Install ``config`` as the default for ``run_sweep``; returns the old."""
    global _DEFAULT_RESILIENCE
    previous = _DEFAULT_RESILIENCE
    _DEFAULT_RESILIENCE = config
    return previous


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


class SweepCheckpoint:
    """Append-only JSONL manifest of completed sweep points.

    One line per completed spec: its cache key, label, wall time, and the
    full point payload.  Every append is flushed and fsynced — and the
    *directory entry* is fsynced when the manifest file is first created —
    so a ``SIGKILL`` at any instant loses at most the line being written,
    and :meth:`load` skips a torn trailing line (or any corrupt/foreign
    line) instead of failing.  Unlike the :class:`SweepCache` (keyed files,
    optional), the manifest is self-contained: resuming needs only this one
    file.

    The append handle is held open across :meth:`record` calls (a
    long-lived service checkpoints thousands of points; re-opening per line
    would triple the syscall cost of each append).  :meth:`close` releases
    it; a later :meth:`record` transparently re-opens.
    """

    _VERSION = 1

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def load(self) -> Dict[str, SweepPoint]:
        """Completed points by cache key; tolerant of torn/corrupt lines."""
        points: Dict[str, SweepPoint] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return points
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if doc.get("version") != self._VERSION:
                    continue
                points[str(doc["key"])] = SweepPoint(**doc["point"])
            except (ValueError, TypeError, KeyError):
                continue  # torn write from a crash, or a foreign line
        return points

    def _open(self) -> IO[str]:
        existed = self.path.exists()
        fh = open(self.path, "a", encoding="utf-8")
        if not existed:
            # A crash right after the first append could otherwise lose the
            # whole file: the data was fsynced but its directory entry not.
            try:
                dir_fd = os.open(str(self.path.parent or Path(".")), os.O_RDONLY)
            except OSError:
                return fh  # exotic filesystem; appends are still fsynced
            try:
                os.fsync(dir_fd)
            except OSError:
                pass
            finally:
                os.close(dir_fd)
        return fh

    def record(self, spec: RunSpec, point: SweepPoint, wall_time: float = 0.0) -> None:
        """Append one completed point (crash-safe: flush + fsync)."""
        doc = {
            "version": self._VERSION,
            "key": spec.cache_key(),
            "label": spec.label,
            "wall_time": wall_time,
            "point": asdict(point),
        }
        if self._fh is None or self._fh.closed:
            self._fh = self._open()
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Release the append handle (idempotent; reopened on next record)."""
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.load())


@dataclass(frozen=True)
class SweepProfile:
    """Aggregated per-spec profiling of one sweep.

    Built by :meth:`SweepReport.profile` from the wall-clock, retry, and
    cache fields each :class:`RunOutcome` envelope carries.  ``wall_time``
    figures cover *executed* runs only (cache/checkpoint hits cost ~0 and
    would drown the mean); ``slowest`` lists the heaviest executed specs as
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
    n_resumed: int
    slowest: Tuple[Tuple[str, float], ...] = ()
    #: Executed runs that ran as lanes of a batch (``batch_width > 1``).
    n_batched: int = 0
    #: Mean ``batch_width`` across executed runs (1.0 = all scalar).
    mean_batch_width: float = 1.0

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
            f"batching    : {self.n_batched}/{self.n_executed} executed runs "
            f"in same-trace batches (mean width {self.mean_batch_width:.2f})",
            f"resilience  : {self.total_retries} retries, "
            f"{self.n_timeouts} timeouts, {self.n_pool_rebuilds} pool rebuilds, "
            f"{self.n_resumed} resumed from checkpoint",
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
    #: Runs retried after a failure/timeout (bounded by ``max_retries`` each).
    n_retries: int = 0
    #: Runs abandoned for exceeding the per-spec timeout (before retries).
    n_timeouts: int = 0
    #: Times a dead worker broke the pool and it was rebuilt mid-sweep.
    n_pool_rebuilds: int = 0
    #: Points restored from a checkpoint manifest of an earlier (killed) run.
    n_resumed: int = 0
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
        executed = [o for o in self.outcomes if not o.cached and not o.resumed]
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
            n_resumed=self.n_resumed,
            slowest=tuple(
                (o.spec.label or o.spec.canonical(), o.wall_time)
                for o in by_cost[: max(top, 0)]
            ),
            n_batched=sum(1 for o in executed if o.batch_width > 1),
            mean_batch_width=(
                float(sum(o.batch_width for o in executed)) / len(executed)
                if executed
                else 1.0
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
                (self.n_resumed, "resumed from checkpoint"),
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
    max_retries: Optional[int] = None,
    retry_backoff: Optional[float] = None,
    checkpoint: Optional[Union[str, Path, SweepCheckpoint]] = None,
    oversubscribe: bool = False,
    on_outcome: Optional[Callable[[int, RunOutcome], None]] = None,
) -> SweepReport:
    """Execute every spec, in parallel when ``max_workers > 1``.

    Same-trace specs run together through
    :func:`repro.sim.batch.simulate_batch`, up to ``_MAX_BATCH`` per
    execution unit (see :func:`_same_workload_batches`).

    Cache and checkpoint lookups happen up front in the parent process;
    only misses are dispatched, and each result is written back the moment
    it lands (never at the end — a killed sweep keeps its partial work).
    Failed runs are never cached.  Results always come back in ``specs``
    order.  ``timeout``/``max_retries``/``retry_backoff``/``checkpoint``
    default to the module-level :class:`ResilienceConfig` (see
    :func:`set_default_resilience`).

    ``on_outcome(index, outcome)`` is invoked in the parent process for
    every finalized outcome — up-front cache/checkpoint hits immediately,
    executed runs the moment their result lands (completion order, not spec
    order).  The sweep service streams per-point progress through this
    hook; it must not raise.

    Requesting more workers than the host has CPUs buys nothing for these
    CPU-bound simulations — it adds pool spin-up and scheduling overhead on
    top of serial-speed progress — so the sweep falls back to the serial
    path when ``max_workers > os.cpu_count()``.  Pass ``oversubscribe=True``
    to force a pool anyway (tests of the pool machinery itself do this).
    """
    t0 = time.perf_counter()
    host_cpus = os.cpu_count() or 0
    requested = max(1, max_workers)
    effective_workers = requested
    if requested > 1 and host_cpus and requested > host_cpus and not oversubscribe:
        logger.warning(
            "requested %d workers but the host has %d CPU(s); falling back "
            "to the serial path (oversubscribe=True forces a pool)",
            requested,
            host_cpus,
        )
        effective_workers = 1
    defaults = _DEFAULT_RESILIENCE
    timeout = defaults.timeout if timeout is None else timeout
    max_retries = defaults.max_retries if max_retries is None else max_retries
    retry_backoff = (
        defaults.retry_backoff if retry_backoff is None else retry_backoff
    )
    checkpoint = defaults.checkpoint if checkpoint is None else checkpoint
    if checkpoint is not None and not isinstance(checkpoint, SweepCheckpoint):
        checkpoint = SweepCheckpoint(checkpoint)
    restored = checkpoint.load() if checkpoint is not None else {}
    emit = on_outcome or (lambda i, outcome: None)

    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    todo: List[int] = []
    n_resumed = 0
    stats = _ExecutionStats()
    try:
        for i, spec in enumerate(specs):
            point = cache.get(spec) if cache is not None else None
            from_cache = point is not None
            if from_cache:
                # Write the cache hit through to the manifest (unless it is
                # already there): a later resume *without* the cache must
                # still skip this point.
                if checkpoint is not None and spec.cache_key() not in restored:
                    checkpoint.record(spec, point)
            elif restored:
                point = restored.get(spec.cache_key())
                if point is not None:
                    n_resumed += 1
                    if cache is not None:
                        cache.put(spec, point)  # promote into the cache
            if point is not None:
                # A point found in both stores counts once — as a cache hit.
                outcomes[i] = RunOutcome(
                    spec=spec, point=point, cached=from_cache,
                    resumed=not from_cache,
                )
                emit(i, outcomes[i])
            else:
                todo.append(i)

        if todo:

            def commit(j: int, outcome: RunOutcome) -> None:
                outcomes[todo[j]] = outcome
                if outcome.ok:
                    if cache is not None:
                        cache.put(outcome.spec, outcome.point)
                    if checkpoint is not None:
                        checkpoint.record(
                            outcome.spec, outcome.point, outcome.wall_time
                        )
                emit(todo[j], outcome)

            _execute_all(
                [specs[i] for i in todo],
                effective_workers,
                timeout=timeout,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
                on_result=commit,
                stats=stats,
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()  # release the fsynced append handle

    report = SweepReport(
        outcomes=list(outcomes),
        wall_time=time.perf_counter() - t0,
        max_workers=effective_workers,
        n_retries=stats.n_retries,
        n_timeouts=stats.n_timeouts,
        n_pool_rebuilds=stats.n_pool_rebuilds,
        n_resumed=n_resumed,
        requested_workers=requested,
        host_cpus=host_cpus,
        pool_spinup_time=stats.pool_spinup_seconds,
    )
    logger.info("sweep: %s", report.summary())
    return report


def _backoff_delay(
    base: float, attempt: int, rng: Optional[random.Random] = None
) -> float:
    """Exponential backoff with jitter: ``base * 2^(attempt-1) * U[0.5, 1.5)``."""
    if base <= 0:
        return 0.0
    jitter = 0.5 + (rng or random).random()
    return min(base * (2.0 ** max(attempt - 1, 0)) * jitter, _BACKOFF_CAP)


def _run_with_retries(
    spec: RunSpec,
    max_retries: int,
    retry_backoff: float,
    stats: _ExecutionStats,
    rng: Optional[random.Random] = None,
    first: Optional[RunOutcome] = None,
) -> RunOutcome:
    """In-process execution with the same bounded-retry policy as the pool.

    ``first`` is an attempt already made (a batch lane's outcome); without
    one the spec runs here first.  Retries always re-run the spec alone.
    """
    outcome = execute_spec(spec) if first is None else first
    attempt = 0
    while not outcome.ok and attempt < max_retries:
        attempt += 1
        stats.n_retries += 1
        time.sleep(_backoff_delay(retry_backoff, attempt, rng))
        outcome = execute_spec(spec)
    return replace(outcome, retries=attempt) if attempt else outcome


def _same_workload_batches(
    specs: Sequence[RunSpec], workers: int = 1, cap: int = _MAX_BATCH
) -> List[List[int]]:
    """Spec indices batched by base trace, at adaptive width up to ``cap``.

    Grouping is by ``WorkloadSpec.base_key()`` — the base trace provenance
    with the load scaling factored out — regardless of submission order:
    interleaved grids (e.g. an estimator x memory lattice iterating the
    estimator in the outer loop) and load sweeps (fig5's estimator x load
    grid) both stack full-width, since load scaling only rewrites arrival
    times and ``execute_batch`` gives each load point its own lane-level
    workload override.

    Width adapts to each group's same-trace depth: a group runs as few
    units as ``cap`` allows, so a deep stack of configs over one trace
    shares one decoded trace and one ``(K, G)`` seeding instead of a
    fixed-width chunking.  A pooled sweep (``workers > 1``) splits deep
    stacks further when the grid has fewer groups than workers, so enough
    units stay in flight that batching never starves the pool.  Within a
    unit, specs over the *identical* workload (same load point) sit
    adjacent and whole same-load stacks travel together wherever the
    width allows, so each unit decodes — and holds resident — as few
    distinct arrival schedules as possible.  Batches come back ordered by
    their first member, so execution stays in near-spec order.
    """
    groups: Dict[object, List[int]] = {}
    for j, spec in enumerate(specs):
        groups.setdefault(spec.workload.base_key(), []).append(j)
    batches: List[List[int]] = []
    spread = max(1, workers // max(1, len(groups)))
    for indices in groups.values():
        depth = len(indices)
        n_units = max(spread, -(-depth // cap))
        width = min(cap, -(-depth // n_units))  # balanced ceiling
        stacks: Dict[object, List[int]] = {}
        for j in indices:
            stacks.setdefault(specs[j].workload, []).append(j)
        unit: List[int] = []
        for stack in stacks.values():
            for i in range(0, len(stack), width):
                chunk = stack[i : i + width]
                if unit and len(unit) + len(chunk) > width:
                    batches.append(unit)
                    unit = []
                unit.extend(chunk)
        if unit:
            batches.append(unit)
    batches.sort(key=lambda batch: batch[0])
    return batches


def _execute_all(
    specs: Sequence[RunSpec],
    max_workers: int,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    retry_backoff: float = 0.25,
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

    if max_workers > 1 and len(specs) > 1:
        _PoolExecution(
            specs,
            min(max_workers, len(specs)),
            timeout=timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            finish=finish,
            stats=stats,
        ).run()
    else:
        rng = random.Random(0x0B0FF)
        for batch in _same_workload_batches(specs):
            firsts = (
                execute_batch([specs[j] for j in batch])
                if len(batch) > 1
                else [None]
            )
            for j, first in zip(batch, firsts):
                finish(
                    j,
                    _run_with_retries(
                        specs[j], max_retries, retry_backoff, stats, rng, first
                    ),
                )
    return results


class _PoolExecution:
    """One parallel ``_execute_all``: sliding-window futures over a pool.

    The scheduling unit is a **batch**: a list of spec indices sharing one
    ``WorkloadSpec.base_key()``, sized so the grid spreads evenly over the
    workers (``_initial_batches``).  Batching amortizes the per-future
    round-trip and steers same-trace specs to the same worker (whose
    bounded materialization caches then actually hit); per-spec semantics
    are untouched because workers run batch members independently
    (``execute_batch``) and every retry, timeout, crash resubmission, or
    quarantine is handled on singleton batches.  With a per-spec ``timeout``
    every batch is a singleton from the start — a timeout measures one run,
    never a convoy.

    At most ``workers`` futures are in flight at a time, so every pending
    future is (approximately) *running*, which makes the per-spec timeout a
    measure of actual runtime rather than queue wait.  All mutable state
    lives here so broken-pool recovery can reason about exactly which specs
    are unfinished.

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
        retry_backoff: float,
        finish: Callable[[int, RunOutcome], None],
        stats: _ExecutionStats,
    ) -> None:
        self.specs = specs
        self.workers = workers
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.finish = finish
        self.stats = stats
        n = len(specs)
        self.todo: deque = deque(self._initial_batches())
        self.pending: Dict[Future, List[int]] = {}
        self.started: Dict[Future, float] = {}
        self.retries_used = [0] * n
        #: Pool crashes a spec was in flight for.  A spec exceeding the
        #: quarantine threshold runs in-process instead of being resubmitted,
        #: so a poison spec (e.g. one that OOM-kills its worker every time)
        #: cannot crash-loop the sweep; innocent bystanders of one crash are
        #: well below the threshold and go back to the pool.
        self.crashes = [0] * n
        self.not_before = [0.0] * n
        self.pool: Optional[ProcessPoolExecutor] = None
        self.backoff_rng = random.Random(0x0B0FF)
        self.shm_store = SharedBaseStore()

    def _initial_batches(self) -> List[List[int]]:
        """Spec indices grouped by base trace, in near-spec order.

        See :func:`_same_workload_batches`: every batch runs its members
        through one ``simulate_batch`` call, at adaptive width up to
        ``_MAX_BATCH``.  With a per-spec ``timeout`` every batch is a
        singleton (see the class docstring).
        """
        if self.timeout is not None:
            return [[j] for j in range(len(self.specs))]
        return _same_workload_batches(self.specs, self.workers)

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
                self.pool.shutdown(wait=False, cancel_futures=True)
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

    def _drain_in_process(self) -> None:
        """Run every unfinished spec serially, keeping completed outcomes."""
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None
        while self.todo:
            for j in self.todo.popleft():
                outcome = _run_with_retries(
                    self.specs[j],
                    self.max_retries - self.retries_used[j],
                    self.retry_backoff,
                    self.stats,
                    self.backoff_rng,
                )
                if self.retries_used[j]:
                    outcome = replace(
                        outcome, retries=outcome.retries + self.retries_used[j]
                    )
                self.finish(j, outcome)

    def _run_quarantined(self, j: int) -> None:
        logger.warning(
            "spec %s was in flight for %d pool crashes; quarantining "
            "to in-process execution",
            self.specs[j].label or f"#{j}",
            self.crashes[j],
        )
        outcome = _run_with_retries(
            self.specs[j], 0, self.retry_backoff, self.stats
        )
        if self.retries_used[j]:
            outcome = replace(
                outcome, retries=outcome.retries + self.retries_used[j]
            )
        self.finish(j, outcome)

    def _submit_ready(self) -> None:
        now = time.monotonic()
        for _ in range(len(self.todo)):
            if not self.todo or len(self.pending) >= self.workers:
                break
            batch = self.todo[0]
            if max(self.not_before[j] for j in batch) > now:
                self.todo.rotate(-1)  # backing off; look at the next batch
                continue
            self.todo.popleft()
            # Quarantined members run in-process (crash resubmissions are
            # singletons, so in practice this drains the whole batch).
            hot = [j for j in batch if self.crashes[j] > self.crash_quarantine]
            for j in hot:
                self._run_quarantined(j)
            batch = [j for j in batch if self.crashes[j] <= self.crash_quarantine]
            if not batch:
                continue
            try:
                future = self.pool.submit(
                    execute_batch, [self.specs[j] for j in batch]
                )
            except BrokenExecutor as exc:
                # The break can surface at submit time (a worker died between
                # wait rounds) — same recovery as a break seen at result time.
                self._recover_broken_pool(batch, exc)
                return
            except _POOL_UNAVAILABLE as exc:
                logger.warning(
                    "submission to the process pool failed (%s); running the "
                    "remaining %d specs in-process",
                    exc,
                    sum(len(b) for b in self.todo) + len(batch),
                )
                self.todo.appendleft(batch)
                self._recall_pending()
                self._drain_in_process()
                return
            self.pending[future] = batch
            self.started[future] = time.monotonic()
        if not self.pending and self.todo:
            # Everything left is backing off; sleep until the earliest is due.
            soonest = min(
                max(self.not_before[j] for j in batch) for batch in self.todo
            )
            delay = soonest - time.monotonic()
            if delay > 0:
                time.sleep(min(delay, 1.0))

    def _recall_pending(self) -> None:
        """Move every pending index back onto ``todo`` (pool is dead)."""
        recalled = sorted(j for batch in self.pending.values() for j in batch)
        self.pending.clear()
        self.started.clear()
        self.todo.extendleft([j] for j in reversed(recalled))

    def _wait_round(self) -> None:
        wait_timeout = None
        if self.timeout is not None:
            earliest = min(self.started[f] for f in self.pending)
            wait_timeout = max(0.0, earliest + self.timeout - time.monotonic()) + 0.02
        done, _ = wait(
            list(self.pending), timeout=wait_timeout, return_when=FIRST_COMPLETED
        )
        if not done:
            self._expire_overdue()
            return
        for future in done:
            if future not in self.pending:
                continue  # cleared by broken-pool recovery earlier this round
            batch = self.pending.pop(future)
            t_submit = self.started.pop(future)
            try:
                outcomes = list(future.result())
            except BrokenExecutor as exc:
                self._recover_broken_pool(batch, exc)
                return
            except CancelledError:
                continue
            except Exception:
                # Submission-side failure (e.g. a spec did not pickle):
                # report it on every member's envelope like a worker exception.
                error = traceback.format_exc()
                outcomes = [
                    RunOutcome(
                        spec=self.specs[j],
                        point=None,
                        error=error,
                        wall_time=time.monotonic() - t_submit,
                    )
                    for j in batch
                ]
            while len(outcomes) < len(batch):  # defensive: never lose a spec
                j = batch[len(outcomes)]
                outcomes.append(
                    RunOutcome(
                        spec=self.specs[j],
                        point=None,
                        error="batch execution returned too few outcomes",
                        wall_time=time.monotonic() - t_submit,
                    )
                )
            for j, outcome in zip(batch, outcomes):
                self._resolve(j, outcome)

    def _expire_overdue(self) -> None:
        now = time.monotonic()
        for future, batch in list(self.pending.items()):
            elapsed = now - self.started[future]
            if elapsed < self.timeout:
                continue
            del self.pending[future]
            del self.started[future]
            future.cancel()  # a running task cannot be cancelled; its late
            # result is simply ignored (the slot frees when it finishes).
            # With a timeout configured every batch is a singleton, so the
            # timeout (and its counter) always charges exactly one spec.
            for j in batch:
                self.stats.n_timeouts += 1
                self._resolve(
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

    def _resolve(self, j: int, outcome: RunOutcome) -> None:
        if outcome.ok or self.retries_used[j] >= self.max_retries:
            if self.retries_used[j]:
                # Per-spec profiling: the envelope records how many times
                # this spec was re-executed before the result that landed.
                outcome = replace(
                    outcome, retries=outcome.retries + self.retries_used[j]
                )
            self.finish(j, outcome)
            return
        self.retries_used[j] += 1
        self.stats.n_retries += 1
        delay = _backoff_delay(
            self.retry_backoff, self.retries_used[j], self.backoff_rng
        )
        self.not_before[j] = time.monotonic() + delay
        self.todo.append([j])  # retries always travel alone

    def _recover_broken_pool(self, batch: List[int], exc: BaseException) -> None:
        """A worker died: rebuild the pool, resubmit only unfinished specs.

        Resubmissions are singleton batches: each crashed spec carries its
        own crash count toward quarantine, and a poison spec cannot drag
        batch-mates down with it on the next attempt.
        """
        self.stats.n_pool_rebuilds += 1
        unfinished = sorted(
            {*batch, *(j for b in self.pending.values() for j in b)}
        )
        self.pending.clear()
        self.started.clear()
        for k in unfinished:
            self.crashes[k] += 1
        self.todo.extendleft([k] for k in reversed(unfinished))
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
