"""Run registry: the service's idempotent submission -> execution bridge.

One :class:`RunRecord` per *distinct* sweep (distinct = the SHA-256
:func:`~repro.service.schemas.sweep_key` over the ordered spec cache
keys).  :meth:`RunRegistry.submit` is where the idempotency contract
lives:

* a **new** sweep creates a record and schedules one
  :func:`~repro.experiments.parallel.run_sweep` on the worker pool;
* a sweep **already in flight**, or finished and still held (one of the
  newest :data:`FINISHED_RUNS_KEPT` finished runs), *attaches* — the
  caller gets the same record, no second execution, and its event stream
  replays history before going live;
* a sweep identical to one finished **before this server even started**,
  or to one the registry has since dropped, gets a new record with the
  same ``run_id`` but never recomputes, because execution always goes
  through the SHA-keyed :class:`~repro.experiments.cache.SweepCache` —
  the result store — and comes back ``n_cache_hits == n_specs``.

The registry imports no part of the sweep executor: registering a run
needs only the specs and the cache.  :func:`run_sweep` loads
:mod:`repro.experiments.parallel` (and with it both engines) on its first
call, which the service makes in the background as soon as it listens.

Threading model: the registry is confined to the event-loop thread.  The
executing worker thread never touches a record directly; every state
transition and progress event crosses back via
``loop.call_soon_threadsafe``, so HTTP handlers always observe a
consistent record.  Progress flows from ``run_sweep``'s ``on_outcome``
parent-process hook straight into the record's
:class:`~repro.service.streaming.EventLog`.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import SweepCache
from repro.experiments.specs import RunSpec
from repro.service.schemas import outcome_to_dict, report_to_dict, sweep_key
from repro.service.streaming import EventLog

if TYPE_CHECKING:
    from repro.experiments.parallel import RunOutcome, SweepReport

#: Run lifecycle: pending (queued behind the worker pool) -> running ->
#: completed | failed.  "completed" includes sweeps with failed points —
#: per-point errors are data, not a run failure; "failed" means run_sweep
#: itself raised (an executor bug or an unpicklable registration).
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

RUN_STATES = (PENDING, RUNNING, COMPLETED, FAILED)

#: How many finished runs the registry keeps in memory: when a run
#: finishes past this bound, the oldest finished one is dropped.  A
#: finished record (its specs, report and event history, 5–15 KB) is only
#: a copy of what the ``SweepCache`` already holds, so keeping every one
#: would grow a long-running server by each submission it ever served.
#: Pending and running records are never dropped, and a handler already
#: holding a dropped record (``?wait=1``, ``/events``) completes from it.
FINISHED_RUNS_KEPT = 64


def run_sweep(specs: Sequence[RunSpec], **kwargs: Any) -> SweepReport:
    """:func:`repro.experiments.parallel.run_sweep`, imported on first call
    (see the module docstring); every execution goes through this name."""
    from repro.experiments import parallel

    return parallel.run_sweep(specs, **kwargs)


@dataclass
class RunRecord:
    """One distinct sweep: its specs, lifecycle, progress, and result."""

    run_id: str
    key: str
    specs: List[RunSpec]
    experiment: Optional[str] = None
    state: str = PENDING
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    n_done: int = 0
    n_cache_hits: int = 0
    n_point_errors: int = 0
    #: Clients that submitted this sweep (1 = the creator; attaches add up).
    n_submissions: int = 1
    #: Times run_sweep was actually entered for this record — the
    #: at-most-once guarantee is ``n_executions <= 1``.
    n_executions: int = 0
    report: Optional[SweepReport] = None
    error: Optional[str] = None
    log: EventLog = field(default_factory=EventLog)
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def n_specs(self) -> int:
        return len(self.specs)

    def status_dict(self) -> Dict[str, Any]:
        """The record as the ``GET /runs/{id}`` JSON document."""
        doc: Dict[str, Any] = {
            "run_id": self.run_id,
            "state": self.state,
            "experiment": self.experiment,
            "n_specs": self.n_specs,
            "n_done": self.n_done,
            "n_cache_hits": self.n_cache_hits,
            "n_point_errors": self.n_point_errors,
            "n_submissions": self.n_submissions,
            "n_executions": self.n_executions,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


class RunRegistry:
    """The in-flight runs and the newest finished ones, keyed for
    idempotent resubmission."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        executor: Executor,
        cache: Optional[SweepCache] = None,
        sweep_workers: int = 1,
    ) -> None:
        self._loop = loop
        self._executor = executor
        self.cache = cache
        self.sweep_workers = sweep_workers
        self._by_key: Dict[str, RunRecord] = {}
        self._by_id: Dict[str, RunRecord] = {}
        #: Finished records still held, oldest first (by run_id).
        self._finished: Dict[str, RunRecord] = {}
        self.started_at = time.time()
        # Running totals for /metrics: they count every run served, so
        # dropping a finished record never makes them go down.
        self.n_submissions = 0
        self.n_executions = 0
        self.n_points_completed = 0
        self.n_cache_hits = 0
        self.n_point_errors = 0

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self._by_id)

    def get(self, run_id: str) -> Optional[RunRecord]:
        return self._by_id.get(run_id)

    def runs(self) -> List[RunRecord]:
        """Every record, newest first."""
        return sorted(
            self._by_id.values(), key=lambda r: r.created_at, reverse=True
        )

    # --------------------------------------------------------- submission
    def submit(
        self, specs: Sequence[RunSpec], experiment: Optional[str] = None
    ) -> Tuple[RunRecord, bool]:
        """Register a sweep; returns ``(record, created)``.

        ``created=False`` means the caller attached to an existing run
        (in-flight or finished) instead of starting a new execution.
        """
        key = sweep_key(specs)
        record = self._by_key.get(key)
        self.n_submissions += 1
        if record is not None:
            record.n_submissions += 1
            return record, False
        record = RunRecord(
            run_id=key[:16],
            key=key,
            specs=list(specs),
            experiment=experiment,
            created_at=time.time(),
        )
        self._by_key[key] = record
        self._by_id[record.run_id] = record
        record.log.publish(
            {
                "event": "run_submitted",
                "run_id": record.run_id,
                "experiment": experiment,
                "n_specs": record.n_specs,
            }
        )
        self._executor.submit(self._execute, record)
        return record, True

    # ---------------------------------------------------------- execution
    def _execute(self, record: RunRecord) -> None:
        """Worker-thread body: one run_sweep, bridged back to the loop."""

        def call_in_loop(fn, *args) -> None:
            try:
                self._loop.call_soon_threadsafe(fn, *args)
            except RuntimeError:
                pass  # loop shut down mid-sweep; nothing left to notify

        call_in_loop(self._mark_running, record)
        try:
            report = run_sweep(
                record.specs,
                max_workers=self.sweep_workers,
                cache=self.cache,
                on_outcome=lambda index, outcome: call_in_loop(
                    self._point_done, record, index, outcome
                ),
            )
        except Exception:
            call_in_loop(self._mark_failed, record, traceback.format_exc())
        else:
            call_in_loop(self._mark_completed, record, report)

    # ------------------------------------------------- loop-thread updates
    def _mark_running(self, record: RunRecord) -> None:
        record.state = RUNNING
        record.started_at = time.time()
        record.n_executions += 1
        self.n_executions += 1
        record.log.publish({"event": "run_started", "run_id": record.run_id})

    def _point_done(self, record: RunRecord, index: int, outcome: RunOutcome) -> None:
        record.n_done += 1
        self.n_points_completed += 1
        if outcome.cached:
            record.n_cache_hits += 1
            self.n_cache_hits += 1
        if not outcome.ok:
            record.n_point_errors += 1
            self.n_point_errors += 1
        event = outcome_to_dict(index, outcome)
        event["event"] = "point_completed"
        event["run_id"] = record.run_id
        event["n_done"] = record.n_done
        event["n_specs"] = record.n_specs
        record.log.publish(event)

    def _finish(self, record: RunRecord, state: str) -> None:
        record.state = state
        record.finished_at = time.time()
        record.done.set()
        self._finished[record.run_id] = record
        while len(self._finished) > FINISHED_RUNS_KEPT:
            oldest = self._finished.pop(next(iter(self._finished)))
            del self._by_id[oldest.run_id]
            del self._by_key[oldest.key]

    def _mark_completed(self, record: RunRecord, report: SweepReport) -> None:
        record.report = report
        # Trust the report over incrementally-streamed counters (identical
        # unless the loop dropped a callback during shutdown).
        self.n_points_completed += report.n_runs - record.n_done
        self.n_cache_hits += report.n_cache_hits - record.n_cache_hits
        self.n_point_errors += report.n_errors - record.n_point_errors
        record.n_done = report.n_runs
        record.n_cache_hits = report.n_cache_hits
        record.n_point_errors = report.n_errors
        self._finish(record, COMPLETED)
        record.log.publish(
            {
                "event": "run_completed",
                "run_id": record.run_id,
                "n_specs": record.n_specs,
                "n_cache_hits": report.n_cache_hits,
                "n_errors": report.n_errors,
                "wall_time": report.wall_time,
            }
        )
        record.log.close()

    def _mark_failed(self, record: RunRecord, error: str) -> None:
        record.error = error
        self._finish(record, FAILED)
        record.log.publish(
            {"event": "run_failed", "run_id": record.run_id, "error": error}
        )
        record.log.close()

    # ------------------------------------------------------------- metrics
    def metric_families(self) -> List[Tuple[str, str, List[Tuple[Dict[str, str], Any]]]]:
        """Service gauges and counters for ``/metrics`` (rendered by
        :func:`repro.obs.export.exposition`).  The ``_total`` counters
        cover every run served; ``service_runs`` and
        ``service_run_progress`` cover the records still held."""
        records = list(self._by_id.values())
        by_state = {state: 0 for state in RUN_STATES}
        for record in records:
            by_state[record.state] += 1
        families = [
            (
                "service_uptime_seconds",
                "Seconds since the service registry started",
                [({}, time.time() - self.started_at)],
            ),
            (
                "service_runs",
                "Runs held in memory by lifecycle state",
                [({"state": state}, count) for state, count in by_state.items()],
            ),
            (
                "service_submissions_total",
                "Sweep submissions accepted (attaches included)",
                [({}, self.n_submissions)],
            ),
            (
                "service_executions_total",
                "run_sweep executions started (at most one per run record)",
                [({}, self.n_executions)],
            ),
            (
                "service_points_completed_total",
                "Sweep points finalized across all runs",
                [({}, self.n_points_completed)],
            ),
            (
                "service_cache_hits_total",
                "Sweep points served from the result cache",
                [({}, self.n_cache_hits)],
            ),
            (
                "service_point_errors_total",
                "Sweep points that failed across all runs",
                [({}, self.n_point_errors)],
            ),
            (
                "service_run_progress",
                "Completed points per run",
                [
                    ({"run_id": r.run_id, "state": r.state}, r.n_done)
                    for r in records
                ],
            ),
        ]
        return families

    def result_document(self, record: RunRecord) -> Dict[str, Any]:
        """The ``GET /runs/{id}/result`` body for a completed record."""
        assert record.report is not None
        doc = record.status_dict()
        doc["result"] = report_to_dict(record.report)
        return doc
