"""JSONL event traces: write one line per engine hook, read them back.

The trace is the run's full observable history in a grep/jq-friendly form.
Every line is one JSON object with at least::

    {"v": 1, "t": <sim time>, "event": "<kind>", ...}

Event kinds and their extra fields (the schema is versioned via ``v``):

=================  =============================================================
 ``run_start``      workload, cluster, estimator, policy, n_jobs, total_nodes
 ``job_enqueued``   job_id, attempt, requirement, at_head, user_id, app_id,
                    req_mem, procs
 ``job_rejected``   job_id, attempt
 ``job_started``    job_id, attempt, requirement, granted, n_nodes, user_id,
                    app_id, req_mem
 ``job_completed``  job_id, attempt, start, requirement, granted, node_seconds
 ``job_failed``     same as completed + resource (bool: genuine under-allocation)
 ``job_killed``     same as completed (killed by an injected node fault)
 ``node_failed``    level, repair_time
 ``node_repaired``  level
 ``sched_pass``     started, queue, busy, down  (omitted unless
                    ``include_scheduling=True`` — one line per event adds ~2x
                    volume)
 ``run_end``        n_jobs, n_completed, useful_node_seconds,
                    wasted_node_seconds, node_downtime_seconds, makespan
=================  =============================================================

``job_enqueued``/``job_started`` carry the similarity-key raw material
(user_id, app_id, req_mem), so per-group analyses — Figure 7's convergence
trajectory among them — are reproducible from the trace alone, with no
access to the live estimator (see :func:`group_trajectories`).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Tuple, Union

from repro.obs.base import RunMeta, SimObserver

#: Bump when a field changes meaning; readers skip foreign versions.
TRACE_SCHEMA_VERSION = 1


def trace_line(doc: Dict) -> str:
    """One compact, versioned JSONL trace line (no trailing newline).

    Stamps the schema version if ``doc`` does not carry one, so any
    versioned JSONL producer — the trace observer below, the sweep
    service's progress stream — emits lines :func:`read_trace` accepts.
    """
    if "v" not in doc:
        doc = {"v": TRACE_SCHEMA_VERSION, **doc}
    return json.dumps(doc, separators=(",", ":"))


class JsonlTraceObserver(SimObserver):
    """Writes one JSONL line per hook firing.

    Accepts a path (opened lazily, closed by :meth:`close` / context exit /
    ``run_end``... never implicitly) or any writable text file object (not
    closed — the caller owns it).  Lines are buffered by the underlying
    file; call :meth:`close` (or use ``with``) to flush.
    """

    def __init__(
        self,
        sink: Union[str, Path, IO[str]],
        include_scheduling: bool = False,
    ) -> None:
        self.include_scheduling = include_scheduling
        self._own_file = isinstance(sink, (str, Path))
        if self._own_file:
            path = Path(sink)
            if path.parent != Path(""):
                path.parent.mkdir(parents=True, exist_ok=True)
            self._fh: IO[str] = open(path, "w", encoding="utf-8")
        else:
            self._fh = sink
        self.n_events = 0

    # ------------------------------------------------------------ plumbing
    def _emit(self, t: float, event: str, **fields) -> None:
        doc = {"v": TRACE_SCHEMA_VERSION, "t": t, "event": event}
        doc.update(fields)
        self._fh.write(trace_line(doc) + "\n")
        self.n_events += 1

    def close(self) -> None:
        """Flush, and close the file if this observer opened it."""
        if self._fh.closed:
            return
        self._fh.flush()
        if self._own_file:
            self._fh.close()

    def __enter__(self) -> "JsonlTraceObserver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --------------------------------------------------------------- hooks
    def on_run_start(self, meta: RunMeta) -> None:
        self._emit(
            0.0,
            "run_start",
            workload=meta.workload.name,
            cluster=meta.cluster.name,
            estimator=meta.estimator.name,
            policy=meta.policy.name,
            n_jobs=meta.n_jobs,
            total_nodes=meta.total_nodes,
        )

    def on_run_end(self, result) -> None:
        self._emit(
            result.t_last_end,
            "run_end",
            n_jobs=result.n_jobs,
            n_completed=result.n_completed,
            useful_node_seconds=result.useful_node_seconds,
            wasted_node_seconds=result.wasted_node_seconds,
            node_downtime_seconds=result.node_downtime_seconds,
            makespan=result.makespan,
        )
        self._fh.flush()

    def on_job_enqueued(self, now, job, attempt, requirement, at_head):
        self._emit(
            now,
            "job_enqueued",
            job_id=job.job_id,
            attempt=attempt,
            requirement=requirement,
            at_head=at_head,
            user_id=job.user_id,
            app_id=job.app_id,
            req_mem=job.req_mem,
            procs=job.procs,
        )

    def on_job_rejected(self, now, job, attempt):
        self._emit(now, "job_rejected", job_id=job.job_id, attempt=attempt)

    def on_job_started(self, now, job, attempt, requirement, granted, n_nodes):
        self._emit(
            now,
            "job_started",
            job_id=job.job_id,
            attempt=attempt,
            requirement=requirement,
            granted=granted,
            n_nodes=n_nodes,
            user_id=job.user_id,
            app_id=job.app_id,
            req_mem=job.req_mem,
        )

    def _attempt_end(self, now, event, record, **extra) -> None:
        self._emit(
            now,
            event,
            job_id=record.job_id,
            attempt=record.attempt,
            start=record.start_time,
            requirement=record.requirement,
            granted=record.granted,
            node_seconds=record.node_seconds,
            **extra,
        )

    def on_job_completed(self, now, record):
        self._attempt_end(now, "job_completed", record)

    def on_job_failed(self, now, record):
        self._attempt_end(now, "job_failed", record, resource=record.resource_failure)

    def on_job_killed(self, now, record):
        self._attempt_end(now, "job_killed", record)

    def on_node_failed(self, now, level, repair_time):
        self._emit(now, "node_failed", level=level, repair_time=repair_time)

    def on_node_repaired(self, now, level):
        self._emit(now, "node_repaired", level=level)

    def on_scheduling_pass(self, now, n_started, queue_length, busy_nodes, down_nodes):
        if self.include_scheduling:
            self._emit(
                now,
                "sched_pass",
                started=n_started,
                queue=queue_length,
                busy=busy_nodes,
                down=down_nodes,
            )


# ------------------------------------------------------------------ reading
def read_trace(
    source: Union[str, Path, IO[str], Iterable[str]]
) -> Iterator[Dict]:
    """Yield trace events from JSONL, skipping torn/foreign lines.

    ``source`` may be a path, an open text file, or any iterable of lines —
    e.g. a list of chunks streamed from the sweep service's ``/events``
    endpoint.  Tolerates a truncated final line (a run killed mid-write)
    by skipping it, like any line that is not a trace event of this schema.
    """
    if isinstance(source, (str, Path)):
        fh: Union[IO[str], Iterable[str]] = open(source, "r", encoding="utf-8")
        own = True
    else:
        fh, own = source, False
    try:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn trailing write
            if not isinstance(doc, dict) or doc.get("v") != TRACE_SCHEMA_VERSION:
                continue
            yield doc
    finally:
        if own:
            fh.close()


GroupKey = Tuple[int, int, float]


def group_trajectories(
    events: Iterable[Dict],
    event_kind: str = "job_started",
) -> Dict[GroupKey, List[float]]:
    """Per-similarity-group submitted-requirement sequences from a trace.

    Groups by the paper's (user, app, requested memory) key — the raw
    material is on every ``job_enqueued``/``job_started`` line — and returns
    each group's E' sequence in event order.  Applied to the Figure 7
    scenario this reproduces the paper's 32 → 16 → 8 → 4 → 8 trajectory
    from the trace alone.
    """
    out: Dict[GroupKey, List[float]] = defaultdict(list)
    for doc in events:
        if doc.get("event") != event_kind:
            continue
        key = (doc["user_id"], doc["app_id"], doc["req_mem"])
        out[key].append(doc["requirement"])
    return dict(out)


def trace_counts(events: Iterable[Dict]) -> Dict[str, int]:
    """Event-kind histogram of a trace."""
    counts: Dict[str, int] = defaultdict(int)
    for doc in events:
        counts[doc.get("event", "?")] += 1
    return dict(counts)
