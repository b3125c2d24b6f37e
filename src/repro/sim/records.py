"""Simulation records: per-attempt traces, per-job summaries, run results.

A run produces one :class:`AttemptRecord` per execution attempt (a job
that fails and is resubmitted produces several) and one :class:`JobSummary`
per job.  Neither engine keeps those records: both fill the same two
tables, a :class:`JobTable` of per-job outcome columns and an
:class:`AttemptLog` of plain numbers, and :class:`SimResult`, the container
every metric and experiment consumes, reads them through :class:`Records`
views that decode a record when one is asked for.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from operator import eq as _eq
from typing import TYPE_CHECKING, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.job import Workload


def _canon(value) -> str:
    """Bit-exact canonical text for fingerprint hashing.

    Floats use ``float.hex()`` so two values hash equally iff they are the
    same IEEE-754 double — the whole point of the engine fingerprint is to
    catch optimizations that change results by even one ULP.
    """
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return str(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    raise TypeError(f"unhashable fingerprint field type: {type(value)!r}")


class TimelineSample(NamedTuple):
    """One point of the queue/utilization time series.

    Sampled after every simulation event by
    :class:`repro.obs.sampler.TimelineSampler`.  ``down_nodes`` counts
    capacity out of service from fault injection at the sample instant, so
    queue-dynamics analyses under faults can tell idle from failed capacity:
    free in-service nodes are ``total - busy_nodes - down_nodes``.
    """

    time: float
    queue_length: int
    busy_nodes: int
    down_nodes: int = 0


class AttemptRecord(NamedTuple):
    """One execution attempt of one job.

    A ``NamedTuple`` rather than a frozen dataclass: the scalar engine
    builds one per attempt on the completion hot path when an observer is
    attached, and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.  Field access,
    equality and keyword construction are unchanged.  A result's
    ``attempts`` decodes them from its :class:`AttemptLog`.
    """

    job_id: int
    attempt: int
    submit_time: float  # when this attempt entered the queue
    start_time: float
    end_time: float
    procs: int
    requirement: float  # per-node capacity the estimator asked for
    granted: float  # smallest per-node capacity actually allocated
    succeeded: bool
    resource_failure: bool  # failed because granted < used
    reduced: bool  # requirement < the job's original request
    #: nodes held per capacity level, e.g. ((24.0, 3), (32.0, 1)) — feeds the
    #: per-tier occupancy analyses in :mod:`repro.sim.analysis`.
    allocation: Tuple[Tuple[float, int], ...] = ()

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def node_seconds(self) -> float:
        return self.duration * self.procs


class JobSummary(NamedTuple):
    """Outcome of one job across all its attempts.

    A ``NamedTuple`` for the same reason as :class:`AttemptRecord`.  A
    result's ``summaries`` decodes them from its :class:`JobTable`, in
    ``(first_submit, job_id)`` order.
    """

    job: Job
    first_submit: float
    start_time: float  # start of the final (successful) attempt
    end_time: float  # end of the final attempt
    n_attempts: int
    n_resource_failures: int
    completed: bool
    final_requirement: float
    final_granted: float
    reduced: bool  # completed with requirement < original request
    wasted_node_seconds: float  # node-time burnt by failed attempts

    @property
    def response_time(self) -> float:
        """First submission to final completion."""
        return self.end_time - self.first_submit

    @property
    def wait_time(self) -> float:
        """Response time minus the productive run (includes failed attempts)."""
        return self.response_time - self.job.run_time

    @property
    def slowdown(self) -> float:
        """(wait + run) / run — the paper's slowdown metric [5].

        Real traces occasionally record zero-second runtimes (sub-second
        jobs truncated by the accounting); their slowdown is unbounded, so
        return ``inf`` rather than raise — use :meth:`bounded_slowdown` for
        a metric robust to such jobs.
        """
        if self.job.run_time <= 0:
            return float("inf")
        return self.response_time / self.job.run_time

    def bounded_slowdown(self, threshold: float = 10.0) -> float:
        """Slowdown with short jobs clamped to ``threshold`` seconds,
        avoiding the metric being dominated by near-zero runtimes."""
        return max(
            self.response_time / max(self.job.run_time, threshold), 1.0
        )


class SummaryColumns(NamedTuple):
    """Columnar views over a result's job summaries.

    Built once per :class:`SimResult` (see :meth:`SimResult.summary_columns`)
    so every metric — slowdowns, waits, size-class breakdowns — is a
    vectorized pass over shared arrays instead of a fresh Python-level
    rebuild per call.
    """

    completed: np.ndarray  # bool
    first_submit: np.ndarray  # float64
    end_time: np.ndarray  # float64
    run_time: np.ndarray  # float64, the job's productive runtime
    procs: np.ndarray  # int64


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class Records(_SequenceABC):
    """A result's records, decoded from its table on every read.

    ``result.summaries`` (:class:`JobSummary` records of a
    :class:`JobTable`) and ``result.attempts`` (:class:`AttemptRecord`
    records of an :class:`AttemptLog`) are both this read-only view.  It
    keeps no record: ``len()`` reads the table, iteration decodes it a
    chunk at a time, indexing decodes the record asked for, and ``==``
    compares tables (or, against a list, one record at a time).  Pickles
    and deep-copies as its table.
    """

    __slots__ = ("table",)

    def __init__(self, table) -> None:
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator:
        return iter(self.table)

    def __getitem__(self, index):
        n = len(self.table)
        if isinstance(index, slice):
            return [self.table.record(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        return self.table.record(index)

    def __eq__(self, other) -> bool:
        if isinstance(other, Records):
            return self.table == other.table
        if isinstance(other, list):
            return len(self) == len(other) and all(map(_eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Records({type(self.table).__name__}, {len(self)} rows)"


class JobTable:
    """A run's per-job outcomes, one row per job that was not rejected.

    Both engines build one when a run ends, from the workload the run
    replayed, the rows it rejected and nine outcome lists with one entry
    per workload row, in :class:`JobSummary` field order from
    ``start_time`` on.  The table keeps ``workload``, ``rows`` (the
    workload rows it describes; ``None`` when no job was rejected, so
    every row has one) and ``columns`` (the lists at those rows).  Rows
    are in workload order, ``(submit_time, job_id)``, which is the
    summaries' order; a job's first submission is its arrival,
    ``Job.submit_time``.  Every kept row must have finished.

    :meth:`tuples`, :meth:`n_completed` and :meth:`summary_columns` read
    the columns and the workload's job columns, and build no record and
    no :class:`Job`.  Iteration and :meth:`record` build
    :class:`JobSummary` records around jobs built from the workload's
    columns, which keep none of them.
    """

    __slots__ = ("workload", "rows", "columns")

    def __init__(
        self, workload: "Workload", rejected_rows: Sequence[int],
        columns: Sequence[list],
    ) -> None:
        self.workload = workload
        self.rows: Optional[np.ndarray] = None
        if rejected_rows:
            keep = np.ones(len(workload), dtype=bool)
            keep[list(rejected_rows)] = False
            self.rows = np.flatnonzero(keep)
            kept = self.rows.tolist()
            columns = [[column[i] for i in kept] for column in columns]
        #: start_time, end_time, n_attempts, n_resource_failures, completed,
        #: final_requirement, final_granted, reduced, wasted_node_seconds.
        self.columns: Tuple[list, ...] = tuple(columns)
        end = self.columns[1]
        if None in end:
            job_id = self._job_column("job_id")[end.index(None)]
            raise RuntimeError(f"job {job_id} finished the trace incomplete")

    def __len__(self) -> int:
        return len(self.columns[1])

    def _job_column(self, name: str) -> np.ndarray:
        """One of the workload's job columns at the kept rows (a read-only
        view when the workload's own array serves)."""
        column = getattr(self.workload.as_columns(), name)
        return _read_only(column) if self.rows is None else column[self.rows]

    def _jobs(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Job]:
        """The jobs of table rows ``start`` to ``stop``, one at a time,
        built from the workload's columns a block at a time."""
        stop = len(self) if stop is None else stop
        rows = range(start, stop) if self.rows is None else self.rows[start:stop]
        return self.workload.iter_jobs(rows)

    def __iter__(self) -> Iterator[JobSummary]:
        make = JobSummary._make
        for job, fields in zip(self._jobs(), zip(*self.columns)):
            yield make((job, job.submit_time) + fields)

    def record(self, i: int) -> JobSummary:
        job = next(self._jobs(i, i + 1))
        fields = tuple(column[i] for column in self.columns)
        return JobSummary._make((job, job.submit_time) + fields)

    def tuples(self) -> Iterator[tuple]:
        """Each row as a tuple in :class:`JobSummary` field order with the
        job replaced by its id: ``job_id``, ``first_submit``,
        ``start_time``, ...  The workload's columns decode to what its jobs
        hold, since its jobs are built from them."""
        return zip(
            self._job_column("job_id").tolist(),
            self._job_column("submit_time").tolist(),
            *self.columns,
        )

    @property
    def first_submit(self) -> float:
        """The earliest first submission (0.0 without a row)."""
        submit = self._job_column("submit_time")
        return float(submit[0]) if len(submit) else 0.0

    def n_completed(self) -> int:
        return self.columns[4].count(True)

    def summary_columns(self) -> SummaryColumns:
        return SummaryColumns(
            completed=np.array(self.columns[4], dtype=bool),
            first_submit=self._job_column("submit_time"),
            end_time=np.array(self.columns[1], dtype=np.float64),
            run_time=self._job_column("run_time"),
            procs=self._job_column("procs"),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, JobTable):
            return NotImplemented
        return self.columns == other.columns and self._same_jobs(other)

    def _same_jobs(self, other: "JobTable") -> bool:
        rows, other_rows = self.rows, other.rows
        same_rows = (rows is None and other_rows is None) or (
            rows is not None and other_rows is not None
            and np.array_equal(rows, other_rows)
        )
        if same_rows and self.workload is other.workload:
            return True
        # Equal columns: both tables have as many rows.
        return all(map(_eq, self._jobs(), other._jobs()))


#: Fields per record of an :class:`AttemptLog`: the eleven leading
#: :class:`AttemptRecord` fields, then the allocation's pair count.
LOG_FIELDS = 12

#: Records per chunk of an :class:`AttemptLog`.
LOG_CHUNK = 512

#: Length of a full record chunk.
LOG_CHUNK_FIELDS = LOG_FIELDS * LOG_CHUNK


def _decode(
    chunk: list, pairs: list, levels: Tuple[float, ...]
) -> List[tuple]:
    """The attempts of one :class:`AttemptLog` chunk as plain tuples in
    :class:`AttemptRecord` field order: each record's first eleven fields
    verbatim, its ``(ladder index, take)`` pairs mapped to ``(level,
    take)`` and sorted by level, as a record holds them."""
    out = []
    p = 0
    for fields in zip(*(iter(chunk),) * LOG_FIELDS):
        n_pairs = fields[11]
        if n_pairs == 1:
            allocation = ((levels[pairs[p]], pairs[p + 1]),)
        else:
            allocation = tuple(sorted([
                (levels[pairs[k]], pairs[k + 1])
                for k in range(p, p + 2 * n_pairs, 2)
            ]))
        p += 2 * n_pairs
        out.append(fields[:11] + (allocation,))
    return out


class AttemptLog:
    """A run's attempt trace, kept as plain numbers.

    ``records`` is a list of chunks, each a flat list of up to
    :data:`LOG_CHUNK` records of :data:`LOG_FIELDS` fields: the eleven
    leading :class:`AttemptRecord` fields verbatim, then how many
    ``(ladder index, take)`` pairs the allocation holds.  ``pairs`` holds
    one companion chunk per record chunk, those pairs flattened to ints in
    the order the engine filled them, indexing into ``levels``, the
    cluster's capacity ladder.  Every element is an int, a float or a
    bool, none of which the cyclic collector tracks, so a log of any length
    adds only its chunk lists to a collection.  The chunks are bounded so
    that the log grows without reallocating one large list, and so that
    reads decode it a chunk at a time.  The last chunk of each list is the
    one being written; :meth:`append` and the inlined FCFS loop of
    :class:`repro.sim.batch._FastLane` start a new one when it is full.

    :meth:`tuples` yields each attempt as a plain tuple; iteration and
    :meth:`record` build :class:`AttemptRecord` records.
    """

    __slots__ = ("records", "pairs", "levels")

    def __init__(self, levels: Tuple[float, ...]) -> None:
        self.records: List[list] = [[]]
        self.pairs: List[list] = [[]]
        self.levels = levels

    def append(self, record: tuple, counts: Sequence[Tuple[int, int]]) -> None:
        """Log one attempt: ``record`` its eleven leading
        :class:`AttemptRecord` fields, ``counts`` its allocation as
        ``(ladder index, take)`` pairs in fill order."""
        rec = self.records[-1]
        rec += record
        rec.append(len(counts))
        pairs = self.pairs[-1]
        for pair in counts:
            pairs += pair
        if len(rec) >= LOG_CHUNK_FIELDS:
            self.records.append([])
            self.pairs.append([])

    def __len__(self) -> int:
        records = self.records
        return (len(records) - 1) * LOG_CHUNK + len(records[-1]) // LOG_FIELDS

    def tuples(self) -> Iterator[tuple]:
        """Each attempt as a plain tuple in :class:`AttemptRecord` field
        order, decoded a chunk at a time."""
        levels = self.levels
        for chunk, pairs in zip(self.records, self.pairs):
            yield from _decode(chunk, pairs, levels)

    def __iter__(self) -> Iterator[AttemptRecord]:
        return map(AttemptRecord._make, self.tuples())

    def record(self, i: int) -> AttemptRecord:
        k, offset = divmod(i, LOG_CHUNK)
        chunk = _decode(self.records[k], self.pairs[k], self.levels)
        return AttemptRecord._make(chunk[offset])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttemptLog):
            return NotImplemented
        if (
            self.levels == other.levels
            and self.records == other.records
            and self.pairs == other.pairs
        ):
            return True
        # Logs that differ only in fill order decode to equal attempts.
        return len(self) == len(other) and all(
            map(_eq, self.tuples(), other.tuples())
        )


@dataclass
class SimResult:
    """Everything a simulation run produced.

    ``summaries`` and ``attempts`` are :class:`Records` views over the
    run's :class:`JobTable` and :class:`AttemptLog`, which both engines
    fill alike.  :attr:`n_jobs`, :attr:`n_completed`,
    :meth:`summary_columns` (and the metrics built on it),
    :meth:`fingerprint`, ``==`` and
    :func:`repro.sim.analysis.tier_utilization` read the tables and build
    no record; a record is decoded when one is read (``for s in
    result.summaries``, ``result.attempts[0]``) and is not kept.
    """

    workload_name: str
    cluster_name: str
    estimator_name: str
    policy_name: str
    total_nodes: int
    attempts: Records  # AttemptRecords over an AttemptLog
    summaries: Records  # JobSummaries over a JobTable
    rejected_jobs: List[Job]
    t_first_submit: float
    t_last_end: float
    # Run-level counters, maintained by the engine even when the per-attempt
    # trace is disabled (collect_attempts=False).
    n_attempts: int = 0
    n_resource_failures: int = 0
    n_spurious_failures: int = 0
    #: Executions killed mid-run by an injected node fault — failures that
    #: are *not* resource-related (§2.1's false-positive channel).
    n_fault_kills: int = 0
    #: Nodes taken out of service by fault injection over the run.
    n_node_failures: int = 0
    #: Node-seconds out of service, with each down interval clamped to the
    #: observed trace ([first submit, last completion]) — a repair scheduled
    #: past the end of the workload does not count phantom downtime.
    node_downtime_seconds: float = 0.0
    n_reduced_submissions: int = 0
    useful_node_seconds: float = 0.0
    wasted_node_seconds: float = 0.0
    #: :class:`TimelineSample` records, one per event — set only when a
    #: :class:`repro.obs.sampler.TimelineSampler` watched the run.
    timeline: List[TimelineSample] = field(default_factory=list)
    #: Memoized columnar views over ``summaries`` (see :meth:`summary_columns`
    #: / :meth:`slowdowns` / :meth:`wait_times`).  A result is effectively
    #: frozen once the run ends, so these are computed once and never
    #: invalidated; excluded from equality/repr.
    _summary_columns: Optional["SummaryColumns"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _slowdowns: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _wait_times: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------- totals
    @property
    def makespan(self) -> float:
        return max(self.t_last_end - self.t_first_submit, 0.0)

    @property
    def n_jobs(self) -> int:
        return len(self.summaries)

    @property
    def n_completed(self) -> int:
        return self.summaries.table.n_completed()

    @property
    def frac_reduced_submissions(self) -> float:
        """Share of submissions made with less than the user's request
        (§3.2: "15%-40% of jobs were successfully submitted ... with lower
        estimated resources")."""
        return self.n_reduced_submissions / self.n_attempts if self.n_attempts else 0.0

    @property
    def frac_failed_executions(self) -> float:
        """Resource failures over all executions (§3.2: at most ~0.01%)."""
        if not self.n_attempts:
            return 0.0
        return self.n_resource_failures / self.n_attempts

    # ------------------------------------------------------------- arrays
    def summary_columns(self) -> SummaryColumns:
        """Columnar views over ``summaries`` (memoized — results are frozen
        after the run), read off the job table."""
        if self._summary_columns is None:
            self._summary_columns = self.summaries.table.summary_columns()
        return self._summary_columns

    def slowdowns(self) -> np.ndarray:
        """Per-completed-job slowdown values (memoized on first use)."""
        if self._slowdowns is None:
            cols = self.summary_columns()
            mask = cols.completed
            run = cols.run_time[mask]
            response = cols.end_time[mask] - cols.first_submit[mask]
            out = np.empty_like(response)
            positive = run > 0
            out[positive] = response[positive] / run[positive]
            out[~positive] = np.inf  # zero-runtime jobs: unbounded slowdown
            self._slowdowns = out
        return self._slowdowns

    def wait_times(self) -> np.ndarray:
        """Per-completed-job wait times (memoized on first use)."""
        if self._wait_times is None:
            cols = self.summary_columns()
            mask = cols.completed
            response = cols.end_time[mask] - cols.first_submit[mask]
            self._wait_times = response - cols.run_time[mask]
        return self._wait_times

    def fingerprint(self) -> str:
        """SHA-256 digest of everything the run produced, bit-exactly.

        Two runs fingerprint equally iff every attempt record, job summary,
        rejected job, counter, and timeline sample is identical down to the
        last IEEE-754 bit (floats hash via ``float.hex()``).  This is the
        regression gate for engine optimizations: the optimized engine must
        reproduce the seed engine's fingerprint on the reference slices (see
        ``tests/sim/test_engine_fingerprints.py``).
        """
        h = hashlib.sha256()

        def put(*fields) -> None:
            h.update(";".join(_canon(f) for f in fields).encode())
            h.update(b"\n")

        put(
            "header",
            self.workload_name,
            self.cluster_name,
            self.estimator_name,
            self.policy_name,
            self.total_nodes,
            self.t_first_submit,
            self.t_last_end,
            self.n_attempts,
            self.n_resource_failures,
            self.n_spurious_failures,
            self.n_fault_kills,
            self.n_node_failures,
            self.node_downtime_seconds,
            self.n_reduced_submissions,
            self.useful_node_seconds,
            self.wasted_node_seconds,
        )
        for row in self.attempts.table.tuples():
            put("attempt", *row)
        for row in self.summaries.table.tuples():
            put("summary", *row)
        for job in self.rejected_jobs:
            put("rejected", job.job_id)
        for t in self.timeline:
            put("timeline", t.time, t.queue_length, t.busy_nodes, t.down_nodes)
        return h.hexdigest()

    def summary_table(self) -> str:
        """Human-readable one-run report."""
        lines = [
            f"workload   : {self.workload_name}",
            f"cluster    : {self.cluster_name}",
            f"estimator  : {self.estimator_name}",
            f"policy     : {self.policy_name}",
            f"jobs       : {self.n_jobs} ({self.n_completed} completed, "
            f"{len(self.rejected_jobs)} rejected)",
            f"attempts   : {self.n_attempts} "
            f"({self.n_resource_failures} resource failures, "
            f"{self.n_spurious_failures} spurious)",
            f"reduced    : {self.frac_reduced_submissions:.1%} of submissions",
            f"failed exec: {self.frac_failed_executions:.3%} of executions",
            f"makespan   : {self.makespan:.0f}s",
        ]
        if self.n_node_failures:
            lines.insert(
                6,
                f"node faults: {self.n_node_failures} "
                f"({self.n_fault_kills} jobs killed, "
                f"{self.node_downtime_seconds:.0f} node-seconds down)",
            )
        return "\n".join(lines)
