"""Simulation records: per-attempt traces, per-job summaries, run results.

The simulator records one :class:`AttemptRecord` per execution attempt (a job
that fails and is resubmitted produces several) and one :class:`JobSummary`
per job.  :class:`SimResult` is the container every metric and experiment
consumes.  The scalar engine builds a job's summary when the job succeeds, and
its attempt records only when they are collected or observed; the batched
fast lane hands over a :class:`LazyAttempts` and a :class:`LazySummaries`
sequence that build them only when someone reads one.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from operator import attrgetter as _attrgetter, eq as _eq
from typing import TYPE_CHECKING, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.workload.job import Job, LazyJobs

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
    builds one per attempt on the completion hot path when the attempt
    trace is collected or an observer is attached, and tuple
    construction skips the per-field ``object.__setattr__`` a frozen
    dataclass pays.  Field access, equality and keyword construction are
    unchanged.  A fast-lane result builds them all on the first element
    access or iteration of its :class:`LazyAttempts`.
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

    A ``NamedTuple`` for the same reason as :class:`AttemptRecord`.  The
    scalar engine builds a job's summary when the job's attempt succeeds
    and sorts them all by ``(first_submit, job_id)`` when it assembles its
    result; a fast-lane result builds them all on the first element access
    or iteration of its :class:`LazySummaries`.
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
    """Columnar views over a result's :class:`JobSummary` list.

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


#: Field getters for the column builds.  A fast-lane job's first
#: submission is its arrival time, ``Job.submit_time``.
_JOB, _FIRST_SUBMIT, _END_TIME, _COMPLETED = map(
    _attrgetter, ("job", "first_submit", "end_time", "completed")
)
_SUBMIT_TIME, _RUN_TIME, _PROCS = map(
    _attrgetter, ("submit_time", "run_time", "procs")
)


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class _LazySequence(_SequenceABC):
    """A fast-lane record list, built on the first element access.

    Subclasses hold the lane's raw per-record data and say how long the
    list is (``__len__``) and how to make its records (:meth:`_build`, one
    at a time, keeping none).  ``len()`` and ``bool()`` build nothing; the
    first element access or iteration builds the list once
    (:meth:`_make_list`) and keeps it.  :func:`iter_records` and ``==``
    against a list go one record at a time and keep nothing; against
    another lazy sequence of the same class ``==`` asks :meth:`_same`.
    Pickles and deep-copies as the built list.
    """

    __slots__ = ("_list",)

    #: What one record is, for ``repr``.
    _noun: str

    def built(self) -> bool:
        """Whether the record list exists yet."""
        return self._list is not None

    def _build(self) -> Iterator:
        raise NotImplementedError

    def _make_list(self) -> list:
        return list(self._build())

    def _records(self) -> Iterator:
        return iter(self._list) if self._list is not None else self._build()

    def _materialize(self) -> list:
        if self._list is None:
            self._list = self._make_list()
        return self._list

    def _same(self, other) -> bool:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator:
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._same(other)
        if isinstance(other, list):
            if self._list is not None:
                return self._list == other
            # Compared one record at a time; nothing is kept.
            return len(self) == len(other) and all(
                map(_eq, self._build(), other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        state = "built" if self._list is not None else "lazy"
        return f"{type(self).__name__}({len(self)} {self._noun}, {state})"

    def __reduce__(self):
        return (list, (self._materialize(),))


def iter_records(records: Sequence) -> Iterator:
    """Iterate ``records`` one record at a time, building and keeping no
    list: a lazy sequence not yet built decodes its records as they are
    read, anything else iterates as usual."""
    if isinstance(records, _LazySequence):
        return records._records()
    return iter(records)


class LazySummaries(_LazySequence):
    """A fast-lane result's :class:`JobSummary` sequence, built on demand.

    Holds the lane's per-row outcome lists (one entry per summarized job,
    in :class:`JobSummary` field order from ``start_time`` on), the
    workload, and the workload rows the summaries describe (``None`` when
    no job was rejected, so every row has one).  ``len()``, ``bool()``,
    ``==`` against another lazy sequence and :meth:`columns` read those
    lists and the workload's columns, and so does :meth:`id_rows`, which
    :meth:`SimResult.fingerprint` hashes.  The first element access or
    iteration builds the exact list a scalar run holds, once, reading the
    workload's :class:`Job` objects if it holds them; a columnar workload
    that does not gets bit-identical ones built from its columns, and is
    left without them.  Pickles and deep-copies as that plain list.
    """

    __slots__ = ("_workload", "_rows", "_fields")

    _noun = "jobs"

    def __init__(
        self, workload: "Workload", rows: Optional[np.ndarray], *fields: list
    ) -> None:
        self._workload = workload
        self._rows = rows
        #: start_time, end_time, n_attempts, n_resource_failures, completed,
        #: final_requirement, final_granted, reduced, wasted_node_seconds.
        self._fields: Tuple[list, ...] = fields
        self._list: Optional[List[JobSummary]] = None

    def _jobs(self) -> list:
        jobs = self._workload.jobs
        if isinstance(jobs, LazyJobs) and not jobs.materialized():
            # Built from the columns, not through the workload's view, so
            # that a summary build leaves no Job list on the workload.
            cols = jobs.columns
            if self._rows is not None:
                cols = cols.select(self._rows)
            return cols.to_jobs()
        if self._rows is None:
            return list(jobs)
        return [jobs[i] for i in self._rows.tolist()]

    def _build(self) -> Iterator[JobSummary]:
        jobs = self._jobs()
        return map(
            JobSummary._make,
            zip(jobs, map(_SUBMIT_TIME, jobs), *self._fields),
        )

    def id_rows(self) -> Iterator[tuple]:
        """Each summary as a tuple with its job replaced by the job's id
        (``job_id``, ``first_submit``, ``start_time``, ... in
        :class:`JobSummary` field order), read off the workload's columns
        and the lane's lists: no :class:`Job` is made and nothing is kept.

        The columns decode to what the workload's jobs hold: a columnar
        workload builds its jobs from them, and a fast lane runs a
        hand-built job list only when its times are floats.
        """
        cols = self._workload.as_columns()
        job_id, submit_time = cols.job_id, cols.submit_time
        rows = self._rows
        if rows is not None:
            job_id, submit_time = job_id[rows], submit_time[rows]
        return zip(job_id.tolist(), submit_time.tolist(), *self._fields)

    def columns(self) -> SummaryColumns:
        """The :class:`SummaryColumns` the built list would give, read
        off the lane's lists and the workload's columns (read-only views
        where the workload's own arrays serve)."""
        cols = self._workload.as_columns()
        rows = self._rows
        if rows is None:
            first_submit = _read_only(cols.submit_time)
            run_time = _read_only(cols.run_time)
            procs = _read_only(cols.procs)
        else:
            first_submit = cols.submit_time[rows]
            run_time = cols.run_time[rows]
            procs = cols.procs[rows]
        return SummaryColumns(
            completed=np.array(self._fields[4], dtype=bool),
            first_submit=first_submit,
            end_time=np.array(self._fields[1], dtype=np.float64),
            run_time=run_time,
            procs=procs,
        )

    def n_completed(self) -> int:
        return self._fields[4].count(True)

    def __len__(self) -> int:
        return len(self._fields[1])

    def _same(self, other: "LazySummaries") -> bool:
        return self._fields == other._fields and self._same_jobs(other)

    def _same_jobs(self, other: "LazySummaries") -> bool:
        rows, other_rows = self._rows, other._rows
        same_rows = (rows is None and other_rows is None) or (
            rows is not None and other_rows is not None
            and np.array_equal(rows, other_rows)
        )
        if same_rows and self._workload is other._workload:
            return True
        return self._jobs() == other._jobs()


#: Fields per record of an :class:`AttemptLog`: the eleven leading
#: :class:`AttemptRecord` fields, then the allocation's pair count.
LOG_FIELDS = 12

#: Records per chunk of an :class:`AttemptLog`.
LOG_CHUNK = 512

#: Length of a full record chunk.
LOG_CHUNK_FIELDS = LOG_FIELDS * LOG_CHUNK


class AttemptLog:
    """A fast lane's attempt trace, kept as plain numbers.

    ``records`` is a list of chunks, each a flat list of up to
    :data:`LOG_CHUNK` records of :data:`LOG_FIELDS` fields: the eleven
    leading :class:`AttemptRecord` fields verbatim, then how many
    ``(ladder index, take)`` pairs the allocation holds.  ``pairs`` holds
    one companion chunk per record chunk, those pairs flattened to ints in
    the order the lane filled them.  Every element is an int, a float or a
    bool, none of which the cyclic collector tracks, so a log of any length
    adds only its chunk lists to a collection.  The chunks are bounded so
    that the log grows without reallocating one large list, and so that
    :class:`LazyAttempts` can free it a chunk at a time.  The last chunk of
    each list is the one being written; :meth:`append` and the inlined
    FCFS loop of :class:`repro.sim.batch._FastLane` start a new one when
    it is full.
    """

    __slots__ = ("records", "pairs")

    def __init__(self) -> None:
        self.records: List[list] = [[]]
        self.pairs: List[list] = [[]]

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


def _decode(
    chunk: list, pairs: list, levels: Tuple[float, ...]
) -> List[AttemptRecord]:
    """The records of one :class:`AttemptLog` chunk: each record's first
    eleven fields verbatim, its ``(ladder index, take)`` pairs mapped to
    ``(level, take)`` and sorted by level, as the scalar engine records
    them."""
    make = AttemptRecord._make
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
        out.append(make(fields[:11] + (allocation,)))
    return out


class LazyAttempts(_LazySequence):
    """A fast-lane result's :class:`AttemptRecord` sequence, built on demand.

    Holds the lane's :class:`AttemptLog`, in completion order, plus the
    capacity ladder its pair indices point into.  ``len()`` and ``bool()``
    read the record count.  :func:`iter_records` (which
    :meth:`SimResult.fingerprint` and
    :func:`repro.sim.analysis.tier_utilization` use) decodes the log one
    chunk at a time and keeps no record.  The first element access or
    iteration builds the exact records a scalar run holds, chunk by chunk
    from the back, dropping each log chunk once decoded, so the whole log
    and the whole record list never exist side by side.  Pickles and
    deep-copies as the built list.
    """

    __slots__ = ("_log", "_levels", "_n")

    _noun = "attempts"

    def __init__(self, log: AttemptLog, levels: Tuple[float, ...]) -> None:
        self._log: Optional[AttemptLog] = log
        self._levels = levels
        self._n = len(log)
        self._list: Optional[List[AttemptRecord]] = None

    def _build(self) -> Iterator[AttemptRecord]:
        levels = self._levels
        log = self._log
        for chunk, pairs in zip(log.records, log.pairs):
            yield from _decode(chunk, pairs, levels)

    def _make_list(self) -> List[AttemptRecord]:
        records, pairs = self._log.records, self._log.pairs
        self._log = None
        levels = self._levels
        out: list = [None] * self._n
        end = self._n
        while records:
            built = _decode(records.pop(), pairs.pop(), levels)
            out[end - len(built):end] = built
            end -= len(built)
        return out

    def __len__(self) -> int:
        return self._n

    def _same(self, other: "LazyAttempts") -> bool:
        # Identical logs on one ladder build identical records; logs that
        # differ only in fill order build equal ones.
        if self._list is None and other._list is None:
            log, other_log = self._log, other._log
            if (
                self._levels == other._levels
                and log.records == other_log.records
                and log.pairs == other_log.pairs
            ):
                return True
        return self._n == other._n and all(
            map(_eq, self._records(), other._records())
        )


@dataclass
class SimResult:
    """Everything a simulation run produced.

    ``attempts`` and ``summaries`` are plain lists on the scalar engine,
    built as the run goes and when it ends.  A fast-lane result holds a
    :class:`LazyAttempts` and a :class:`LazySummaries` instead.
    :attr:`n_jobs`, :attr:`n_completed`, :meth:`summary_columns` and the
    metrics built on it read the lane's columns, and ``len()``/``bool()``
    of either sequence read the lane's lists.  :meth:`fingerprint` and
    :func:`repro.sim.analysis.tier_utilization` read the attempt log and
    the lane's columns a record at a time and keep nothing.  The
    :class:`AttemptRecord` and :class:`JobSummary` lists are built on the
    first element access or iteration (``for s in result.summaries``,
    ``result.attempts[0]``).  Both kinds compare, fingerprint and pickle
    alike.
    """

    workload_name: str
    cluster_name: str
    estimator_name: str
    policy_name: str
    total_nodes: int
    attempts: Sequence[AttemptRecord]
    summaries: Sequence[JobSummary]
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
        summaries = self.summaries
        if isinstance(summaries, LazySummaries):
            return summaries.n_completed()
        return sum(1 for s in summaries if s.completed)

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
        after the run).  A lazy sequence supplies them from its columns; a
        list pays one pass per column."""
        if self._summary_columns is None:
            summaries = self.summaries
            if isinstance(summaries, LazySummaries):
                self._summary_columns = summaries.columns()
            else:
                n = len(summaries)
                jobs = list(map(_JOB, summaries))
                self._summary_columns = SummaryColumns(
                    completed=np.fromiter(
                        map(_COMPLETED, summaries), dtype=bool, count=n
                    ),
                    first_submit=np.fromiter(
                        map(_FIRST_SUBMIT, summaries), dtype=np.float64, count=n
                    ),
                    end_time=np.fromiter(
                        map(_END_TIME, summaries), dtype=np.float64, count=n
                    ),
                    run_time=np.fromiter(
                        map(_RUN_TIME, jobs), dtype=np.float64, count=n
                    ),
                    procs=np.fromiter(
                        map(_PROCS, jobs), dtype=np.int64, count=n
                    ),
                )
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
        for a in iter_records(self.attempts):
            put(
                "attempt",
                a.job_id,
                a.attempt,
                a.submit_time,
                a.start_time,
                a.end_time,
                a.procs,
                a.requirement,
                a.granted,
                a.succeeded,
                a.resource_failure,
                a.reduced,
                a.allocation,
            )
        summaries = self.summaries
        if isinstance(summaries, LazySummaries) and not summaries.built():
            for row in summaries.id_rows():
                put("summary", *row)
        else:
            for s in summaries:
                put(
                    "summary",
                    s.job.job_id,
                    s.first_submit,
                    s.start_time,
                    s.end_time,
                    s.n_attempts,
                    s.n_resource_failures,
                    s.completed,
                    s.final_requirement,
                    s.final_granted,
                    s.reduced,
                    s.wasted_node_seconds,
                )
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
