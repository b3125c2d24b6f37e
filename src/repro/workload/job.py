"""The :class:`Job` record and :class:`Workload` container.

A job is a parallel program occupying ``procs`` nodes for ``run_time``
seconds.  Each record carries the two memory figures the paper contrasts:

* ``req_mem`` — per-node memory capacity the **user requested** (what a
  conventional matcher must satisfy), and
* ``used_mem`` — per-node memory the job **actually used** (what the job
  really needed to complete).

The paper's standing assumption (§1.3) is ``used_mem <= req_mem``: requests
are never *under*-provisioned, only over-provisioned.  The record does not
enforce this so that real traces with noisy accounting can still be loaded;
:func:`Workload.overprovisioning_ratios` clips at 1 from below.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.util.validation import check_non_negative, check_positive
from repro.workload.columns import JobColumns

_JobBase = namedtuple(
    "Job",
    (
        "job_id",
        "submit_time",
        "run_time",
        "procs",
        "req_mem",
        "used_mem",
        "req_time",
        "user_id",
        "group_id",
        "app_id",
        "status",
    ),
    defaults=(-1.0, -1, -1, -1, 1),
)


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is a Python or
    NumPy integer (``bool`` is refused: ``True`` is no job count)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


class Job(_JobBase):
    """One job submission, SWF-field-compatible.

    A validated ``namedtuple`` rather than a frozen dataclass: the engine
    and the columnar pipeline materialize tens of thousands per run, and a
    tuple of plain scalars skips both the per-field ``object.__setattr__``
    cost and — since it carries no ``__dict__`` and references no
    containers — gets untracked by the cyclic garbage collector, which
    otherwise re-traverses every live job on each collection of the event
    loop's allocations.  Keyword construction, field access, equality and
    ``repr`` are unchanged.  ``Job(...)`` (and ``_replace``) validates and
    stores the times and memory sizes as ``float`` and the ids and counts
    as ``int``, as a columnar trace decodes them, so a hand-built list of
    ints runs like its columnar twin (and takes the fast lane, which
    assumes floats).  An id or count that is not an integer (``2.5``,
    ``True``) raises ``ValueError`` rather than reach the int64 columns
    truncated.  The bulk path
    (:meth:`repro.workload.columns.JobColumns.to_jobs`) goes through the
    inherited ``Job._make``, which trusts its already-validated input.

    Attributes
    ----------
    job_id:
        Unique identifier within the trace (SWF field 1).
    submit_time:
        Arrival time in seconds from trace start (SWF field 2).
    run_time:
        Actual execution time in seconds when run to completion (SWF field 4).
    procs:
        Number of nodes the job occupies (SWF fields 5/8; the paper does not
        model over-provisioning of node counts, so requested == used here).
    req_mem:
        Requested memory per node, MB (SWF field 10, converted from KB).
    used_mem:
        Actually used memory per node, MB (SWF field 7, converted from KB).
    req_time:
        User's runtime estimate in seconds (SWF field 9); used by backfilling.
    user_id / group_id / app_id:
        Numeric identity fields (SWF fields 12/13/14).  ``(user_id, app_id,
        req_mem)`` is the paper's similarity key for the LANL CM5 trace.
    status:
        SWF completion status of the *original* execution (1 = completed).
    """

    __slots__ = ()

    def __new__(
        cls,
        job_id: int,
        submit_time: float,
        run_time: float,
        procs: int,
        req_mem: float,
        used_mem: float,
        req_time: float = -1.0,
        user_id: int = -1,
        group_id: int = -1,
        app_id: int = -1,
        status: int = 1,
    ) -> "Job":
        job_id = _integer("job_id", job_id)
        check_non_negative("submit_time", submit_time)
        check_positive("run_time", run_time)
        procs = _integer("procs", procs)
        if procs <= 0:
            raise ValueError(f"procs must be a positive integer, got {procs!r}")
        check_positive("req_mem", req_mem)
        check_positive("used_mem", used_mem)
        return _JobBase.__new__(
            cls,
            job_id,
            float(submit_time),
            float(run_time),
            procs,
            float(req_mem),
            float(used_mem),
            float(req_time),
            _integer("user_id", user_id),
            _integer("group_id", group_id),
            _integer("app_id", app_id),
            _integer("status", status),
        )

    @property
    def overprovisioning_ratio(self) -> float:
        """Requested-to-used memory ratio (>= 1 when the paper's assumption holds)."""
        return self.req_mem / self.used_mem

    @property
    def work(self) -> float:
        """Node-seconds of useful work this job represents."""
        return self.run_time * self.procs

    @property
    def runtime_estimate(self) -> float:
        """Runtime bound available to the scheduler (req_time, else run_time)."""
        return self.req_time if self.req_time > 0 else self.run_time

    def _replace(self, **changes) -> "Job":
        """Copy with ``changes``, validated and stored like ``Job(...)``."""
        return type(self)(**{**self._asdict(), **changes})

    def with_submit_time(self, submit_time: float) -> "Job":
        """Copy of this job arriving at a different time."""
        return self._replace(submit_time=submit_time)


class LazyJobs(_SequenceABC):
    """A workload's jobs: a view over its :class:`JobColumns` that keeps none.

    Every :class:`Workload` holds one of these, so a sweep's parent process
    can parse, scale, sort and ship a trace without constructing a single
    :class:`Job`.  An index builds that one row's job, a slice the slice's
    jobs, and iteration builds them a :meth:`JobColumns.iter_jobs` block at
    a time; nothing built is kept, so every pass over the view builds its
    jobs again.  A consumer that walks a trace more than once reads
    :meth:`Workload.as_columns` instead.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: JobColumns) -> None:
        self._columns = columns

    @property
    def columns(self) -> JobColumns:
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Job]:
        return self._columns.iter_jobs()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._columns.select(index).to_jobs()
        # NumPy raises IndexError for a row out of range.
        return self._columns.select([operator.index(index)]).to_jobs()[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyJobs):
            return self._columns.equals(other._columns)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"LazyJobs({len(self)} jobs)"

    def __reduce__(self):
        return (LazyJobs, (self._columns,))


@dataclass
class Workload:
    """An ordered collection of jobs plus the machine context they came from.

    ``total_nodes`` and ``node_mem`` describe the *original* system the trace
    was recorded on (for LANL CM5: 1024 nodes x 32 MB) — needed to reason
    about full-machine jobs and offered load.

    The trace is its :class:`JobColumns`, ordered by ``(submit_time,
    job_id)``; :attr:`jobs` is a :class:`LazyJobs` view over them.
    ``Workload(jobs)`` converts a job list once
    (:meth:`JobColumns.from_jobs`, then the sort); :meth:`from_columns`
    wraps columns.  Bulk analyses and transforms read :meth:`as_columns`;
    the engines build each :class:`Job` as they reach it
    (:meth:`iter_jobs`).

    Job ids must be unique: the engines key per-job state by id, so a
    repeated id raises ``ValueError``.
    """

    #: Any sequence of jobs on construction; a :class:`LazyJobs` view after.
    jobs: Sequence[Job]
    total_nodes: int = 0
    node_mem: float = 0.0
    name: str = "unnamed"

    def __post_init__(self) -> None:
        if not isinstance(self.jobs, LazyJobs):
            columns = JobColumns.from_jobs(list(self.jobs)).sort_by_submit()
            self.jobs = LazyJobs(columns)
        # Sorted neighbours: a tenth of np.unique's cost on 20k ids.
        ids = np.sort(self.jobs.columns.job_id)
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise ValueError(f"job id {repeated[0]} appears more than once")

    @staticmethod
    def from_columns(
        columns: JobColumns,
        total_nodes: int = 0,
        node_mem: float = 0.0,
        name: str = "unnamed",
        presorted: bool = False,
    ) -> "Workload":
        """Workload over a columnar trace.

        ``presorted=True`` skips the ``(submit_time, job_id)`` sort when the
        caller guarantees the invariant (e.g. columns attached from a peer
        that already sorted them).
        """
        if not presorted:
            columns = columns.sort_by_submit()
        return Workload(
            LazyJobs(columns),
            total_nodes=total_nodes,
            node_mem=node_mem,
            name=name,
        )

    def as_columns(self) -> JobColumns:
        """This workload's :class:`JobColumns`, in workload order."""
        return self.jobs.columns

    def iter_jobs(self, rows: Optional[Sequence[int]] = None) -> Iterator[Job]:
        """The jobs at ``rows`` (every row by default), in that order,
        built from the columns a block at a time
        (:meth:`JobColumns.iter_jobs`)."""
        return self.jobs.columns.iter_jobs(rows)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, idx: int) -> Job:
        return self.jobs[idx]

    @property
    def span(self) -> float:
        """Seconds from first submission to last submission."""
        s = self.as_columns().submit_time
        if len(s) == 0:
            return 0.0
        return float(s[-1]) - float(s[0])

    @property
    def total_work(self) -> float:
        """Sum of node-seconds across all jobs."""
        cols = self.as_columns()
        # Left to right in row order, as summing each Job.work would (a
        # pairwise np.sum differs in the last bits and moves load scaling).
        return float(sum((cols.run_time * cols.procs).tolist()))

    def overprovisioning_ratios(self) -> np.ndarray:
        """Per-job requested/used memory ratios, clipped at 1 from below."""
        cols = self.as_columns()
        return np.maximum(cols.req_mem / cols.used_mem, 1.0)

    def column(self, attr: str) -> np.ndarray:
        """A copy of one job column (a :data:`COLUMN_FIELDS` name)."""
        return np.array(getattr(self.as_columns(), attr))


def validate_overprovisioning_assumption(jobs: Sequence[Job]) -> List[Job]:
    """Return the jobs violating the paper's ``used <= requested`` assumption.

    Real traces occasionally record usage above the request (accounting noise,
    shared pages).  The estimators tolerate such jobs but will never reduce
    their allocation below the request, so callers may wish to audit them.
    """
    return [j for j in jobs if j.used_mem > j.req_mem]
