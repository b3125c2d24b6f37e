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

from collections import Counter, namedtuple
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

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


class Job(_JobBase):
    """One job submission, SWF-field-compatible.

    A validated ``namedtuple`` rather than a frozen dataclass: the engine
    and the columnar pipeline materialize tens of thousands per run, and a
    tuple of plain scalars skips both the per-field ``object.__setattr__``
    cost and — since it carries no ``__dict__`` and references no
    containers — gets untracked by the cyclic garbage collector, which
    otherwise re-traverses every live job on each collection of the event
    loop's allocations.  Keyword construction, field access, equality and
    ``repr`` are unchanged.  ``Job(...)`` validates; the bulk path
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
        check_non_negative("submit_time", submit_time)
        check_positive("run_time", run_time)
        if procs <= 0:
            raise ValueError(f"procs must be a positive integer, got {procs!r}")
        check_positive("req_mem", req_mem)
        check_positive("used_mem", used_mem)
        return _JobBase.__new__(
            cls,
            job_id,
            submit_time,
            run_time,
            procs,
            req_mem,
            used_mem,
            req_time,
            user_id,
            group_id,
            app_id,
            status,
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

    def with_submit_time(self, submit_time: float) -> "Job":
        """Copy of this job arriving at a different time."""
        check_non_negative("submit_time", submit_time)
        return self._replace(submit_time=submit_time)


class LazyJobs(_SequenceABC):
    """A job list that exists as :class:`JobColumns` until someone looks.

    :class:`Workload` built from columns holds one of these instead of a
    materialized list, so the parent process of a sweep can parse, scale,
    sort and ship a trace without ever constructing a single :class:`Job`;
    the first consumer that actually iterates (the simulation engine) pays
    one bulk :meth:`JobColumns.to_jobs` materialization.
    """

    __slots__ = ("_columns", "_jobs")

    def __init__(self, columns: JobColumns) -> None:
        self._columns = columns
        self._jobs: Optional[List[Job]] = None

    @property
    def columns(self) -> JobColumns:
        return self._columns

    def materialized(self) -> bool:
        return self._jobs is not None

    def release(self) -> None:
        """Drop the materialized job list; views rebuild it on demand.

        The columns stay, so this trades a cheap re-materialization on next
        access for reclaiming the per-object memory — the sweep workers call
        this between runs to keep at most one trace's objects live.
        """
        self._jobs = None

    def _materialize(self) -> List[Job]:
        if self._jobs is None:
            self._jobs = self._columns.to_jobs()
        return self._jobs

    def __len__(self) -> int:
        return len(self._columns)

    def __bool__(self) -> bool:
        return len(self._columns) > 0

    def __iter__(self) -> Iterator[Job]:
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyJobs):
            return self._materialize() == other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        state = "materialized" if self._jobs is not None else "lazy"
        return f"LazyJobs({len(self)} jobs, {state})"

    def __reduce__(self):
        return (LazyJobs, (self._columns,))


@dataclass
class Workload:
    """An ordered collection of jobs plus the machine context they came from.

    ``total_nodes`` and ``node_mem`` describe the *original* system the trace
    was recorded on (for LANL CM5: 1024 nodes x 32 MB) — needed to reason
    about full-machine jobs and offered load.

    Two interchangeable backings: a plain job list (sorted on construction,
    as always), or — via :meth:`from_columns` — a :class:`JobColumns` block
    whose :class:`Job` views materialize lazily on first iteration.  All
    consumers see the same sorted job sequence either way; bulk analyses
    and transforms use :meth:`as_columns` to stay vectorized.

    Job ids must be unique: the engines key per-job state by id, so a
    repeated id raises ``ValueError`` with either backing.
    """

    jobs: Union[List[Job], LazyJobs]
    total_nodes: int = 0
    node_mem: float = 0.0
    name: str = "unnamed"
    #: Columnar backing, when known.  Lazily derived by :meth:`as_columns`;
    #: presentation/caching detail, excluded from equality.
    _columns: Optional[JobColumns] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if isinstance(self.jobs, LazyJobs):
            # Columns are sorted by from_columns before the view is built.
            if self._columns is None:
                self._columns = self.jobs.columns
            # Sorted neighbours: a tenth of np.unique's cost on 20k ids.
            ids = np.sort(self._columns.job_id)
            repeated = ids[1:][ids[1:] == ids[:-1]]
            if repeated.size:
                raise ValueError(f"job id {repeated[0]} appears more than once")
            return
        self.jobs = sorted(self.jobs, key=lambda j: (j.submit_time, j.job_id))
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            repeated = next(i for i, n in Counter(ids).items() if n > 1)
            raise ValueError(f"job id {repeated} appears more than once")

    @staticmethod
    def from_columns(
        columns: JobColumns,
        total_nodes: int = 0,
        node_mem: float = 0.0,
        name: str = "unnamed",
        presorted: bool = False,
    ) -> "Workload":
        """Workload over a columnar trace; jobs materialize lazily.

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
            _columns=columns,
        )

    def as_columns(self) -> JobColumns:
        """This workload as :class:`JobColumns` (computed once, then cached)."""
        if self._columns is None:
            self._columns = JobColumns.from_jobs(self.jobs)
        return self._columns

    def release_materialized(self) -> None:
        """Reclaim lazily-materialized :class:`Job` objects, if any.

        No-op for list-backed workloads (the list *is* the data); for a
        columnar workload this drops only the derived per-job objects —
        they rebuild bit-identically from the columns on next access.
        """
        if isinstance(self.jobs, LazyJobs):
            self.jobs.release()

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, idx: int) -> Job:
        return self.jobs[idx]

    @property
    def span(self) -> float:
        """Seconds from first submission to last submission."""
        if self._columns is not None:
            if len(self._columns) == 0:
                return 0.0
            s = self._columns.submit_time
            return float(s[-1]) - float(s[0])
        if not self.jobs:
            return 0.0
        return self.jobs[-1].submit_time - self.jobs[0].submit_time

    @property
    def total_work(self) -> float:
        """Sum of node-seconds across all jobs."""
        if self._columns is not None:
            # Same left-to-right accumulation as the object path (pairwise
            # np.sum would differ in the last bits and perturb load scaling).
            return float(
                sum((self._columns.run_time * self._columns.procs).tolist())
            )
        return float(sum(j.work for j in self.jobs))

    def filter(self, predicate: Callable[[Job], bool], name: Optional[str] = None) -> "Workload":
        """New workload containing only jobs satisfying ``predicate``."""
        return Workload(
            [j for j in self.jobs if predicate(j)],
            total_nodes=self.total_nodes,
            node_mem=self.node_mem,
            name=name or self.name,
        )

    def map(self, fn: Callable[[Job], Job], name: Optional[str] = None) -> "Workload":
        """New workload with ``fn`` applied to every job."""
        return Workload(
            [fn(j) for j in self.jobs],
            total_nodes=self.total_nodes,
            node_mem=self.node_mem,
            name=name or self.name,
        )

    def overprovisioning_ratios(self) -> np.ndarray:
        """Per-job requested/used memory ratios, clipped at 1 from below."""
        cols = self.as_columns()
        return np.maximum(cols.req_mem / cols.used_mem, 1.0)

    def column(self, attr: str) -> np.ndarray:
        """Extract one job attribute as a NumPy array (vectorized analyses)."""
        if self._columns is not None and hasattr(self._columns, attr):
            return np.array(getattr(self._columns, attr))
        return np.array([getattr(j, attr) for j in self.jobs])

    @staticmethod
    def from_jobs(
        jobs: Iterable[Job],
        total_nodes: int = 0,
        node_mem: float = 0.0,
        name: str = "unnamed",
    ) -> "Workload":
        return Workload(list(jobs), total_nodes=total_nodes, node_mem=node_mem, name=name)


def validate_overprovisioning_assumption(jobs: Sequence[Job]) -> List[Job]:
    """Return the jobs violating the paper's ``used <= requested`` assumption.

    Real traces occasionally record usage above the request (accounting noise,
    shared pages).  The estimators tolerate such jobs but will never reduce
    their allocation below the request, so callers may wish to audit them.
    """
    return [j for j in jobs if j.used_mem > j.req_mem]
