"""Columnar storage for parsed workloads: one numpy array per job field.

The object-per-job representation (:class:`repro.workload.job.Job`) is what
the simulation engine consumes, but it is the wrong shape for the data
plane around it: parsing, load scaling, sorting, and cross-process shipping
all touch *every* job, and paying a Python object per touch is what caps
trace sizes well below production scale (see ROADMAP.md).
:class:`JobColumns` holds the same records as eleven parallel numpy arrays
— submit/run/procs/requested-mem/used-mem/identity — so those bulk
operations become single vectorized passes, and a whole trace can be
shipped to pool workers as one buffer (see :mod:`repro.experiments.shm`).

The two representations are exactly interconvertible: :meth:`from_jobs` /
:meth:`to_jobs` round-trip bit-identically (every float is stored as the
same IEEE-754 double it had on the object), which is what lets the columnar
pipeline sit behind the engine-fingerprint regression gate
(``tests/sim/test_engine_fingerprints.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (job.py imports us)
    from repro.workload.job import Job

#: Field name -> dtype, in :class:`repro.workload.job.Job` field order.
#: int64/float64 mirror what ``np.array`` infers from the Python scalars on
#: the object path, so either construction route yields identical arrays.
COLUMN_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("job_id", "int64"),
    ("submit_time", "float64"),
    ("run_time", "float64"),
    ("procs", "int64"),
    ("req_mem", "float64"),
    ("used_mem", "float64"),
    ("req_time", "float64"),
    ("user_id", "int64"),
    ("group_id", "int64"),
    ("app_id", "int64"),
    ("status", "int64"),
)

#: Rows per block when :meth:`JobColumns.iter_jobs` builds :class:`Job`
#: objects, so a pass over a whole trace holds one block's jobs at a time.
_JOB_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class JobColumns:
    """One parsed trace as parallel numpy arrays (one row per job).

    Arrays are taken as given (no defensive copies): treat instances as
    immutable.  Arrays attached from shared memory are read-only views, so
    mutation of a shared trace fails loudly rather than corrupting peers.
    """

    job_id: np.ndarray
    submit_time: np.ndarray
    run_time: np.ndarray
    procs: np.ndarray
    req_mem: np.ndarray
    used_mem: np.ndarray
    req_time: np.ndarray
    user_id: np.ndarray
    group_id: np.ndarray
    app_id: np.ndarray
    status: np.ndarray

    def __post_init__(self) -> None:
        n = self.job_id.shape[0] if self.job_id.ndim else -1
        for name, dtype in COLUMN_FIELDS:
            arr = getattr(self, name)
            if arr.ndim != 1 or arr.shape[0] != n:
                raise ValueError(
                    f"column {name!r} must be 1-D of length {n}, "
                    f"got shape {arr.shape}"
                )
            if arr.dtype != np.dtype(dtype):
                object.__setattr__(self, name, arr.astype(dtype))

    def __len__(self) -> int:
        return int(self.job_id.shape[0])

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name, _ in COLUMN_FIELDS)

    # ------------------------------------------------------------ validation
    def validate(self) -> "JobColumns":
        """Vectorized mirror of ``Job.__new__``'s per-field checks.

        Raises :class:`ValueError` naming the first offending row, so a bad
        trace fails the same way whether it was built row-by-row or in bulk.

        Non-finite floats are rejected explicitly: a NaN passes every
        ``<= 0`` comparison below (NaN compares False), but the SWF parser
        drops non-finite rows (``swf.py``), so a NaN-bearing column here is
        always a construction bug, never trace data.
        """
        for name in ("submit_time", "run_time", "req_mem", "used_mem", "req_time"):
            arr = getattr(self, name)
            finite = np.isfinite(arr)
            if not finite.all():
                i = int(np.argmax(~finite))
                raise ValueError(
                    f"{name} must be finite, got {arr[i]!r} (row {i}, "
                    f"job_id {int(self.job_id[i])})"
                )
        checks = (
            ("submit_time", self.submit_time < 0, ">= 0"),
            ("run_time", self.run_time <= 0, "> 0"),
            ("procs", self.procs <= 0, "> 0"),
            ("req_mem", self.req_mem <= 0, "> 0"),
            ("used_mem", self.used_mem <= 0, "> 0"),
        )
        for name, bad, rule in checks:
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"{name} must be {rule}, got "
                    f"{getattr(self, name)[i]!r} (row {i}, "
                    f"job_id {int(self.job_id[i])})"
                )
        return self

    # ------------------------------------------------------------ reshaping
    def is_sorted(self) -> bool:
        """True when rows are ordered by ``(submit_time, job_id)``."""
        if len(self) < 2:
            return True
        s, j = self.submit_time, self.job_id
        earlier = s[:-1] < s[1:]
        tied = (s[:-1] == s[1:]) & (j[:-1] < j[1:])
        return bool((earlier | tied).all())

    def sort_by_submit(self) -> "JobColumns":
        """Rows ordered by ``(submit_time, job_id)`` — the :class:`Workload`
        invariant.  Returns ``self`` when already in order."""
        if self.is_sorted():
            return self
        order = np.lexsort((self.job_id, self.submit_time))
        return self.select(order)

    def select(self, index: np.ndarray) -> "JobColumns":
        """Rows at ``index`` (a boolean mask or integer index array)."""
        return JobColumns(
            **{name: getattr(self, name)[index] for name, _ in COLUMN_FIELDS}
        )

    def head(self, n: int) -> "JobColumns":
        return JobColumns(
            **{name: getattr(self, name)[:n] for name, _ in COLUMN_FIELDS}
        )

    def with_submit_time(self, submit_time: np.ndarray) -> "JobColumns":
        """Copy with a replacement ``submit_time`` column."""
        fields = {name: getattr(self, name) for name, _ in COLUMN_FIELDS}
        fields["submit_time"] = np.asarray(submit_time, dtype=np.float64)
        return JobColumns(**fields)

    # ------------------------------------------------------- object interop
    @staticmethod
    def from_jobs(jobs: Sequence["Job"]) -> "JobColumns":
        """Columns from a job sequence (row order preserved).

        One ``zip(*jobs)`` transposes the rows; each column is then one
        ``np.array`` pass, which stores every float as the same double.
        """
        fields = list(zip(*jobs)) or [()] * len(COLUMN_FIELDS)
        return JobColumns(
            **{
                name: np.array(values, dtype=dtype)
                for (name, dtype), values in zip(COLUMN_FIELDS, fields)
            }
        )

    def to_jobs(self) -> List["Job"]:
        """Materialize :class:`Job` records, bulk and unvalidated.

        ``tolist()`` converts each column to Python scalars in one C pass
        (so every float is the exact double stored in the array), and
        ``Job._make`` builds the tuples without re-running per-field
        validation — the columns were validated (or round-tripped from
        already-validated jobs) when they were built.
        """
        from repro.workload.job import Job

        make = Job._make
        return [
            make(row)
            for row in zip(
                self.job_id.tolist(),
                self.submit_time.tolist(),
                self.run_time.tolist(),
                self.procs.tolist(),
                self.req_mem.tolist(),
                self.used_mem.tolist(),
                self.req_time.tolist(),
                self.user_id.tolist(),
                self.group_id.tolist(),
                self.app_id.tolist(),
                self.status.tolist(),
            )
        ]

    def iter_jobs(self, rows: Optional[Sequence[int]] = None) -> Iterator["Job"]:
        """The :class:`Job` records at ``rows`` (every row by default), in
        that order, built :data:`_JOB_CHUNK` rows at a time.

        Each job holds the doubles :meth:`to_jobs` would put in it, but no
        list of the whole trace exists: a consumer that drops each job
        after use keeps at most one block alive.
        """
        n = len(self) if rows is None else len(rows)
        for lo in range(0, n, _JOB_CHUNK):
            hi = min(lo + _JOB_CHUNK, n)
            index = (
                slice(lo, hi) if rows is None
                else np.asarray(rows[lo:hi], dtype=np.intp)
            )
            yield from self.select(index).to_jobs()

    def equals(self, other: "JobColumns") -> bool:
        """Exact (bitwise) equality of every column."""
        return len(self) == len(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in COLUMN_FIELDS
        )

    # ------------------------------------------------------- flat buffers
    def pack_into(self, buf: memoryview) -> None:
        """Copy every column into ``buf`` back-to-back, in field order."""
        offset = 0
        for name, _ in COLUMN_FIELDS:
            arr = getattr(self, name)
            n = arr.nbytes
            buf[offset : offset + n] = arr.tobytes()
            offset += n

    @staticmethod
    def from_buffer(buf, n: int) -> "JobColumns":
        """Columns as zero-copy, read-only views into a packed buffer.

        Inverse of :meth:`pack_into`.  The caller owns ``buf`` (e.g. a
        shared-memory segment) and must keep it alive for the lifetime of
        the returned columns.
        """
        cols = {}
        offset = 0
        for name, dtype in COLUMN_FIELDS:
            arr = np.frombuffer(buf, dtype=dtype, count=n, offset=offset)
            arr.flags.writeable = False
            cols[name] = arr
            offset += arr.nbytes
        return JobColumns(**cols)
