"""Zero-copy fan-out of base workloads to pool workers.

A sweep's specs overwhelmingly share one base trace (every load point of a
Figure 5/6/8 grid scales the *same* parsed workload), yet historically every
pool worker re-generated or re-parsed that trace for itself — identical
bytes, materialized once per process.  This module ships the parent's parsed
:class:`~repro.workload.columns.JobColumns` to the workers instead:

* the parent packs the columns into one ``multiprocessing.shared_memory``
  segment per distinct base (:class:`SharedBaseStore`), and
* each worker re-opens the segment and wraps **read-only zero-copy views**
  back into a :class:`~repro.workload.job.Workload`
  (:meth:`ColumnsHandle.attach`) — no parse, no generation, no per-worker
  copy of the trace.

When shared memory is unavailable (no ``/dev/shm``, restricted sandboxes),
the handle degrades to carrying the columns *inline*: they then travel to
the workers through ordinary pickling of the pool-initializer arguments
(numpy arrays pickle via protocol-5 buffers), which costs a per-worker copy
but preserves exact semantics — the attached workload is bit-identical
either way.

Lifecycle: the parent owns every segment.  :class:`SharedBaseStore` keeps
the create-side :class:`SharedMemory` objects alive while the pool runs and
unlinks them in ``close()`` — which the sweep executor calls from a
``finally`` block, so segments are reclaimed even when workers are
SIGKILLed mid-run or the sweep itself raises.  Workers keep their attached
segments open for the life of the process (the numpy views alias the
mapping); attach-side resource-tracker handling is in :func:`_attach_segment`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workload.columns import JobColumns
from repro.workload.job import Workload

logger = logging.getLogger("repro.sweep")

try:  # restricted environments may lack /dev/shm or _multiprocessing
    from multiprocessing import shared_memory as _shared_memory
except Exception:  # pragma: no cover - exercised via monkeypatch in tests
    _shared_memory = None  # type: ignore[assignment]

#: Worker-side keep-alive registry: segment name -> attached SharedMemory.
#: The numpy views handed out by :meth:`ColumnsHandle.attach` alias the
#: segment's mapping, so the mapping must outlive every workload derived
#: from it — workers simply never close an attachment.
_ATTACHED: Dict[str, object] = {}


def _attach_segment(name: str):
    """Open an existing segment without double-tracking it for cleanup.

    Python 3.13 grew ``SharedMemory(..., track=False)`` for exactly this.
    On older runtimes attaching re-registers the segment with the resource
    tracker; that is harmless *here* because pool workers share the
    parent's tracker (its registry is a set, so re-registration is
    idempotent and the parent's ``unlink`` clears the single entry) —
    manually unregistering instead would race the parent's unlink and
    KeyError inside the tracker.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        return _shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class ColumnsHandle:
    """Picklable recipe for re-opening one base workload in any process.

    ``kind == "shm"`` names a shared-memory segment holding the packed
    columns (``segment_name``/``n_jobs``); ``kind == "inline"`` carries the
    columns in the handle itself (the pickle fallback).  Either way
    :meth:`attach` rebuilds the exact workload the parent published —
    same doubles, same row order.
    """

    base_key: Tuple
    kind: str  # "shm" | "inline"
    n_jobs: int
    total_nodes: int
    node_mem: float
    workload_name: str
    segment_name: str = ""
    inline: Optional[JobColumns] = None

    def attach(self) -> Workload:
        """The published base workload, as zero-copy views where possible."""
        if self.kind == "inline":
            columns = self.inline
        else:
            segment = _ATTACHED.get(self.segment_name)
            if segment is None:
                segment = _attach_segment(self.segment_name)
                _ATTACHED[self.segment_name] = segment
            columns = JobColumns.from_buffer(segment.buf, self.n_jobs)
        return Workload.from_columns(
            columns,
            total_nodes=self.total_nodes,
            node_mem=self.node_mem,
            name=self.workload_name,
            presorted=True,  # published workloads already hold the invariant
        )


class SharedBaseStore:
    """Parent-side owner of the published segments (create → ... → unlink).

    ``publish`` never raises for lack of shared memory: it degrades to an
    inline handle, logging once.  ``close`` is idempotent and safe to call
    with workers still attached (POSIX keeps the mapping alive until the
    last map drops; ``unlink`` only removes the name).
    """

    def __init__(self) -> None:
        self.handles: List[ColumnsHandle] = []
        self._segments: List[object] = []

    def publish(self, base_key: Tuple, workload: Workload) -> ColumnsHandle:
        columns = workload.as_columns()
        meta = dict(
            base_key=base_key,
            n_jobs=len(columns),
            total_nodes=workload.total_nodes,
            node_mem=workload.node_mem,
            workload_name=workload.name,
        )
        handle: Optional[ColumnsHandle] = None
        if _shared_memory is not None:
            try:
                segment = _shared_memory.SharedMemory(
                    create=True, size=max(columns.nbytes, 1)
                )
                columns.pack_into(segment.buf)
                self._segments.append(segment)
                handle = ColumnsHandle(
                    kind="shm", segment_name=segment.name, **meta
                )
            except Exception as exc:
                logger.warning(
                    "shared memory unavailable (%s); shipping base workload "
                    "columns inline to workers",
                    exc,
                )
        if handle is None:
            handle = ColumnsHandle(kind="inline", inline=columns, **meta)
        self.handles.append(handle)
        return handle

    def segment_names(self) -> List[str]:
        """Names of the live segments (diagnostics / leak tests)."""
        return [segment.name for segment in self._segments]

    def close(self) -> None:
        """Unlink every published segment; idempotent."""
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - close must never mask work
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # already reclaimed (e.g. by the OS)
                pass
            except Exception:  # pragma: no cover
                pass
