"""Event queue for the discrete-event engine.

A thin, typed wrapper over :mod:`heapq`.  Ordering: by time, then by event
kind (completions first at the same instant, so freed nodes are visible to a
job arriving at exactly that moment; node repairs next, so restored capacity
is likewise visible; node failures last, so a job completing at exactly the
failure instant completes), then by insertion sequence for determinism.
"""

from __future__ import annotations

import heapq
import math
from enum import IntEnum
from typing import Any, List, Optional, Tuple

import numpy as np


class EventKind(IntEnum):
    """Event types, ordered by same-time priority (lower fires first)."""

    COMPLETION = 0
    NODE_REPAIR = 1
    ARRIVAL = 2
    NODE_FAILURE = 3


#: Index-to-member table: ``_KINDS[kind]`` avoids the ``EventKind(...)``
#: lookup-by-value call on every pop (the engine pops once per event).
_KINDS: Tuple[EventKind, ...] = tuple(EventKind)


class EventQueue:
    """A deterministic time/priority-ordered event heap."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0

    def push(self, time: float, kind: EventKind, payload: Any) -> None:
        """Schedule ``payload`` to fire at ``time``."""
        if not math.isfinite(time):  # NaN or either infinity
            raise ValueError(f"event time must be finite, got {time!r}")
        heapq.heappush(self._heap, (time, int(kind), self._seq, payload))
        self._seq += 1

    @property
    def raw_heap(self) -> List[Tuple[float, int, int, Any]]:
        """The underlying heap list, for zero-overhead draining.

        The engine's event loop pops one entry per simulated event; going
        through :meth:`pop` costs a method call and an enum conversion per
        event.  Callers draining via ``heapq.heappop(queue.raw_heap)`` get
        ``(time, int(kind), seq, payload)`` entries and must not mutate the
        list in any other way.
        """
        return self._heap

    def pop(self) -> Tuple[float, EventKind, Any]:
        """Remove and return the next ``(time, kind, payload)``."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time, kind, _seq, payload = heapq.heappop(self._heap)
        return time, _KINDS[kind], payload

    def peek_time(self) -> Optional[float]:
        """Time of the next event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def check_arrival_times(submit_time: np.ndarray) -> None:
    """Refuse a trace whose arrival times are not all finite, with
    :meth:`EventQueue.push`'s error for the first such row.

    Every engine calls this before its first event, so a trace is refused
    the same way whether or not the bad job would ever start (a rejected
    job never does), and before any observer hears of an arrival.
    """
    finite = np.isfinite(submit_time)
    if not finite.all():
        bad = submit_time[int(np.argmin(finite))].item()
        raise ValueError(f"event time must be finite, got {bad!r}")
