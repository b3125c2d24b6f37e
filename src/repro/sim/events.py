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
from typing import Any, List, Tuple

import numpy as np


class EventKind(IntEnum):
    """Event types, ordered by same-time priority (lower fires first)."""

    COMPLETION = 0
    NODE_REPAIR = 1
    ARRIVAL = 2
    NODE_FAILURE = 3


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

        The engine's event loop pops one entry per simulated event with
        ``heapq.heappop(queue.raw_heap)``, getting ``(time, int(kind), seq,
        payload)`` entries; callers must not mutate the list in any other
        way.
        """
        return self._heap


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
