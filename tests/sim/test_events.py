"""Event queue ordering.

The engine drains the queue with ``heapq.heappop(queue.raw_heap)``, so the
tests do the same: each popped entry is ``(time, int(kind), seq, payload)``.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import EventKind, EventQueue


def pop(q):
    """Next ``(time, kind, payload)``, popped the way the engine pops."""
    time, kind, _seq, payload = heapq.heappop(q.raw_heap)
    return time, EventKind(kind), payload


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "b")
        q.push(1.0, EventKind.ARRIVAL, "a")
        assert pop(q)[2] == "a"
        assert pop(q)[2] == "b"

    def test_completions_before_arrivals_at_same_time(self):
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "arrive")
        q.push(5.0, EventKind.COMPLETION, "complete")
        assert pop(q)[1] is EventKind.COMPLETION
        assert pop(q)[1] is EventKind.ARRIVAL

    def test_insertion_order_breaks_remaining_ties(self):
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "first")
        q.push(5.0, EventKind.ARRIVAL, "second")
        assert pop(q)[2] == "first"
        assert pop(q)[2] == "second"

    def test_peek_time(self):
        q = EventQueue()
        assert q.raw_heap == []
        q.push(3.0, EventKind.ARRIVAL, None)
        assert q.raw_heap[0][0] == 3.0
        assert len(q.raw_heap) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            pop(EventQueue())

    def test_invalid_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(float("nan"), EventKind.ARRIVAL, None)
        with pytest.raises(ValueError):
            q.push(float("inf"), EventKind.ARRIVAL, None)
        with pytest.raises(ValueError):
            # Regression: the old guard compared against +inf only and let
            # -inf through to corrupt the heap ordering.
            q.push(float("-inf"), EventKind.ARRIVAL, None)
        assert q.raw_heap == []

    def test_bool(self):
        q = EventQueue()
        assert not q.raw_heap
        q.push(0.0, EventKind.ARRIVAL, None)
        assert q.raw_heap

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.sampled_from([EventKind.ARRIVAL, EventKind.COMPLETION]),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_pop_order_is_nondecreasing(self, events):
        q = EventQueue()
        for t, kind in events:
            q.push(t, kind, None)
        times = []
        while q.raw_heap:
            times.append(pop(q)[0])
        assert times == sorted(times)
