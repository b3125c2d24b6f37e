"""The fast lane's node-fault loop: failures and repairs on the array engine.

A fast lane (:class:`~repro.sim.batch._FastLane`, in any estimation mode)
whose config injects node faults runs :func:`run_faulted` instead of its
fault-free loops, which stay untouched.  The loop replays the scalar
:class:`~repro.sim.engine.Simulation`'s failure process on the lane's
free-count allocation: every draw goes through the same
:class:`~repro.sim.faults.NodeFaultInjector` methods, in the same order,
and every consequence (a killed execution, a node out of service, a
repair, the scheduling pass after each) happens where the scalar engine
makes it happen.  :meth:`_FastLane.run` imports this module only for such
a lane.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from math import isfinite as _isfinite
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.batch import _FastLane


def run_faulted(lane: "_FastLane") -> None:
    """Replay the whole trace through ``lane``, node faults included.

    The lane's heap holds completions (kind 0), repairs (kind 1, payload
    the ladder index) and failures (kind 3), keyed ``(time, kind, seq)``
    as the scalar heap orders them, so an arrival at ``t`` fires after
    every entry below ``(t, 2)``.  The completion of an execution a failure
    killed is skipped, as the scalar engine skips it.  Every failure and
    repair is followed by the policy's pass, as the scalar ``_sched_dirty``
    rule runs one.  The heap drains to empty, so a failure firing after the
    last completion still fails its nodes.
    """
    _FaultedRun(lane).run()


class _FaultedRun:
    """One faulted replay: the fault state the lane's own loops never
    need.  Its results (each failed node's ``(fail time, scheduled repair
    time)`` interval, and the kill count) land on the lane, whose
    ``finish`` reports them."""

    __slots__ = ("lane", "faults", "heap", "down", "cancelled",
                 "arrivals_left")

    def __init__(self, lane: "_FastLane") -> None:
        self.lane = lane
        self.faults = lane.faults
        self.heap = lane.heap
        self.down = [0] * lane.nlev  # nodes out of service per level
        self.cancelled: set = set()  # completions of killed executions
        self.arrivals_left = True

    def run(self) -> None:
        heap = self.heap
        submit = self.lane.trace.submit
        feed = self.lane.feed_arrival
        fire = self._fire
        if submit:
            # The failure process starts with the trace.
            self._schedule_failure(submit[0])
        for i, t in enumerate(submit):
            while heap and (
                heap[0][0] < t or (heap[0][0] == t and heap[0][1] < 2)
            ):
                fire()
            feed(t, i)
        self.arrivals_left = False
        while heap:
            fire()

    def _fire(self) -> None:
        """Handle the heap's next event."""
        lane = self.lane
        heap = self.heap
        event = heap[0]
        kind = event[1]
        if kind == 0:
            if event[2] in self.cancelled:
                _heappop(heap)
                self.cancelled.remove(event[2])
            else:
                lane.step()
            return
        _heappop(heap)
        now = event[0]
        if kind == 1:
            j = event[3]
            self.down[j] -= 1
            lane.free[j] += 1
        else:
            self._fail_nodes(now)
        if lane.queue:
            lane.sched(now)

    def _schedule_failure(self, now: float) -> None:
        delay = self.faults.next_failure_delay(self.lane.cluster.total_nodes)
        if _isfinite(delay):
            lane = self.lane
            _heappush(self.heap, (now + delay, 3, lane.seq))
            lane.seq += 1

    def _fail_nodes(self, now: float) -> None:
        """The scalar ``_on_node_failure``: take each victim node out of
        service, killing the execution on it when it is busy, and keep the
        failure process going while work remains."""
        lane = self.lane
        faults = self.faults
        levels = lane.levels
        totals = lane.totals
        down = self.down
        free = lane.free
        for _ in range(faults.n_victims()):
            level = faults.choose_level(
                {lvl: totals[j] - down[j] for j, lvl in enumerate(levels)}
            )
            if level is None:
                break  # every node is already down
            j = levels.index(level)
            if faults.victim_is_busy(free[j], totals[j] - down[j]):
                self._kill(now, j)
            free[j] -= 1
            down[j] += 1
            repair = faults.repair_delay()
            lane.down_intervals.append((now, now + repair))
            _heappush(self.heap, (now + repair, 1, lane.seq, j))
            lane.seq += 1
        if self.arrivals_left or lane.running or lane.queue:
            self._schedule_failure(now)

    def _kill(self, now: float, j: int) -> None:
        """The scalar ``_kill_execution_at_level``: end one execution
        holding a node at ladder index ``j`` as a failed attempt that is
        not resource-related, and requeue its job at the head."""
        lane = self.lane
        holders = []
        weights = []
        for seq, rec in lane.running.items():
            for k, take in rec[1]:
                if k == j:
                    holders.append(seq)
                    weights.append(take)
                    break
        seq = holders[self.faults.pick_victim(weights)]
        (_end, _kind, _seq, i, attempt, requirement, enqueue_time, start,
         granted, counts, _succeeded, _resource) = lane.running.pop(seq)[3]
        self.cancelled.add(seq)
        free = lane.free
        for k, take in counts:
            free[k] += take
        procs = lane.c_procs[i]
        node_seconds = (now - start) * procs
        if lane.collect:
            lane.log.append(
                (lane.c_job_id[i], attempt, enqueue_time, start, now, procs,
                 requirement, granted, False, False,
                 requirement < lane.c_req_mem[i]),
                counts,
            )
        if now > lane.t_last_end:
            lane.t_last_end = now
        if not lane.mode_none:
            lane._observe(i, attempt, False, requirement, granted)
        lane.n_kills += 1
        lane.wasted_job[i] += node_seconds
        lane.wasted += node_seconds
        lane._requeue_failed(now, i, attempt + 1)
