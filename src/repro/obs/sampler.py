"""Queue/utilization time-series sampling.

:class:`TimelineSampler` records a
:class:`~repro.sim.records.TimelineSample` (queue length, busy and down
nodes, so fault runs can tell idle capacity from failed capacity) after
every simulation event, off the scheduling-pass hook, and hands the series
to the run's result as ``result.timeline`` — the input of
:func:`repro.sim.analysis.queue_stats`.
"""

from __future__ import annotations

from typing import List

from repro.obs.base import SimObserver
from repro.sim.records import TimelineSample


class TimelineSampler(SimObserver):
    """Records a :class:`TimelineSample` on every scheduling pass, one per
    simulation event, and sets ``result.timeline`` when the run ends.

    Each run starts a fresh series, so one sampler can watch consecutive
    runs.
    """

    def __init__(self) -> None:
        self.samples: List[TimelineSample] = []

    def on_run_start(self, meta) -> None:
        # A new list, not clear(): the last run's result holds the old one.
        self.samples = []

    def on_run_end(self, result) -> None:
        result.timeline = self.samples

    def on_scheduling_pass(self, now, n_started, queue_length, busy_nodes, down_nodes):
        self.samples.append(
            TimelineSample(
                time=now,
                queue_length=queue_length,
                busy_nodes=busy_nodes,
                down_nodes=down_nodes,
            )
        )
