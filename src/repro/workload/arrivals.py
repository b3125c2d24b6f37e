"""Arrival-process models: re-time a workload's submissions.

The synthetic generator clusters each similarity group's submissions inside
an activity window (resubmission behaviour).  For sensitivity studies it is
useful to impose other arrival processes on the *same* job population:

* :func:`retime_poisson` — memoryless arrivals at a uniform rate over the
  trace duration (the textbook queueing assumption),
* :func:`retime_diurnal` — a non-homogeneous Poisson process with daily and
  weekly cycles, the shape production traces actually have (busy weekday
  daytimes, quiet nights and weekends).

Both preserve job content and count; only submission times (and their
order) change.  Results remain deterministic given a seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.util.rng import RngStream, as_generator
from repro.util.units import SECONDS_PER_DAY
from repro.util.validation import check_in_range, check_positive
from repro.workload.job import Workload


def _reassign_times(workload: Workload, times: np.ndarray, name: str) -> Workload:
    """New workload with sorted ``times`` assigned to the jobs in order.

    Jobs keep their identity; the i-th job (by current submission order)
    receives the i-th smallest new time, preserving any meaning the original
    ordering carried (e.g. group resubmission sequences stay sequences).
    """
    times = np.sort(np.asarray(times, dtype=float))
    jobs = [
        job.with_submit_time(float(t)) for job, t in zip(workload.jobs, times)
    ]
    return Workload(
        jobs, total_nodes=workload.total_nodes, node_mem=workload.node_mem, name=name
    )


def retime_poisson(
    workload: Workload,
    duration: Optional[float] = None,
    rng: RngStream = None,
) -> Workload:
    """Re-time submissions as a homogeneous Poisson process.

    ``duration`` defaults to the workload's current submission span, so the
    offered load is (approximately) preserved.
    """
    if not workload.jobs:
        return workload
    span = duration if duration is not None else max(workload.span, 1.0)
    check_positive("duration", span)
    gen = as_generator(rng)
    # Conditional on N arrivals, Poisson times are iid uniform on [0, span].
    times = gen.uniform(0.0, span, size=len(workload))
    return _reassign_times(workload, times, f"{workload.name}-poisson")


def retime_diurnal(
    workload: Workload,
    duration: Optional[float] = None,
    day_night_ratio: float = 4.0,
    weekend_factor: float = 0.5,
    rng: RngStream = None,
) -> Workload:
    """Re-time submissions with daily and weekly intensity cycles.

    Intensity is piecewise over hours: daytime (8:00-20:00) carries
    ``day_night_ratio`` times the nighttime rate, and weekend days carry
    ``weekend_factor`` times their weekday equivalent.  Sampling is by
    thinning-free inversion: times are drawn uniformly and accepted with
    probability proportional to the intensity at that instant, resampling
    rejected draws (vectorized, a few rounds).
    """
    if not workload.jobs:
        return workload
    span = duration if duration is not None else max(workload.span, 1.0)
    check_positive("duration", span)
    check_positive("day_night_ratio", day_night_ratio)
    check_in_range("weekend_factor", weekend_factor, 0.0, 1.0, low_inclusive=False)
    gen = as_generator(rng)

    def intensity(t: np.ndarray) -> np.ndarray:
        hour = (t % SECONDS_PER_DAY) / 3600.0
        day_of_week = (t // SECONDS_PER_DAY) % 7
        base = np.where((hour >= 8.0) & (hour < 20.0), day_night_ratio, 1.0)
        weekend = np.where(day_of_week >= 5, weekend_factor, 1.0)
        return base * weekend

    peak = day_night_ratio  # max of the intensity function
    needed = len(workload)
    accepted: list = []
    # Rejection sampling in vectorized rounds; acceptance rate is
    # mean-intensity/peak, bounded well away from zero.
    for _ in range(64):
        draw = max(needed * 2, 1024)
        candidates = gen.uniform(0.0, span, size=draw)
        keep = gen.uniform(0.0, peak, size=draw) < intensity(candidates)
        accepted.extend(candidates[keep].tolist())
        if len(accepted) >= needed:
            break
    if len(accepted) < needed:  # pragma: no cover - astronomically unlikely
        raise RuntimeError("rejection sampling failed to produce enough arrivals")
    times = np.array(accepted[:needed])
    return _reassign_times(workload, times, f"{workload.name}-diurnal")
