"""Scheduling metrics: utilization, slowdown, saturation detection.

The paper evaluates with Feitelson's metrics [5]:

* **utilization** — the fraction of the machine's node-time spent doing
  useful work.  Figure 5 reports utilization as a function of offered load;
  the headline 58% improvement compares "the utilization values at the
  saturation points where the linear growth of utilization stops" [7].
* **slowdown** — "the average of the job's wait time in the queue and its
  execution time divided by the execution time" (footnote 5); Figure 6 plots
  the no-estimation/with-estimation slowdown ratio per load.
* **bounded slowdown** — the standard guard against sub-second jobs blowing
  the average up; provided for completeness.

Fault-aware accounting
----------------------
Under node fault injection part of the machine is out of service, so the
raw-hardware denominator ``total_nodes * makespan`` overstates the capacity
that was actually offered — fault runs would under-report utilization.
:func:`utilization` and :func:`wasted_fraction` therefore default to
**effective capacity**: the raw denominator minus
``SimResult.node_downtime_seconds`` (itself clamped to the observed trace by
the engine, and defensively re-clamped here).  Pass ``effective=False`` for
the raw-hardware variant — the right denominator when the question is "how
much of the machine we *bought* did useful work", faults included.  The two
variants agree exactly on fault-free runs (downtime is zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.records import SimResult
from repro.util.validation import check_in_range, check_positive


def capacity_node_seconds(result: SimResult, effective: bool = True) -> float:
    """The utilization denominator: machine capacity over the makespan.

    ``effective=True`` subtracts the node-seconds lost to injected faults
    (clamped so a pathological downtime figure can never drive the capacity
    negative); ``effective=False`` is the raw hardware inventory.
    """
    span = result.makespan
    if span <= 0 or result.total_nodes <= 0:
        return 0.0
    raw = result.total_nodes * span
    if not effective:
        return raw
    return raw - min(max(result.node_downtime_seconds, 0.0), raw)


def utilization(result: SimResult, effective: bool = True) -> float:
    """Useful node-seconds over machine capacity during the makespan.

    Defaults to effective (in-service) capacity; see the module docstring.
    Identical to the raw-hardware variant whenever no faults were injected.
    """
    capacity = capacity_node_seconds(result, effective=effective)
    if capacity <= 0:
        return 0.0
    return result.useful_node_seconds / capacity


def wasted_fraction(result: SimResult, effective: bool = True) -> float:
    """Node-time burnt by failed executions, over machine capacity."""
    capacity = capacity_node_seconds(result, effective=effective)
    if capacity <= 0:
        return 0.0
    return result.wasted_node_seconds / capacity


def mean_slowdown(result: SimResult) -> float:
    """Average slowdown over completed jobs (the paper's Figure 6 metric)."""
    slowdowns = result.slowdowns()
    if slowdowns.size == 0:
        return float("nan")
    return float(slowdowns.mean())


def bounded_slowdown(result: SimResult, threshold: float = 10.0) -> float:
    """Average bounded slowdown (runtime clamped to ``threshold`` seconds).

    One vectorized clamp over the memoized summary columns; identical to
    folding :meth:`JobSummary.bounded_slowdown` per job (same doubles, same
    operation order per element).
    """
    check_positive("threshold", threshold)
    cols = result.summary_columns()
    mask = cols.completed
    if not mask.any():
        return float("nan")
    run = cols.run_time[mask]
    response = cols.end_time[mask] - cols.first_submit[mask]
    values = np.maximum(response / np.maximum(run, threshold), 1.0)
    return float(np.mean(values))


def mean_wait_time(result: SimResult) -> float:
    """Average time completed jobs spent not running (queue + failed tries)."""
    waits = result.wait_times()
    if waits.size == 0:
        return float("nan")
    return float(waits.mean())


def slowdown_percentile(result: SimResult, percentile: float = 95.0) -> float:
    """Tail slowdown: the given percentile over completed jobs.

    Mean slowdown (the paper's metric) hides tail behaviour; schedulers are
    judged on their tails in practice.  ``percentile`` is in [0, 100].
    """
    check_in_range("percentile", percentile, 0.0, 100.0)
    slowdowns = result.slowdowns()
    if slowdowns.size == 0:
        return float("nan")
    return float(np.percentile(slowdowns, percentile))


def wait_time_percentile(result: SimResult, percentile: float = 95.0) -> float:
    """Tail wait time: the given percentile over completed jobs."""
    check_in_range("percentile", percentile, 0.0, 100.0)
    waits = result.wait_times()
    if waits.size == 0:
        return float("nan")
    return float(np.percentile(waits, percentile))


@dataclass(frozen=True)
class SaturationPoint:
    """Where a utilization-vs-load curve stops tracking the offered load.

    ``load`` is the offered load at the knee, ``utilization`` the achieved
    utilization there, and ``max_utilization`` the highest achieved
    utilization across the sweep (the curve is flat past the knee, so these
    normally agree; both are reported for robustness).
    """

    load: float
    utilization: float
    max_utilization: float


def saturation_point(
    loads: Sequence[float],
    utilizations: Sequence[float],
    tolerance: float = 0.05,
) -> SaturationPoint:
    """Find the saturation point of a utilization-vs-load curve.

    Following [7], utilization grows linearly with offered load (achieved ~=
    offered) until the machine saturates; the saturation utilization is where
    that linear growth stops.  The knee is the largest load whose achieved
    utilization is still within ``tolerance`` (relative) of the offered load;
    if every point tracks the offered load, the last point is returned.
    """
    check_in_range("tolerance", tolerance, 0.0, 1.0)
    loads_arr = np.asarray(loads, dtype=float)
    utils_arr = np.asarray(utilizations, dtype=float)
    if loads_arr.size == 0 or loads_arr.shape != utils_arr.shape:
        raise ValueError("loads and utilizations must be equal-length, non-empty")
    order = np.argsort(loads_arr)
    loads_arr = loads_arr[order]
    utils_arr = utils_arr[order]

    tracking = utils_arr >= loads_arr * (1.0 - tolerance)
    if tracking.any():
        knee_idx = int(np.max(np.nonzero(tracking)[0]))
    else:
        knee_idx = 0  # saturated from the start: report the first point
    return SaturationPoint(
        load=float(loads_arr[knee_idx]),
        utilization=float(utils_arr[knee_idx]),
        max_utilization=float(utils_arr.max()),
    )


def saturation_utilization(
    loads: Sequence[float],
    utilizations: Sequence[float],
    tolerance: float = 0.05,
) -> float:
    """Shorthand: the maximum achieved utilization of a sweep (the value the
    paper compares across configurations)."""
    return saturation_point(loads, utilizations, tolerance).max_utilization
