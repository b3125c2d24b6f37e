"""Trace characterization report: everything you want to know about a trace.

Before trusting any simulation, one characterizes the workload — the same
discipline the paper applies in §1.1/§2.2 before its experiments.  This
module produces a single structured summary (and a formatted text report)
covering scale, arrival process, job sizes, runtimes, the memory
request/usage relationship, and the per-user concentration, for either a
real SWF trace or a synthetic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.util.units import SECONDS_PER_DAY, format_duration
from repro.workload.job import Workload
from repro.workload.stats import overprovisioning_stats


def _percentiles(values: np.ndarray) -> Tuple[float, float, float]:
    """(p50, p90, p99) of a non-empty array."""
    return (
        float(np.percentile(values, 50)),
        float(np.percentile(values, 90)),
        float(np.percentile(values, 99)),
    )


@dataclass(frozen=True)
class TraceReport:
    """Structured trace characterization."""

    name: str
    n_jobs: int
    span_seconds: float
    total_nodes: int

    # arrivals
    mean_interarrival: float
    cv_interarrival: float  # coefficient of variation; 1 = Poisson-like
    peak_hour_share: float  # arrivals in the busiest hour-of-day bin

    # sizes
    procs_p50: float
    procs_p90: float
    procs_p99: float
    distinct_proc_levels: int

    # runtimes
    runtime_p50: float
    runtime_p90: float
    runtime_p99: float

    # memory
    req_mem_levels: Tuple[Tuple[float, float], ...]  # (level, job share)
    used_mem_p50: float
    used_mem_p90: float
    frac_ratio_ge_2: float
    max_ratio: float

    # population
    n_users: int
    top_user_share: float  # job share of the heaviest user
    offered_load: float

    def format_report(self) -> str:
        mem_mix = ", ".join(f"{lvl:g}MB:{share:.0%}" for lvl, share in self.req_mem_levels)
        lines = [
            f"trace                 : {self.name}",
            f"jobs                  : {self.n_jobs} over {format_duration(self.span_seconds)}",
            f"machine               : {self.total_nodes} nodes",
            f"offered load          : {self.offered_load:.2f}",
            "",
            f"inter-arrival mean/CV : {self.mean_interarrival:.0f}s / {self.cv_interarrival:.2f}",
            f"busiest hour-of-day   : {self.peak_hour_share:.1%} of arrivals",
            "",
            f"job size p50/p90/p99  : {self.procs_p50:.0f}/{self.procs_p90:.0f}/{self.procs_p99:.0f} nodes"
            f" ({self.distinct_proc_levels} distinct sizes)",
            f"runtime p50/p90/p99   : {format_duration(self.runtime_p50)}/"
            f"{format_duration(self.runtime_p90)}/{format_duration(self.runtime_p99)}",
            "",
            f"requested memory mix  : {mem_mix}",
            f"used memory p50/p90   : {self.used_mem_p50:.1f}MB / {self.used_mem_p90:.1f}MB",
            f"ratio >= 2 (Fig 1)    : {self.frac_ratio_ge_2:.1%}   max ratio {self.max_ratio:.0f}x",
            "",
            f"users                 : {self.n_users} (top user: {self.top_user_share:.1%} of jobs)",
        ]
        return "\n".join(lines)


def characterize(workload: Workload) -> TraceReport:
    """Compute the full characterization of a workload."""
    if not workload.jobs:
        raise ValueError("cannot characterize an empty workload")
    submits = workload.column("submit_time").astype(float)
    procs = workload.column("procs").astype(float)
    runtimes = workload.column("run_time").astype(float)
    used = workload.column("used_mem").astype(float)
    req = workload.column("req_mem").astype(float)
    users = workload.column("user_id")

    gaps = np.diff(np.sort(submits))
    if gaps.size and gaps.mean() > 0:
        mean_gap = float(gaps.mean())
        cv_gap = float(gaps.std() / gaps.mean())
    else:
        mean_gap, cv_gap = 0.0, 0.0

    hours = ((submits % SECONDS_PER_DAY) // 3600).astype(int)
    hour_counts = np.bincount(hours, minlength=24)
    peak_share = float(hour_counts.max() / hour_counts.sum())

    p50, p90, p99 = _percentiles(procs)
    r50, r90, r99 = _percentiles(runtimes)
    u50, u90, _ = _percentiles(used)

    levels, counts = np.unique(req, return_counts=True)
    order = np.argsort(-counts)
    mem_mix = tuple(
        (float(levels[i]), float(counts[i] / counts.sum())) for i in order[:6]
    )

    ratios = workload.overprovisioning_ratios()
    try:
        op = overprovisioning_stats(workload)
        frac_ge_2, max_ratio = op.frac_ratio_ge_2, op.max_ratio
    except ValueError:
        # Degenerate traces (e.g. a single ratio bin) have no Figure 1 fit;
        # the headline ratios are still well-defined.
        frac_ge_2 = float(np.mean(ratios >= 2.0))
        max_ratio = float(ratios.max())

    user_ids, user_counts = np.unique(users, return_counts=True)

    from repro.workload.transforms import offered_load as _offered

    try:
        load = _offered(workload)
    except ValueError:
        load = float("nan")

    return TraceReport(
        name=workload.name,
        n_jobs=len(workload),
        span_seconds=workload.span,
        total_nodes=workload.total_nodes,
        mean_interarrival=mean_gap,
        cv_interarrival=cv_gap,
        peak_hour_share=peak_share,
        procs_p50=p50,
        procs_p90=p90,
        procs_p99=p99,
        distinct_proc_levels=int(np.unique(procs).size),
        runtime_p50=r50,
        runtime_p90=r90,
        runtime_p99=r99,
        req_mem_levels=mem_mix,
        used_mem_p50=u50,
        used_mem_p90=u90,
        frac_ratio_ge_2=frac_ge_2,
        max_ratio=max_ratio,
        n_users=int(user_ids.size),
        top_user_share=float(user_counts.max() / user_counts.sum()),
        offered_load=load if load == load and load != float("inf") else 0.0,
    )
