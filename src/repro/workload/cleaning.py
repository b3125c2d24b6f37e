"""Trace cleaning: flurry detection and removal.

The Parallel Workloads Archive distributes "cleaned" versions of its traces
because raw logs contain **flurries** — bursts of hundreds or thousands of
near-identical submissions by a single user (stuck scripts, crash-resubmit
loops) that can dominate any statistic computed from the trace.  Feitelson &
Tsafrir's cleaning methodology flags jobs from a user whose submission rate
within a sliding window explodes; the LANL CM5 trace itself has documented
flurries.

This module implements window-based flurry detection and removal, so that
real traces loaded with :func:`repro.workload.swf.read_swf` can be prepared
the same way the archive's cleaned versions are — and so experiments can
check their robustness against flurry contamination.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.util.units import SECONDS_PER_HOUR
from repro.util.validation import check_positive
from repro.workload.job import Job, Workload


@dataclass(frozen=True)
class Flurry:
    """One detected flurry: a user's burst of submissions."""

    user_id: int
    start_time: float
    end_time: float
    n_jobs: int

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def detect_flurries(
    workload: Workload,
    threshold: int = 50,
    window: float = SECONDS_PER_HOUR,
) -> List[Flurry]:
    """Find per-user submission bursts exceeding ``threshold`` jobs within
    any ``window``-second span.

    Overlapping windows of the same user are merged into one flurry record.
    """
    if threshold < 2:
        raise ValueError(f"threshold must be >= 2, got {threshold}")
    check_positive("window", window)

    per_user: Dict[int, List[float]] = defaultdict(list)
    for job in workload:  # jobs are sorted by submit time
        per_user[job.user_id].append(job.submit_time)

    flurries: List[Flurry] = []
    for user_id, times in per_user.items():
        burst_start: Optional[float] = None
        burst_end = 0.0
        burst_jobs = 0
        sliding: deque = deque()
        for t in times:
            sliding.append(t)
            while sliding and sliding[0] < t - window:
                sliding.popleft()
            if len(sliding) >= threshold:
                if burst_start is None:
                    burst_start = sliding[0]
                    burst_jobs = len(sliding)
                else:
                    burst_jobs += 1
                burst_end = t
            elif burst_start is not None and t > burst_end + window:
                flurries.append(
                    Flurry(
                        user_id=user_id,
                        start_time=burst_start,
                        end_time=burst_end,
                        n_jobs=burst_jobs,
                    )
                )
                burst_start, burst_jobs = None, 0
        if burst_start is not None:
            flurries.append(
                Flurry(
                    user_id=user_id,
                    start_time=burst_start,
                    end_time=burst_end,
                    n_jobs=burst_jobs,
                )
            )
    flurries.sort(key=lambda f: (f.start_time, f.user_id))
    return flurries


def remove_flurries(
    workload: Workload,
    threshold: int = 50,
    window: float = SECONDS_PER_HOUR,
) -> Tuple[Workload, List[Flurry]]:
    """Drop every job belonging to a detected flurry.

    Returns the cleaned workload and the flurries that were removed.  A job
    belongs to a flurry when it was submitted by the flurry's user within
    its [start, end] span (inclusive).
    """
    flurries = detect_flurries(workload, threshold=threshold, window=window)
    if not flurries:
        return workload, []
    by_user: Dict[int, List[Flurry]] = defaultdict(list)
    for f in flurries:
        by_user[f.user_id].append(f)

    def keep(job: Job) -> bool:
        for f in by_user.get(job.user_id, ()):  # few flurries per user
            if f.start_time <= job.submit_time <= f.end_time:
                return False
        return True

    cleaned = workload.filter(keep, name=f"{workload.name}-cleaned")
    return cleaned, flurries


def inject_flurry(
    workload: Workload,
    user_id: int,
    start_time: float,
    n_jobs: int,
    interarrival: float = 10.0,
    template: Optional[Job] = None,
) -> Workload:
    """Add a synthetic flurry (for robustness experiments and tests).

    ``template`` provides the job shape (defaults to a small 1-node job);
    job IDs continue from the workload's maximum.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    check_positive("interarrival", interarrival)
    base = template or Job(
        job_id=0,
        submit_time=0.0,
        run_time=30.0,
        procs=1,
        req_mem=32.0,
        used_mem=1.0,
        user_id=user_id,
        app_id=9999,
    )
    next_id = max((j.job_id for j in workload), default=0) + 1
    extra = [
        Job(
            job_id=next_id + k,
            submit_time=start_time + k * interarrival,
            run_time=base.run_time,
            procs=base.procs,
            req_mem=base.req_mem,
            used_mem=base.used_mem,
            req_time=base.req_time,
            user_id=user_id,
            group_id=base.group_id,
            app_id=base.app_id,
        )
        for k in range(n_jobs)
    ]
    return Workload(
        list(workload.jobs) + extra,
        total_nodes=workload.total_nodes,
        node_mem=workload.node_mem,
        name=f"{workload.name}+flurry",
    )
