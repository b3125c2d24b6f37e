"""Workload transforms: load scaling, filtering, subsampling.

The paper's utilization/slowdown curves (Figures 5, 6) sweep *offered load*.
Following standard practice in parallel-job-scheduling evaluation (Feitelson
[5,7]), load is varied by **rescaling inter-arrival times** while leaving
runtimes, sizes and memory untouched: compressing arrivals raises the offered
load, stretching them lowers it.

Each transform is whole-array operations on the workload's
:class:`repro.workload.columns.JobColumns` and returns a new workload over
the result, so a sweep's scale-then-simulate pipeline builds no
:class:`~repro.workload.job.Job` until the engine reaches it.  Element-wise,
``t0 + (t - t0) * factor`` is the double operation a per-job rescale would
make, so each result matches one computed job by job to the last bit, which
the engine-fingerprint suite and the workload property tests lock in.
"""

from __future__ import annotations

from typing import Optional

from repro.util.validation import check_positive
from repro.workload.columns import JobColumns
from repro.workload.job import Workload


def offered_load(workload: Workload, total_nodes: Optional[int] = None) -> float:
    """Offered load: total node-seconds of work / (nodes x submission span).

    This is the demand the trace places on a machine of ``total_nodes`` nodes
    if every job were runnable everywhere; the achieved utilization of a
    simulation can never exceed it by more than edge effects.
    """
    nodes = total_nodes if total_nodes is not None else workload.total_nodes
    check_positive("total_nodes", nodes)
    span = workload.span
    if span <= 0:
        return float("inf") if len(workload) else 0.0
    return workload.total_work / (nodes * span)


def _with_columns(
    workload: Workload, columns: JobColumns, name: str, presorted: bool = False
) -> Workload:
    """A workload of ``columns`` on ``workload``'s machine."""
    return Workload.from_columns(
        columns,
        total_nodes=workload.total_nodes,
        node_mem=workload.node_mem,
        name=name,
        presorted=presorted,
    )


def scale_load(
    workload: Workload,
    target_load: float,
    total_nodes: Optional[int] = None,
) -> Workload:
    """Rescale submission times so the offered load equals ``target_load``.

    Only arrival times change; job content (runtime, size, memory) is
    preserved, so per-job metrics remain comparable across load points.
    """
    check_positive("target_load", target_load)
    current = offered_load(workload, total_nodes)
    if current <= 0 or current == float("inf"):
        raise ValueError(
            "cannot scale load of a workload with zero span or no jobs"
        )
    factor = current / target_load  # stretch (>1) to lower load
    cols = workload.as_columns()
    t0 = float(cols.submit_time[0])
    return _with_columns(
        workload,
        cols.with_submit_time(t0 + (cols.submit_time - t0) * factor),
        f"{workload.name}@load{target_load:g}",
    )


def shift_to_zero(workload: Workload) -> Workload:
    """Translate submission times so the first job arrives at t=0."""
    cols = workload.as_columns()
    t0 = float(cols.submit_time[0]) if len(cols) else 0.0
    if t0 == 0:
        return workload
    return _with_columns(
        workload, cols.with_submit_time(cols.submit_time - t0), workload.name
    )


def drop_full_machine_jobs(workload: Workload, total_nodes: Optional[int] = None) -> Workload:
    """Remove jobs requiring the entire original machine.

    §3.1: "the minimum change would be to remove six entries for jobs that
    required the full 1024 nodes", enabling the heterogeneous 512+512 split.
    """
    nodes = total_nodes if total_nodes is not None else workload.total_nodes
    check_positive("total_nodes", nodes)
    cols = workload.as_columns()
    return _with_columns(
        workload,
        cols.select(cols.procs < nodes),
        f"{workload.name}-nofull",
        presorted=True,  # row-subset of an already-sorted trace
    )


def head(workload: Workload, n: int) -> Workload:
    """First ``n`` jobs by submission order (for fast experiment variants)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _with_columns(
        workload,
        workload.as_columns().head(n),
        f"{workload.name}-head{n}",
        presorted=True,
    )
