"""Workload transforms: load scaling, filtering, subsampling.

The paper's utilization/slowdown curves (Figures 5, 6) sweep *offered load*.
Following standard practice in parallel-job-scheduling evaluation (Feitelson
[5,7]), load is varied by **rescaling inter-arrival times** while leaving
runtimes, sizes and memory untouched: compressing arrivals raises the offered
load, stretching them lowers it.

Every transform here has a columnar fast path: a workload carrying a
:class:`repro.workload.columns.JobColumns` backing is rescaled/filtered as
whole-array operations without materializing a single :class:`Job`, and the
result is again columnar (so a sweep's scale-then-simulate pipeline stays
object-free until the engine iterates).  The arithmetic is identical to the
per-job path down to the last IEEE-754 bit — ``t0 + (t - t0) * factor`` is
the same double operation element-wise — which the engine-fingerprint suite
locks in.
"""

from __future__ import annotations

from typing import Optional

from repro.util.validation import check_positive
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
    name = f"{workload.name}@load{target_load:g}"
    if workload._columns is not None:
        cols = workload._columns
        t0 = float(cols.submit_time[0]) if len(cols) else 0.0
        scaled = cols.with_submit_time(t0 + (cols.submit_time - t0) * factor)
        return Workload.from_columns(
            scaled,
            total_nodes=workload.total_nodes,
            node_mem=workload.node_mem,
            name=name,
        )
    t0 = workload.jobs[0].submit_time if workload.jobs else 0.0
    return workload.map(
        lambda j: j.with_submit_time(t0 + (j.submit_time - t0) * factor),
        name=name,
    )


def shift_to_zero(workload: Workload) -> Workload:
    """Translate submission times so the first job arrives at t=0."""
    if not len(workload):
        return workload
    if workload._columns is not None:
        cols = workload._columns
        t0 = float(cols.submit_time[0])
        if t0 == 0:
            return workload
        return Workload.from_columns(
            cols.with_submit_time(cols.submit_time - t0),
            total_nodes=workload.total_nodes,
            node_mem=workload.node_mem,
            name=workload.name,
        )
    t0 = workload.jobs[0].submit_time
    if t0 == 0:
        return workload
    return workload.map(lambda j: j.with_submit_time(j.submit_time - t0))


def drop_full_machine_jobs(workload: Workload, total_nodes: Optional[int] = None) -> Workload:
    """Remove jobs requiring the entire original machine.

    §3.1: "the minimum change would be to remove six entries for jobs that
    required the full 1024 nodes", enabling the heterogeneous 512+512 split.
    """
    nodes = total_nodes if total_nodes is not None else workload.total_nodes
    check_positive("total_nodes", nodes)
    name = f"{workload.name}-nofull"
    if workload._columns is not None:
        cols = workload._columns
        return Workload.from_columns(
            cols.select(cols.procs < nodes),
            total_nodes=workload.total_nodes,
            node_mem=workload.node_mem,
            name=name,
            presorted=True,  # row-subset of an already-sorted trace
        )
    return workload.filter(lambda j: j.procs < nodes, name=name)


def head(workload: Workload, n: int) -> Workload:
    """First ``n`` jobs by submission order (for fast experiment variants)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    name = f"{workload.name}-head{n}"
    if workload._columns is not None:
        return Workload.from_columns(
            workload._columns.head(n),
            total_nodes=workload.total_nodes,
            node_mem=workload.node_mem,
            name=name,
            presorted=True,
        )
    return Workload(
        workload.jobs[:n],
        total_nodes=workload.total_nodes,
        node_mem=workload.node_mem,
        name=name,
    )