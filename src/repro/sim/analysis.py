"""Post-run simulation analyses: where did the node-time actually go?

The scalar metrics of :mod:`repro.sim.metrics` answer "how well did it do";
this module answers "why": per-capacity-tier occupancy (which machines the
estimator unlocked), the decomposition of lost capacity into idle-by-blocking
vs. genuinely-idle vs. wasted-by-failures, and queue-dynamics summaries from
the optional event timeline.

These analyses power the ablation discussions in EXPERIMENTS.md — e.g. the
Figure 5 baseline loses almost all of its second tier to the requirement
mismatch, which is directly visible in :func:`tier_utilization`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.sim.records import AttemptRecord, SimResult

#: The fields of a plain attempt row that tier occupancy reads.
_OCCUPANCY_FIELDS = itemgetter(*map(AttemptRecord._fields.index, (
    "start_time", "end_time", "succeeded", "allocation",
)))


def tier_utilization(result: SimResult, cluster: Cluster) -> Dict[float, float]:
    """Useful node-time per capacity level, as a fraction of that tier.

    Requires the per-attempt trace (``collect_attempts=True``).  The paper's
    mechanism is visible here: without estimation the small tier of the
    Figure 5 cluster sits nearly idle; with estimation it fills up.  The
    attempts are read off the result's log as plain tuples; no record is
    built.
    """
    if not result.attempts and result.n_attempts:
        raise ValueError(
            "tier_utilization needs the per-attempt trace; run the simulation "
            "with collect_attempts=True"
        )
    span = result.makespan
    busy: Dict[float, float] = {lvl: 0.0 for lvl in cluster.ladder.levels}
    rows = map(_OCCUPANCY_FIELDS, result.attempts.table.tuples())
    for start, end, succeeded, allocation in rows:
        if not succeeded:
            continue
        for level, count in allocation:
            busy[level] = busy.get(level, 0.0) + (end - start) * count
    out: Dict[float, float] = {}
    for level in cluster.ladder.levels:
        capacity = cluster.total_at_level(level) * span
        out[level] = busy.get(level, 0.0) / capacity if capacity > 0 else 0.0
    return out


@dataclass(frozen=True)
class CapacityDecomposition:
    """Where the machine's node-time went over the makespan.

    ``useful + wasted + idle == 1`` (up to float error).  ``wasted`` is
    occupancy by executions that later failed (the §3.2 cost of
    under-estimation); ``idle`` is everything else — a mix of genuine lack
    of work and the requirement mismatch the paper attacks.
    """

    useful: float
    wasted: float
    idle: float

    def format_report(self) -> str:
        return (
            f"useful {self.useful:.1%} | wasted (failed executions) "
            f"{self.wasted:.1%} | idle {self.idle:.1%}"
        )


def capacity_decomposition(result: SimResult) -> CapacityDecomposition:
    """Split the machine's total node-time into useful / wasted / idle."""
    span = result.makespan
    total = result.total_nodes * span
    if total <= 0:
        return CapacityDecomposition(useful=0.0, wasted=0.0, idle=1.0)
    useful = result.useful_node_seconds / total
    wasted = result.wasted_node_seconds / total
    return CapacityDecomposition(
        useful=useful, wasted=wasted, idle=max(1.0 - useful - wasted, 0.0)
    )


@dataclass(frozen=True)
class QueueStats:
    """Queue-dynamics summary from the event timeline."""

    mean_queue_length: float
    max_queue_length: int
    mean_busy_nodes: float
    #: Fraction of (event-weighted) time at least one job was waiting while
    #: at least one *in-service* node was free — the signature of requirement
    #: mismatch (work exists, capacity exists, but they don't match).  Nodes
    #: down from fault injection are not "free": a queue stalled only because
    #: the machine is broken is unavailability, not mismatch.
    frac_blocked_with_free_nodes: float
    #: Event-weighted mean of nodes out of service (0 on fault-free runs).
    mean_down_nodes: float = 0.0


def queue_stats(result: SimResult, total_nodes: Optional[int] = None) -> QueueStats:
    """Summarize the queue/busy-node timeline a
    :class:`~repro.obs.sampler.TimelineSampler` recorded on the run.

    Samples are weighted by the time until the next event, so long quiet
    stretches count proportionally.
    """
    if not result.timeline:
        raise ValueError(
            "no timeline recorded; run with observer=repro.obs.TimelineSampler()"
        )
    nodes = total_nodes if total_nodes is not None else result.total_nodes
    times = np.array([s.time for s in result.timeline])
    queue = np.array([s.queue_length for s in result.timeline], dtype=float)
    busy = np.array([s.busy_nodes for s in result.timeline], dtype=float)
    down = np.array([s.down_nodes for s in result.timeline], dtype=float)
    # Duration-weight each sample by the gap to the next event.
    gaps = np.diff(times, append=times[-1])
    gaps = np.maximum(gaps, 0.0)
    weight = gaps.sum()
    if weight <= 0:
        # Degenerate single-instant run: fall back to unweighted means.
        gaps = np.ones_like(times)
        weight = gaps.sum()
    blocked = (queue > 0) & (busy + down < nodes)
    return QueueStats(
        mean_queue_length=float((queue * gaps).sum() / weight),
        max_queue_length=int(queue.max()),
        mean_busy_nodes=float((busy * gaps).sum() / weight),
        frac_blocked_with_free_nodes=float((blocked * gaps).sum() / weight),
        mean_down_nodes=float((down * gaps).sum() / weight),
    )


@dataclass(frozen=True)
class SizeClassStats:
    """Wait/slowdown statistics for one job-size class."""

    label: str
    min_procs: int
    max_procs: int
    n_jobs: int
    mean_wait: float
    mean_slowdown: float


def wait_by_size_class(
    result: SimResult,
    boundaries: Sequence[int] = (64, 256),
) -> List[SizeClassStats]:
    """Wait time and slowdown broken down by job size.

    The paper's mechanism predicts size-dependent effects: big jobs
    requesting the full node memory are the ones stuck queueing for the
    large tier, so estimation should shorten *their* waits most.
    ``boundaries`` split the proc axis into classes (default: <64, 64-255,
    >=256).
    """
    edges = [0, *sorted(boundaries), 10**9]
    cols = result.summary_columns()
    completed = cols.completed
    procs = cols.procs
    run = cols.run_time
    response = cols.end_time - cols.first_submit
    waits = response - run
    slowdowns = np.full_like(response, np.inf)
    positive = run > 0
    slowdowns[positive] = response[positive] / run[positive]
    stats: List[SizeClassStats] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        member = completed & (procs >= lo) & (procs < hi)
        label = f"{lo}-{hi - 1}" if hi < 10**9 else f">={lo}"
        n = int(member.sum())
        if not n:
            stats.append(
                SizeClassStats(
                    label=label, min_procs=lo, max_procs=hi - 1, n_jobs=0,
                    mean_wait=float("nan"), mean_slowdown=float("nan"),
                )
            )
            continue
        stats.append(
            SizeClassStats(
                label=label,
                min_procs=lo,
                max_procs=hi - 1,
                n_jobs=n,
                mean_wait=float(np.mean(waits[member])),
                mean_slowdown=float(np.mean(slowdowns[member])),
            )
        )
    return stats


def estimation_unlock_report(
    base: SimResult, est: SimResult, cluster: Cluster
) -> str:
    """Side-by-side per-tier utilization: what estimation unlocked.

    ``base`` and ``est`` should be runs of the same workload on equal
    clusters with and without estimation.
    """
    base_tiers = tier_utilization(base, cluster)
    est_tiers = tier_utilization(est, cluster)
    lines = ["tier     | util (no est) | util (est) | unlocked"]
    lines.append("---------+---------------+------------+---------")
    for level in cluster.ladder.levels:
        b, e = base_tiers[level], est_tiers[level]
        lines.append(
            f"{level:>6g}MB | {b:>13.3f} | {e:>10.3f} | {e - b:>+8.3f}"
        )
    return "\n".join(lines)
