"""Cluster construction helpers and the Figure 8 cluster-design tool.

§3.2's closing observation: given the distribution of requested and actual
resource capacities (e.g. from a scheduler log) and an estimation algorithm,
"it is possible to design a cluster ... so as to increase the cluster
utilization ... by choosing the resource capacities of the cluster machines
to maximize the number of jobs for which estimation is advantageous".
:func:`design_second_tier` implements exactly that analysis: for each
candidate second-tier memory size it counts the nodes requested by jobs that
would *benefit* from estimation, the quantity that fits the utilization
improvement linearly (R^2 = 0.991 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.cluster.cluster import AllocationStrategy, Cluster
from repro.cluster.ladder import CapacityLadder
from repro.util.validation import check_positive

if TYPE_CHECKING:
    from repro.workload.job import Workload


def homogeneous(
    n_nodes: int, mem: float, strategy: AllocationStrategy = "best_fit"
) -> Cluster:
    """A single-tier cluster (the original CM-5: ``homogeneous(1024, 32)``)."""
    return Cluster([(n_nodes, mem)], strategy=strategy, name=f"{n_nodes}x{mem:g}MB")


def two_tier(
    n_high: int,
    mem_high: float,
    n_low: int,
    mem_low: float,
    strategy: AllocationStrategy = "best_fit",
) -> Cluster:
    """A two-tier heterogeneous cluster (the paper's experimental shape)."""
    return Cluster(
        [(n_high, mem_high), (n_low, mem_low)],
        strategy=strategy,
        name=f"{n_high}x{mem_high:g}MB+{n_low}x{mem_low:g}MB",
    )


def paper_cluster(
    second_tier_mem: float = 24.0, strategy: AllocationStrategy = "best_fit"
) -> Cluster:
    """The paper's experimental cluster: 512 x 32 MB + 512 x ``m`` MB.

    Figure 5/6 use m = 24; Figure 8 sweeps m over 1..32.
    """
    check_positive("second_tier_mem", second_tier_mem)
    if second_tier_mem > 32.0:
        raise ValueError(
            f"second-tier memory may not exceed the 32MB first tier, got {second_tier_mem}"
        )
    if second_tier_mem == 32.0:
        return homogeneous(1024, 32.0, strategy=strategy)
    return two_tier(512, 32.0, 512, second_tier_mem, strategy=strategy)


@dataclass(frozen=True)
class DesignChoice:
    """Evaluation of one candidate second-tier memory size.

    ``benefiting_node_count`` is §3.2's predictor: total nodes requested by
    jobs that (a) could not use the second tier under their *request* but can
    under a successful *estimate* — i.e. ``req_mem > m`` and the first
    estimation step ``round_up(req_mem / alpha)`` lands on the second tier —
    and (b) actually fit there (``used_mem <= m``).
    """

    second_tier_mem: float
    benefiting_jobs: int
    benefiting_node_count: int
    blocked_by_alpha: int  # jobs failing only condition (a)'s alpha step
    oversized_usage: int  # jobs failing only condition (b)


def stable_level(
    req: float, used: float, ladder: CapacityLadder, alpha: float
) -> Optional[float]:
    """Machine class Algorithm 1 (beta = 0) settles a job class on.

    Iterates the estimator's dynamics exactly as
    :class:`repro.core.successive.SuccessiveApproximation` implements them:
    the submitted requirement is ``E' = min(round_up(E_i), request)`` (an
    estimate is never raised above the user's request — this is what makes
    the paper's §3.2 example work, where a 20 MB request with alpha = 2
    reaches 15 MB machines because 20/2 = 10 <= 15), the allocator grants the
    lowest machine class >= E', success means the granted class holds the
    actual usage, success updates ``E_i <- E'/alpha`` and the first failure
    freezes the group at its last safe requirement (beta = 0).

    Returns the granted capacity level the job class stabilizes on, or
    ``None`` when no machine can ever hold the job (usage above every level,
    violating the paper's ``used <= requested`` assumption).

    On a two-tier ladder {m, top} with top-tier requests this reduces to the
    paper's Figure 8 threshold: the small machines are reachable iff
    ``top / alpha <= m``.
    """
    check_positive("alpha", alpha)
    return _stable_level(req, used, ladder, alpha)


def _stable_level(
    req: float, used: float, ladder: CapacityLadder, alpha: float
) -> Optional[float]:
    """:func:`stable_level` for an ``alpha`` the caller has checked."""
    estimate = req
    last_safe_req: Optional[float] = None
    # The descent is geometrically fast; the bound is just a safety net
    # against alpha values pathologically close to 1.
    for _ in range(256):
        level = ladder.round_up(estimate)
        if level is None:
            level = req  # estimate above every machine: fall back to the request
        requirement = min(level, req)
        granted = ladder.round_up(requirement)
        if granted is None:
            return None  # even the request exceeds every machine
        if granted < used:
            # Failure: revert to the last safe requirement and freeze.
            if last_safe_req is None:
                return None  # the request itself cannot hold the job
            return ladder.round_up(last_safe_req)
        if requirement == last_safe_req:
            return granted  # fixpoint: rounding pinned the estimate
        last_safe_req = requirement
        estimate = requirement / alpha
    return ladder.round_up(last_safe_req) if last_safe_req is not None else None


def _benefit(
    job_req: float, job_used: float, m: float, ladder: CapacityLadder, alpha: float
) -> str:
    """Classify one job for tier size ``m`` on ``ladder`` (``[m, top]``):
    'benefit'/'alpha'/'usage'/'none'."""
    if job_req <= m:
        return "none"  # already eligible for the second tier by request
    final = _stable_level(job_req, job_used, ladder, alpha)
    if final == m:
        return "benefit"
    if job_used > m:
        return "usage"  # small machines could never hold the job anyway
    return "alpha"  # the alpha step overshoots the tier (Fig 8's 16MB wall)


def design_second_tier(
    workload: Workload,
    candidate_mems: Sequence[float],
    n_high: int = 512,
    mem_high: float = 32.0,
    alpha: float = 2.0,
) -> List[DesignChoice]:
    """Rank candidate second-tier memory sizes by benefiting node count.

    This is the paper's cluster-design recipe: evaluate, per candidate memory
    size ``m``, how many requested nodes belong to jobs for which estimation
    with the given ``alpha`` unlocks the second tier.  The Figure 8 benchmark
    verifies that this count tracks the simulated utilization improvement.
    """
    check_positive("alpha", alpha)
    # Read once: each candidate walks every row.
    cols = workload.as_columns()
    rows = list(zip(cols.req_mem.tolist(), cols.used_mem.tolist(), cols.procs.tolist()))
    choices: List[DesignChoice] = []
    for m in candidate_mems:
        check_positive("candidate memory", m)
        if m > mem_high:
            raise ValueError(
                f"candidate second-tier memory {m} exceeds first tier {mem_high}"
            )
        ladder = CapacityLadder([m, mem_high])  # shared by every row
        jobs = nodes = alpha_blocked = usage_blocked = 0
        for req, used, procs in rows:
            kind = _benefit(req, used, m, ladder, alpha)
            if kind == "benefit":
                jobs += 1
                nodes += procs
            elif kind == "alpha":
                alpha_blocked += 1
            elif kind == "usage":
                usage_blocked += 1
        choices.append(
            DesignChoice(
                second_tier_mem=float(m),
                benefiting_jobs=jobs,
                benefiting_node_count=nodes,
                blocked_by_alpha=alpha_blocked,
                oversized_usage=usage_blocked,
            )
        )
    return choices


def best_second_tier(choices: Sequence[DesignChoice]) -> DesignChoice:
    """The candidate with the largest benefiting node count."""
    if not choices:
        raise ValueError("no design choices to rank")
    return max(choices, key=lambda c: c.benefiting_node_count)


@dataclass(frozen=True)
class LadderDesign:
    """One candidate multi-tier ladder and its predicted sustainable load.

    ``sustainable_load`` is the largest offered-load multiplier the ladder
    can serve under Algorithm 1: each job class settles at its
    :func:`stable_level`, jobs settled at level l may run on any tier >= l,
    and the binding constraint (Hall's condition over level suffixes) is

        load * demand(levels >= l)  <=  capacity(tiers >= l)   for every l.
    """

    levels: Tuple[float, ...]
    sustainable_load: float
    demand_by_level: Tuple[Tuple[float, float], ...]  # (level, work fraction)


def evaluate_ladder(
    workload: Workload,
    levels: Sequence[float],
    total_nodes: int,
    alpha: float = 2.0,
) -> LadderDesign:
    """Predict the sustainable load of an equal-node-count tier ladder."""
    check_positive("alpha", alpha)
    if total_nodes <= 0:
        raise ValueError(f"total_nodes must be positive, got {total_nodes}")
    uniq = sorted(set(float(v) for v in levels))
    if not uniq:
        raise ValueError("a ladder needs at least one level")
    ladder = CapacityLadder(uniq)
    per_tier = total_nodes / len(uniq)

    demand = {lvl: 0.0 for lvl in uniq}
    unservable = 0.0
    total_work = 0.0
    cols = workload.as_columns()
    # Job.work per row; summed below in row order.
    works = (cols.run_time * cols.procs).tolist()
    for req, used, work in zip(cols.req_mem.tolist(), cols.used_mem.tolist(), works):
        total_work += work
        settled = _stable_level(req, used, ladder, alpha)
        if settled is None:
            unservable += work
            continue
        demand[settled] += work
    if total_work <= 0:
        raise ValueError("workload carries no work")
    if unservable > 0:
        # Jobs no tier can hold make the ladder infeasible at any load.
        return LadderDesign(
            levels=tuple(uniq),
            sustainable_load=0.0,
            demand_by_level=tuple((lvl, demand[lvl] / total_work) for lvl in uniq),
        )

    span = max(workload.span, 1.0)
    base_load = total_work / (total_nodes * span)
    sustainable = float("inf")
    # Hall's condition over suffixes: work settled at >= l only fits on
    # tiers >= l.
    for i, lvl in enumerate(uniq):
        suffix_demand = sum(demand[l2] for l2 in uniq[i:])
        suffix_capacity = per_tier * (len(uniq) - i) * span
        if suffix_demand > 0:
            sustainable = min(sustainable, suffix_capacity / suffix_demand)
    sustainable_load = base_load * sustainable if sustainable != float("inf") else float("inf")
    return LadderDesign(
        levels=tuple(uniq),
        sustainable_load=float(min(sustainable_load, 10.0)),
        demand_by_level=tuple((lvl, demand[lvl] / total_work) for lvl in uniq),
    )


def design_ladder(
    workload: Workload,
    candidate_levels: Sequence[float],
    n_tiers: int,
    total_nodes: int,
    alpha: float = 2.0,
    must_include_max: bool = True,
) -> List[LadderDesign]:
    """Search equal-sized tier ladders for the best predicted sustainable load.

    Generalizes the paper's Figure 8 design observation from "choose the
    second tier's memory" to "choose the whole ladder": enumerate all
    ``n_tiers``-subsets of ``candidate_levels`` (optionally forcing the
    largest candidate, since some jobs genuinely need full-memory nodes) and
    rank them by :func:`evaluate_ladder`.  Candidate counts are small in
    practice (vendors sell a handful of configurations), so exhaustive
    enumeration is exact and fast.
    """
    from itertools import combinations

    uniq = sorted(set(float(v) for v in candidate_levels))
    if n_tiers < 1 or n_tiers > len(uniq):
        raise ValueError(
            f"n_tiers must be in [1, {len(uniq)}] for {len(uniq)} candidates, "
            f"got {n_tiers}"
        )
    designs: List[LadderDesign] = []
    top = uniq[-1]
    for combo in combinations(uniq, n_tiers):
        if must_include_max and top not in combo:
            continue
        designs.append(evaluate_ladder(workload, combo, total_nodes, alpha=alpha))
    designs.sort(key=lambda d: d.sustainable_load, reverse=True)
    if not designs:
        raise ValueError("no ladder satisfied the constraints")
    return designs
