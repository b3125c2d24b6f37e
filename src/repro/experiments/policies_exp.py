"""Policy-robustness experiment: is the benefit an FCFS artifact?

§3.1: "We expect that the results of cluster utilization with more
aggressive scheduling policies like backfilling will be correlated with
those for FCFS.  However, these experiments are left for future work."

This experiment runs the with/without-estimation comparison under FCFS,
shortest-job-first, and EASY backfilling on the same workload and cluster,
and reports the per-policy improvement — the direct test of the conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.baselines import NoEstimation
from repro.core.successive import SuccessiveApproximation
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import format_table
from repro.sim.engine import simulate
from repro.sim.metrics import mean_slowdown, utilization
from repro.sim.policies import EasyBackfilling, Fcfs, Policy, ShortestJobFirst
from repro.workload.transforms import scale_load


@dataclass(frozen=True)
class PolicyRow:
    policy: str
    util_base: float
    util_est: float
    slowdown_base: float
    slowdown_est: float
    frac_failed: float

    @property
    def improvement(self) -> float:
        return self.util_est / self.util_base - 1.0 if self.util_base > 0 else 0.0

    @property
    def slowdown_ratio(self) -> float:
        return (
            self.slowdown_base / self.slowdown_est if self.slowdown_est > 0 else 1.0
        )


@dataclass(frozen=True)
class PolicyComparisonResult:
    rows: List[PolicyRow]
    load: float

    def row(self, policy: str) -> PolicyRow:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(f"no policy {policy!r}; have {[r.policy for r in self.rows]}")

    @property
    def conjecture_holds(self) -> bool:
        """Every policy shows a clear utilization improvement."""
        return all(r.improvement > 0.10 for r in self.rows)

    def format_table(self) -> str:
        rows = [
            (
                r.policy,
                f"{r.util_base:.3f}",
                f"{r.util_est:.3f}",
                f"{r.improvement:+.1%}",
                f"{r.slowdown_ratio:.2f}",
                f"{r.frac_failed:.3%}",
            )
            for r in self.rows
        ]
        table = format_table(
            [
                "policy",
                "util (no est)",
                "util (est)",
                "improvement",
                "slowdown ratio",
                "failed",
            ],
            rows,
            title=f"Policy robustness (§3.1 conjecture), load {self.load:g}",
        )
        verdict = (
            "\nconjecture holds: estimation improves every policy"
            if self.conjecture_holds
            else "\nconjecture VIOLATED for at least one policy"
        )
        return table + verdict


POLICY_FACTORIES: List[Callable[[], Policy]] = [Fcfs, ShortestJobFirst, EasyBackfilling]


def run(
    config: Optional[ExperimentConfig] = None,
    load: float = 0.8,
) -> PolicyComparisonResult:
    cfg = config or ExperimentConfig()
    workload = scale_load(cfg.make_sim_workload(), load)
    rows: List[PolicyRow] = []
    for factory in POLICY_FACTORIES:
        base = simulate(
            workload, cfg.make_cluster(), NoEstimation(), policy=factory(),
            seed=cfg.seed, collect_attempts=False,
        )
        est = simulate(
            workload,
            cfg.make_cluster(),
            SuccessiveApproximation(alpha=cfg.alpha, beta=cfg.beta),
            policy=factory(),
            seed=cfg.seed,
            collect_attempts=False,
        )
        rows.append(
            PolicyRow(
                policy=factory.name,
                util_base=utilization(base),
                util_est=utilization(est),
                slowdown_base=mean_slowdown(base),
                slowdown_est=mean_slowdown(est),
                frac_failed=est.frac_failed_executions,
            )
        )
    return PolicyComparisonResult(rows=rows, load=load)
