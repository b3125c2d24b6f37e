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
from typing import List, Optional

from repro.experiments.cache import SweepCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import format_table
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
)


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


#: The policies compared, by :data:`~repro.experiments.specs.POLICY_REGISTRY` name.
POLICIES = ("fcfs", "sjf", "easy-backfilling")


def sweep_specs(cfg: Optional[ExperimentConfig] = None, load: float = 0.8) -> List[RunSpec]:
    """Per policy, a run without and one with estimation, policy-major."""
    cfg = cfg or ExperimentConfig()
    estimators = (
        EstimatorSpec(name="none"),
        EstimatorSpec.make("successive", alpha=cfg.alpha, beta=cfg.beta),
    )
    return [
        RunSpec(
            workload=WorkloadSpec(n_jobs=cfg.n_jobs, seed=cfg.seed, load=load),
            cluster=ClusterSpec(second_tier_mem=cfg.second_tier_mem),
            estimator=estimator,
            policy=PolicySpec(name=policy),
            seed=cfg.seed,
            label=f"{estimator.name}@{policy}",
        )
        for policy in POLICIES
        for estimator in estimators
    ]


def run(
    config: Optional[ExperimentConfig] = None,
    load: float = 0.8,
    max_workers: int = 1,
    cache: Optional[SweepCache] = None,
    timeout: Optional[float] = None,
    max_retries: int = 0,
) -> PolicyComparisonResult:
    """Compare each policy with and without estimation on one trace.

    The runs are :func:`sweep_specs`, executed by :func:`run_sweep`:
    ``max_workers``, ``cache``, ``timeout`` and ``max_retries`` go to it
    as they are.
    """
    from repro.experiments.parallel import run_sweep

    cfg = config or ExperimentConfig()
    points = run_sweep(
        sweep_specs(cfg, load),
        max_workers=max_workers,
        cache=cache,
        timeout=timeout,
        max_retries=max_retries,
    ).points()
    rows = [
        PolicyRow(
            policy=policy,
            util_base=base.utilization,
            util_est=est.utilization,
            slowdown_base=base.mean_slowdown,
            slowdown_est=est.mean_slowdown,
            frac_failed=est.frac_failed_executions,
        )
        for policy, base, est in zip(POLICIES, points[::2], points[1::2])
    ]
    return PolicyComparisonResult(rows=rows, load=load)
