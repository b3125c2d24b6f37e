"""Seed replication: how stable is the headline result?

The paper reports single-run numbers from one fixed trace.  Our trace is
synthetic, so the honest question is: *across trace seeds*, what is the
distribution of the Figure 5 improvement?  This harness replicates the
headline comparison over independent seeds and reports mean, standard
deviation, and a normal-approximation confidence interval — the number
EXPERIMENTS.md's "expect single-digit-percent variation across seeds"
statement is based on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.cache import SweepCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.render import format_table
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    RunSpec,
    WorkloadSpec,
)


@dataclass(frozen=True)
class ReplicationPoint:
    seed: int
    util_base: float
    util_est: float
    slowdown_ratio: float
    frac_failed: float

    @property
    def improvement(self) -> float:
        return self.util_est / self.util_base - 1.0 if self.util_base > 0 else 0.0


@dataclass(frozen=True)
class ReplicationResult:
    points: List[ReplicationPoint]
    load: float
    n_jobs: int

    def improvements(self) -> np.ndarray:
        return np.array([p.improvement for p in self.points])

    @property
    def mean_improvement(self) -> float:
        return float(self.improvements().mean())

    @property
    def std_improvement(self) -> float:
        return float(self.improvements().std(ddof=1)) if len(self.points) > 1 else 0.0

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation CI of the mean improvement."""
        if len(self.points) < 2:
            m = self.mean_improvement
            return (m, m)
        half = z * self.std_improvement / np.sqrt(len(self.points))
        return (self.mean_improvement - half, self.mean_improvement + half)

    def format_table(self) -> str:
        rows = [
            (
                p.seed,
                f"{p.util_base:.3f}",
                f"{p.util_est:.3f}",
                f"{p.improvement:+.1%}",
                f"{p.slowdown_ratio:.1f}",
                f"{p.frac_failed:.3%}",
            )
            for p in self.points
        ]
        table = format_table(
            ["seed", "util (no est)", "util (est)", "improvement", "slowdown ratio", "failed"],
            rows,
            title=f"Seed replication of the Figure 5 headline "
            f"({self.n_jobs} jobs, load {self.load:g})",
        )
        lo, hi = self.confidence_interval()
        summary = (
            f"\nimprovement: {self.mean_improvement:+.1%} "
            f"± {self.std_improvement:.1%} (std), 95% CI [{lo:+.1%}, {hi:+.1%}]"
            f"   (paper: +58%)"
        )
        return table + summary


def run(
    config: Optional[ExperimentConfig] = None,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    load: float = 0.9,
    max_workers: int = 1,
    cache: Optional[SweepCache] = None,
    timeout: Optional[float] = None,
    max_retries: int = 0,
) -> ReplicationResult:
    """Replicate the headline comparison across independent trace seeds.

    Each seed regenerates the trace, the failure noise, and the simulation —
    fully independent replications, so ``max_workers > 1`` parallelizes
    across the 2 x len(seeds) runs.  ``timeout``/``max_retries`` go to
    :func:`run_sweep` as they are.
    """
    cfg = config or ExperimentConfig()
    estimators = (
        EstimatorSpec(name="none"),
        EstimatorSpec.make("successive", alpha=cfg.alpha, beta=cfg.beta),
    )
    specs = [
        RunSpec(
            workload=WorkloadSpec(n_jobs=cfg.n_jobs, seed=int(seed), load=load),
            cluster=ClusterSpec(second_tier_mem=cfg.second_tier_mem),
            estimator=est,
            seed=int(seed),
            label=f"{est.name}@seed{seed}",
        )
        for seed in seeds
        for est in estimators
    ]
    sweep_points = run_sweep(
        specs,
        max_workers=max_workers,
        cache=cache,
        timeout=timeout,
        max_retries=max_retries,
    ).points()

    points: List[ReplicationPoint] = []
    for i, seed in enumerate(seeds):
        p_base, p_est = sweep_points[2 * i], sweep_points[2 * i + 1]
        points.append(
            ReplicationPoint(
                seed=int(seed),
                util_base=p_base.utilization,
                util_est=p_est.utilization,
                slowdown_ratio=p_base.mean_slowdown / p_est.mean_slowdown,
                frac_failed=p_est.frac_failed_executions,
            )
        )
    return ReplicationResult(points=points, load=load, n_jobs=cfg.n_jobs)
