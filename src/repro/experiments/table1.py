"""Table 1: the estimator taxonomy, run head-to-head.

The paper's Table 1 classifies four estimation algorithms by feedback type
and similarity availability:

=================  ======================  ==========================
                    implicit feedback       explicit feedback
=================  ======================  ==========================
similar jobs        successive              last-instance
                    approximation           identification
no similar jobs     reinforcement           regression
                    learning                modeling
=================  ======================  ==========================

Only the first row is evaluated in the paper; the second row is its
future-work roadmap.  This experiment runs **all four** (plus the
no-estimation baseline and the perfect-knowledge oracle) on the same
workload, cluster and load, reporting utilization, slowdown, failure rate
and reduced-submission share — so the taxonomy's qualitative ordering can be
checked: every estimator should land between the baseline and the oracle,
and explicit feedback should beat implicit within each similarity row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.cache import SweepCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import format_table
from repro.experiments.specs import ClusterSpec, EstimatorSpec, RunSpec, WorkloadSpec


@dataclass(frozen=True)
class Table1Row:
    estimator: str
    feedback: str
    similarity: str
    utilization: float
    mean_slowdown: float
    frac_failed: float
    frac_reduced: float

    def improvement_over(self, baseline: "Table1Row") -> float:
        if baseline.utilization <= 0:
            return float("inf")
        return self.utilization / baseline.utilization - 1.0


@dataclass(frozen=True)
class Table1Result:
    rows: List[Table1Row]
    load: float

    def row(self, name: str) -> Table1Row:
        for row in self.rows:
            if row.estimator == name:
                return row
        raise KeyError(f"no row named {name!r}; have {[r.estimator for r in self.rows]}")

    @property
    def baseline(self) -> Table1Row:
        return self.row("no-estimation")

    def format_table(self) -> str:
        base = self.baseline
        rows = [
            (
                r.estimator,
                r.feedback,
                r.similarity,
                f"{r.utilization:.3f}",
                f"{r.improvement_over(base):+.1%}",
                f"{r.mean_slowdown:.0f}",
                f"{r.frac_failed:.3%}",
                f"{r.frac_reduced:.0%}",
            )
            for r in self.rows
        ]
        return format_table(
            [
                "estimator",
                "feedback",
                "similarity",
                "utilization",
                "vs baseline",
                "slowdown",
                "failed exec",
                "reduced",
            ],
            rows,
            title=f"Table 1: estimation algorithms head-to-head (load {self.load:g})",
        )


def _contenders(cfg: ExperimentConfig) -> List[Tuple[str, str, str, EstimatorSpec]]:
    """The Table 1 contenders: ``(row name, feedback, similarity, estimator)``."""
    return [
        ("no-estimation", "-", "-", EstimatorSpec(name="none")),
        (
            "successive-approximation",
            "implicit",
            "yes",
            EstimatorSpec.make("successive", alpha=cfg.alpha, beta=cfg.beta),
        ),
        ("last-instance", "explicit", "yes", EstimatorSpec(name="last-instance")),
        (
            "reinforcement-learning",
            "implicit",
            "no",
            EstimatorSpec.make("rl", rng=cfg.seed),
        ),
        ("regression", "explicit", "no", EstimatorSpec(name="regression")),
        ("oracle", "(perfect)", "-", EstimatorSpec(name="oracle")),
    ]


def sweep_specs(cfg: Optional[ExperimentConfig] = None, load: float = 0.8) -> List[RunSpec]:
    """One spec per Table 1 row, in row order, all on one scaled trace."""
    cfg = cfg or ExperimentConfig()
    return [
        RunSpec(
            workload=WorkloadSpec(n_jobs=cfg.n_jobs, seed=cfg.seed, load=load),
            cluster=ClusterSpec(second_tier_mem=cfg.second_tier_mem),
            estimator=estimator,
            seed=cfg.seed,
            label=name,
        )
        for name, _, _, estimator in _contenders(cfg)
    ]


def run(
    config: Optional[ExperimentConfig] = None,
    load: float = 0.8,
    max_workers: int = 1,
    cache: Optional[SweepCache] = None,
    timeout: Optional[float] = None,
    max_retries: int = 0,
) -> Table1Result:
    """Run every Table 1 estimator on the same scaled workload.

    The rows are :func:`sweep_specs`, executed by :func:`run_sweep`:
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
        Table1Row(
            estimator=name,
            feedback=feedback,
            similarity=similarity,
            utilization=point.utilization,
            mean_slowdown=point.mean_slowdown,
            frac_failed=point.frac_failed_executions,
            frac_reduced=point.frac_reduced_submissions,
        )
        for (name, feedback, similarity, _), point in zip(_contenders(cfg), points)
    ]
    return Table1Result(rows=rows, load=load)
