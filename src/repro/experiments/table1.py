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
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import Estimator
from repro.core.baselines import NoEstimation, OracleEstimator
from repro.core.last_instance import LastInstance
from repro.core.regression import RegressionEstimator
from repro.core.reinforcement import ReinforcementLearning
from repro.core.successive import SuccessiveApproximation
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import format_table
from repro.sim.engine import simulate
from repro.sim.metrics import mean_slowdown, utilization
from repro.workload.transforms import scale_load


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


def estimator_factories(cfg: ExperimentConfig) -> Dict[str, Tuple[str, str, Callable[[], Estimator]]]:
    """The Table 1 contenders: name -> (feedback, similarity, factory)."""
    return {
        "no-estimation": ("-", "-", NoEstimation),
        "successive-approximation": (
            "implicit",
            "yes",
            lambda: SuccessiveApproximation(alpha=cfg.alpha, beta=cfg.beta),
        ),
        "last-instance": ("explicit", "yes", LastInstance),
        "reinforcement-learning": (
            "implicit",
            "no",
            lambda: ReinforcementLearning(rng=cfg.seed),
        ),
        "regression": ("explicit", "no", RegressionEstimator),
        "oracle": ("(perfect)", "-", OracleEstimator),
    }


def run(
    config: Optional[ExperimentConfig] = None,
    load: float = 0.8,
) -> Table1Result:
    """Run every Table 1 estimator on the same scaled workload."""
    cfg = config or ExperimentConfig()
    workload = scale_load(cfg.make_sim_workload(), load)
    rows: List[Table1Row] = []
    for name, (feedback, similarity, factory) in estimator_factories(cfg).items():
        result = simulate(workload, cfg.make_cluster(), factory(), seed=cfg.seed,
                          collect_attempts=False)
        rows.append(
            Table1Row(
                estimator=name,
                feedback=feedback,
                similarity=similarity,
                utilization=utilization(result),
                mean_slowdown=mean_slowdown(result),
                frac_failed=result.frac_failed_executions,
                frac_reduced=result.frac_reduced_submissions,
            )
        )
    return Table1Result(rows=rows, load=load)
