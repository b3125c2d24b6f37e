"""False-positive study — quantifying §2.1's feedback-quality discussion.

The paper: implicit-feedback estimation "is more prone to false positive
cases ... job failures due to faulty programming or faulty machines.  These
failures might confuse the estimator to assume that the job failed due to
too low (insufficient) estimated resources.  In the case of explicit
feedback, however, such confusions can be avoided by comparing the resource
capacities allocated to the job and the actual resource capacities used."

This experiment injects spurious failures at increasing rates and measures
how much of the estimation benefit survives for

* plain Algorithm 1 (implicit feedback — confused by every crash),
* Algorithm 1 with the explicit guard (crashes with granted >= used are
  recognized as not-our-fault and ignored),
* the no-estimation baseline (for reference; spurious failures hurt it too,
  via wasted occupancy and retries).

Not a numbered artifact of the paper — it is the quantitative version of a
§2.1 paragraph, listed as an extension in DESIGN.md §6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.render import ascii_chart, format_table
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    FaultSpec,
    RunSpec,
    WorkloadSpec,
)


def sweep_specs(
    cfg: Optional[ExperimentConfig] = None,
    spurious_probs: Sequence[float] = (0.0, 0.02, 0.05, 0.10),
    load: float = 0.8,
) -> List[RunSpec]:
    """The spurious-rate x variant grid as picklable :class:`RunSpec`s,
    rate-major: the grid :func:`run` simulates."""
    return [spec for _, _, spec in _cells(cfg, spurious_probs, load)]


def _cells(
    cfg: Optional[ExperimentConfig],
    spurious_probs: Sequence[float],
    load: float,
) -> List[Tuple[float, str, RunSpec]]:
    """Each grid cell's ``(spurious probability, variant, spec)``."""
    cfg = cfg or ExperimentConfig()
    variants: List[Tuple[str, EstimatorSpec]] = [
        ("implicit", EstimatorSpec.make("successive", alpha=cfg.alpha, beta=cfg.beta)),
        (
            "explicit-guard",
            EstimatorSpec.make(
                "successive", alpha=cfg.alpha, beta=cfg.beta, explicit_guard=True
            ),
        ),
        ("no-estimation", EstimatorSpec(name="none")),
    ]
    return [
        (
            float(prob),
            name,
            RunSpec(
                workload=WorkloadSpec(n_jobs=cfg.n_jobs, seed=cfg.seed, load=load),
                cluster=ClusterSpec(second_tier_mem=cfg.second_tier_mem),
                estimator=estimator,
                seed=cfg.seed,
                label=f"{name}@spurious={float(prob):g}",
                faults=FaultSpec(spurious=float(prob)),
            ),
        )
        for prob in spurious_probs
        for name, estimator in variants
    ]


@dataclass(frozen=True)
class FalsePositivePoint:
    spurious_prob: float
    variant: str
    utilization: float
    frac_reduced: float
    n_spurious: int


@dataclass(frozen=True)
class FalsePositiveResult:
    points: List[FalsePositivePoint]
    load: float

    def series(self, variant: str) -> Tuple[List[float], List[float]]:
        xs = [p.spurious_prob for p in self.points if p.variant == variant]
        ys = [p.utilization for p in self.points if p.variant == variant]
        return xs, ys

    @property
    def variants(self) -> List[str]:
        seen: List[str] = []
        for p in self.points:
            if p.variant not in seen:
                seen.append(p.variant)
        return seen

    def degradation(self, variant: str) -> float:
        """Utilization lost between the clean and the noisiest setting."""
        _, ys = self.series(variant)
        if not ys or ys[0] <= 0:
            return 0.0
        return 1.0 - ys[-1] / ys[0]

    def format_table(self) -> str:
        rows = [
            (
                f"{p.spurious_prob:.2f}",
                p.variant,
                f"{p.utilization:.3f}",
                f"{p.frac_reduced:.0%}",
                p.n_spurious,
            )
            for p in self.points
        ]
        table = format_table(
            ["spurious prob", "variant", "utilization", "reduced", "spurious fails"],
            rows,
            title=f"False-positive study (§2.1), load {self.load:g}",
        )
        summary = format_table(
            ["variant", "utilization lost to noise"],
            [(v, f"{self.degradation(v):.1%}") for v in self.variants],
            title="Degradation, clean -> noisiest",
        )
        return table + "\n\n" + summary

    def format_chart(self) -> str:
        xs, _ = self.series(self.variants[0])
        return ascii_chart(
            xs,
            {v: self.series(v)[1] for v in self.variants},
            title="Utilization vs spurious-failure probability",
        )


def run(
    config: Optional[ExperimentConfig] = None,
    spurious_probs: Sequence[float] = (0.0, 0.02, 0.05, 0.10),
    load: float = 0.8,
) -> FalsePositiveResult:
    """Run the sweep over spurious-failure rates and estimator variants.

    Each cell simulates its :func:`sweep_specs` spec, so the CLI and the
    service run one grid.  The table needs each run's spurious-failure
    count, which a sweep point does not carry, so the cells run in this
    process rather than through the executor.
    """
    # Lazy: the service parses a falsepositives request with this module
    # and imports the executor on its own schedule.
    from repro.experiments.parallel import _simulate
    from repro.sim.engine import simulate
    from repro.sim.metrics import utilization

    points: List[FalsePositivePoint] = []
    for prob, variant, spec in _cells(config, spurious_probs, load):
        result = _simulate(spec, simulate)
        points.append(
            FalsePositivePoint(
                spurious_prob=prob,
                variant=variant,
                utilization=utilization(result),
                frac_reduced=result.frac_reduced_submissions,
                n_spurious=result.n_spurious_failures,
            )
        )
    return FalsePositiveResult(points=points, load=load)
