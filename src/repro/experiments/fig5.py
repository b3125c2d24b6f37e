"""Figure 5: effect of resource estimation on cluster utilization.

The paper's headline simulation: the LANL CM5 workload (minus the six
full-machine jobs) on a heterogeneous cluster of 512 x 32 MB plus
512 x 24 MB nodes, FCFS, no preemption, Algorithm 1 with alpha = 2 and
beta = 0, implicit feedback.  Utilization-vs-load curves with and without
estimation; comparing the saturation points gives the paper's 58%
improvement.

The estimation run also reports the §3.2 conservativeness statistics
(failed executions, reduced submissions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.experiments.cache import SweepCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import ascii_chart, format_table
from repro.experiments.runner import LoadSweep
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
)

if TYPE_CHECKING:
    from repro.sim.metrics import SaturationPoint


@dataclass(frozen=True)
class Fig5Result:
    without_estimation: LoadSweep
    with_estimation: LoadSweep
    saturation_without: SaturationPoint
    saturation_with: SaturationPoint
    policy_name: str

    paper_improvement: float = 0.58

    @property
    def improvement(self) -> float:
        """Relative saturation-utilization improvement (paper: ~0.58)."""
        base = self.saturation_without.max_utilization
        if base <= 0:
            return float("inf")
        return self.saturation_with.max_utilization / base - 1.0

    def format_table(self) -> str:
        rows = [
            (
                f"{p0.load:.2f}",
                f"{p0.utilization:.3f}",
                f"{p1.utilization:.3f}",
                f"{p1.utilization / p0.utilization:.2f}" if p0.utilization else "inf",
            )
            for p0, p1 in zip(
                self.without_estimation.points, self.with_estimation.points
            )
        ]
        table = format_table(
            ["offered load", "util (no est)", "util (est)", "ratio"],
            rows,
            title=f"Figure 5: utilization vs load ({self.policy_name}, 512x32MB + 512x24MB)",
        )
        summary = format_table(
            ["metric", "measured", "paper"],
            [
                (
                    "saturation util (no est)",
                    f"{self.saturation_without.max_utilization:.3f}",
                    "(baseline)",
                ),
                (
                    "saturation util (est)",
                    f"{self.saturation_with.max_utilization:.3f}",
                    "(improved)",
                ),
                ("improvement", f"{self.improvement:+.1%}", f"+{self.paper_improvement:.0%}"),
                (
                    "failed executions (max over loads)",
                    f"{self.with_estimation.max_frac_failed:.3%}",
                    "<= 0.01%",
                ),
                (
                    "reduced submissions (range)",
                    "{:.0%}-{:.0%}".format(*self.with_estimation.reduced_range),
                    "15%-40%",
                ),
            ],
            title="Figure 5 summary",
        )
        return table + "\n\n" + summary

    def format_chart(self) -> str:
        return ascii_chart(
            self.without_estimation.loads,
            {
                "no estimation": self.without_estimation.utilizations,
                "with estimation": self.with_estimation.utilizations,
            },
            title="Figure 5: utilization vs offered load",
        )


def sweep_specs(
    cfg: ExperimentConfig,
    estimator: EstimatorSpec,
    policy: str = "fcfs",
    label: str = "",
) -> List[RunSpec]:
    """One spec per load point of the Figure 5/6 grid for one estimator."""
    return [
        RunSpec(
            workload=WorkloadSpec(n_jobs=cfg.n_jobs, seed=cfg.seed, load=load),
            cluster=ClusterSpec(second_tier_mem=cfg.second_tier_mem),
            estimator=estimator,
            policy=PolicySpec(name=policy),
            seed=cfg.seed,
            label=f"{label or estimator.name}@load{load:g}",
        )
        for load in cfg.loads
    ]


def grid_specs(cfg: ExperimentConfig, policy: str = "fcfs") -> List[RunSpec]:
    """The Figure 5/6 grid: every load without estimation, then with it."""
    if policy not in ("fcfs", "easy-backfilling"):
        raise ValueError(f"unknown policy {policy!r}")
    return sweep_specs(
        cfg, EstimatorSpec(name="none"), policy=policy, label="no estimation"
    ) + sweep_specs(
        cfg,
        EstimatorSpec.make("successive", alpha=cfg.alpha, beta=cfg.beta),
        policy=policy,
        label="with estimation",
    )


def run(
    config: Optional[ExperimentConfig] = None,
    policy: str = "fcfs",
    max_workers: int = 1,
    cache: Optional[SweepCache] = None,
    timeout: Optional[float] = None,
    max_retries: int = 0,
) -> Fig5Result:
    """Run the Figure 5 sweep.

    ``policy`` may be ``"fcfs"`` (the paper's) or ``"easy-backfilling"`` —
    the variant the paper defers to future work, provided to test its
    conjecture that the gains carry over.  ``max_workers > 1`` fans the
    2 x len(loads) runs out over a process pool; results are identical to
    the serial path point for point.  Pass a
    :class:`~repro.experiments.cache.SweepCache` to memoize points on disk.
    ``timeout``/``max_retries`` go to :func:`run_sweep` as they are.
    """
    # Lazy: the service builds this grid (grid_specs) on its parse path.
    from repro.experiments.parallel import run_sweep, sweep_to_load_sweep
    from repro.sim.metrics import saturation_point

    specs = grid_specs(config or ExperimentConfig(), policy)
    report = run_sweep(
        specs,
        max_workers=max_workers,
        cache=cache,
        timeout=timeout,
        max_retries=max_retries,
    )
    n = len(specs) // 2
    without = sweep_to_load_sweep("no estimation", report.outcomes[:n])
    with_est = sweep_to_load_sweep("with estimation", report.outcomes[n:])
    return Fig5Result(
        without_estimation=without,
        with_estimation=with_est,
        saturation_without=saturation_point(without.loads, without.utilizations),
        saturation_with=saturation_point(with_est.loads, with_est.utilizations),
        policy_name=policy,
    )
