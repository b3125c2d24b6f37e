"""Figure 8: utilization improvement vs second-tier memory size.

The sweep: clusters of 512 x 32 MB plus 512 x ``m`` MB for ``m`` in 1..32,
all other parameters as in Figure 5.  The paper's findings:

* improvement is confined to the ``m`` in [16, 28] band (and, trivially,
  absent at 32 where the cluster is homogeneous) — the 16 MB wall is
  Algorithm 1's alpha step (32/alpha = 16) overshooting smaller tiers,
* within the band, the improvement is linear in the **node count of the
  jobs that benefit** from estimation (R^2 = 0.991), which is what makes
  cluster *design* possible (pick ``m`` maximizing that count),
* across all configurations, at most ~0.01% of executions fail while
  15-40% of submissions carry reduced estimates.

Each ``m`` is simulated at one fixed offered load (default 0.8, inside the
saturated regime of Figure 5) rather than a full load sweep per point; the
ratio of utilizations at a saturating load is the same comparison the paper
makes at the saturation knee, at 1/10th the compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.experiments.cache import SweepCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import ascii_chart, format_table
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    RunSpec,
    WorkloadSpec,
)

if TYPE_CHECKING:
    import numpy as np

    from repro.workload.stats import RegressionFit


@dataclass(frozen=True)
class Fig8Point:
    second_tier_mem: float
    util_without: float
    util_with: float
    benefiting_node_count: int
    frac_failed_executions: float
    frac_reduced_submissions: float

    @property
    def ratio(self) -> float:
        return self.util_with / self.util_without if self.util_without > 0 else float("inf")


@dataclass(frozen=True)
class Fig8Result:
    points: List[Fig8Point]
    load: float
    #: Linear fit of improvement vs benefiting node count over the gain band.
    node_count_fit: Optional[RegressionFit]

    paper_band: Tuple[float, float] = (16.0, 28.0)
    paper_fit_r2: float = 0.991

    @property
    def mems(self) -> np.ndarray:
        import numpy as np

        return np.array([p.second_tier_mem for p in self.points])

    @property
    def ratios(self) -> np.ndarray:
        import numpy as np

        return np.array([p.ratio for p in self.points])

    def band_points(self) -> List[Fig8Point]:
        lo, hi = self.paper_band
        return [p for p in self.points if lo <= p.second_tier_mem <= hi]

    @property
    def improvement_in_band(self) -> float:
        import numpy as np

        band = self.band_points()
        return float(np.mean([p.ratio for p in band])) - 1.0 if band else 0.0

    @property
    def improvement_below_band(self) -> float:
        import numpy as np

        below = [p for p in self.points if p.second_tier_mem < self.paper_band[0]]
        return float(np.mean([p.ratio for p in below])) - 1.0 if below else 0.0

    @property
    def max_frac_failed(self) -> float:
        return max(p.frac_failed_executions for p in self.points)

    @property
    def reduced_range(self) -> Tuple[float, float]:
        fracs = [p.frac_reduced_submissions for p in self.points]
        return (min(fracs), max(fracs))

    def format_table(self) -> str:
        rows = [
            (
                f"{p.second_tier_mem:.0f}",
                f"{p.util_without:.3f}",
                f"{p.util_with:.3f}",
                f"{p.ratio:.2f}",
                p.benefiting_node_count,
                f"{p.frac_failed_executions:.3%}",
            )
            for p in self.points
        ]
        table = format_table(
            [
                "tier-2 MB",
                "util (no est)",
                "util (est)",
                "ratio",
                "benefiting nodes",
                "failed exec",
            ],
            rows,
            title=f"Figure 8: utilization ratio vs second-tier memory (load {self.load:g})",
        )
        fit_txt = (
            f"{self.node_count_fit.r_squared:.3f}" if self.node_count_fit else "n/a"
        )
        summary = format_table(
            ["metric", "measured", "paper"],
            [
                (
                    "mean improvement in 16-28MB band",
                    f"{self.improvement_in_band:+.1%}",
                    "large (> 0)",
                ),
                (
                    "mean improvement below 16MB",
                    f"{self.improvement_below_band:+.1%}",
                    "~0",
                ),
                ("improvement at 32MB (homogeneous)", f"{self.points[-1].ratio - 1:+.1%}"
                 if self.points and self.points[-1].second_tier_mem == 32.0 else "n/a", "0"),
                ("node-count fit R^2 (band)", fit_txt, f"{self.paper_fit_r2:.3f}"),
                ("failed executions (max)", f"{self.max_frac_failed:.3%}", "<= 0.01%"),
                (
                    "reduced submissions (range)",
                    "{:.0%}-{:.0%}".format(*self.reduced_range),
                    "15%-40%",
                ),
            ],
            title="Figure 8 summary",
        )
        return table + "\n\n" + summary

    def format_chart(self) -> str:
        return ascii_chart(
            self.mems,
            {"util(est)/util(no est)": self.ratios},
            title="Figure 8: utilization ratio vs second-tier memory size",
        )


def default_mems(cfg: ExperimentConfig) -> List[float]:
    """The second-tier sizes swept: every integer 1..32 at full scale, a
    representative subset dense inside and around the paper's improvement
    band otherwise."""
    if cfg.n_jobs >= 100_000:
        return [float(m) for m in range(1, 33)]
    return [1, 4, 8, 12, 14, 15, 16, 18, 20, 22, 24, 26, 28, 30, 31, 32]


def sweep_specs(
    cfg: Optional[ExperimentConfig] = None,
    mems: Optional[Sequence[float]] = None,
    load: float = 0.8,
) -> List[RunSpec]:
    """The Figure 8 grid — (without, with) estimation per second-tier size —
    as picklable :class:`RunSpec`s, in the order :func:`run` consumes them."""
    cfg = cfg or ExperimentConfig()
    mems = default_mems(cfg) if mems is None else list(mems)
    workload_spec = WorkloadSpec(n_jobs=cfg.n_jobs, seed=cfg.seed, load=load)
    estimators = (
        EstimatorSpec(name="none"),
        EstimatorSpec.make("successive", alpha=cfg.alpha, beta=cfg.beta),
    )
    return [
        RunSpec(
            workload=workload_spec,
            cluster=ClusterSpec(second_tier_mem=float(m)),
            estimator=est,
            seed=cfg.seed,
            label=f"{est.name}@tier2={m:g}MB",
        )
        for m in mems
        for est in estimators
    ]


def run(
    config: Optional[ExperimentConfig] = None,
    mems: Optional[Sequence[float]] = None,
    load: float = 0.8,
    max_workers: int = 1,
    cache: Optional[SweepCache] = None,
    timeout: Optional[float] = None,
    max_retries: int = 0,
) -> Fig8Result:
    """Run the Figure 8 sweep.

    ``mems`` defaults to every integer size 1..32 at full scale; the fast
    configuration uses a representative subset dense inside and around the
    paper's improvement band.  The 2 x len(mems) simulation runs are
    independent: ``max_workers > 1`` fans them out over a process pool and
    ``cache`` memoizes the per-configuration points on disk.
    ``timeout``/``max_retries`` go to :func:`run_sweep` as they are.
    """
    # Lazy: the service builds this grid (sweep_specs) on its parse path.
    from repro.cluster.builder import design_second_tier
    from repro.experiments.parallel import run_sweep
    from repro.workload.stats import linear_fit

    cfg = config or ExperimentConfig()
    mems = default_mems(cfg) if mems is None else list(mems)
    scaled = WorkloadSpec(n_jobs=cfg.n_jobs, seed=cfg.seed, load=load).materialize()

    design = {
        c.second_tier_mem: c
        for c in design_second_tier(scaled, mems, alpha=cfg.alpha)
    }

    specs = sweep_specs(cfg, mems, load)
    sweep_points = run_sweep(
        specs,
        max_workers=max_workers,
        cache=cache,
        timeout=timeout,
        max_retries=max_retries,
    ).points()

    points: List[Fig8Point] = []
    for i, m in enumerate(mems):
        p_without, p_with = sweep_points[2 * i], sweep_points[2 * i + 1]
        points.append(
            Fig8Point(
                second_tier_mem=float(m),
                util_without=p_without.utilization,
                util_with=p_with.utilization,
                benefiting_node_count=design[float(m)].benefiting_node_count,
                frac_failed_executions=p_with.frac_failed_executions,
                frac_reduced_submissions=p_with.frac_reduced_submissions,
            )
        )

    lo, hi = 16.0, 28.0
    band = [p for p in points if lo <= p.second_tier_mem <= hi]
    fit = None
    if len(band) >= 3:
        fit = linear_fit(
            [p.benefiting_node_count for p in band],
            [p.ratio for p in band],
        )
    return Fig8Result(points=points, load=load, node_count_fit=fit)
