"""Fault-injection study — estimation quality under machine failures.

§2.1 names "faulty machines" as a source of *false positives* for
implicit-feedback estimation: a job killed by a dying node looks, to
Algorithm 1, exactly like a job killed by an insufficient estimate, so the
group backs off (lines 11-13) for a failure that had nothing to do with
resources.  :mod:`repro.experiments.falsepositives` injects such failures
per-attempt with a fixed probability; this experiment injects the *cause* —
node failure/repair processes (:class:`~repro.sim.faults.FaultConfig`) — and
sweeps the per-node MTBF to measure how much of the estimation benefit
survives as machines get flakier:

* **implicit** — the paper's setting (alpha=2, beta=0).  One fault-kill
  freezes the victim's group at its safe value (alpha decays straight to 1),
  so every kill permanently stops that group's descent.
* **implicit-decay** — beta=0.75: alpha decays gradually (2 -> 1.5 ->
  1.125 -> 1), so a group keeps probing below its safe value for a few
  failures before freezing.  This is the "does the alpha/beta back-off
  recover?" knob.
* **explicit-guard** — with explicit feedback the kill is recognized as
  not-resource-related (granted >= used) and ignored; estimation quality
  should be insensitive to the fault rate (only capacity loss and rework
  remain).
* **no-estimation** — the baseline; faults cost it capacity and rework but
  cannot corrupt estimates it does not make.

Not a numbered artifact of the paper — like the false-positive study it
quantifies a §2.1 paragraph, with the failure mechanism modeled at the
machine level instead of the per-attempt level.
"""

from __future__ import annotations

import math
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


def _mtbf_label(mtbf: float) -> str:
    return "clean" if math.isinf(mtbf) else f"{mtbf:.0e}s"


def sweep_specs(
    cfg: Optional[ExperimentConfig] = None,
    mtbfs: Sequence[float] = (math.inf, 2e8, 5e7, 2e7),
    node_mttr: float = 3600.0,
    load: float = 0.8,
) -> List[RunSpec]:
    """The MTBF x estimator-variant grid as picklable :class:`RunSpec`s.

    This is the grid :func:`run` simulates, expressed through the sweep
    subsystem (``FaultSpec`` carries the failure knobs) so the service and
    the parallel executor can run it.  ``math.inf`` MTBF maps to a disabled
    :class:`~repro.experiments.specs.FaultSpec` (``node_mtbf=0``) because
    specs must stay strictly JSON-able.
    """
    return [spec for _, _, spec in _cells(cfg, mtbfs, node_mttr, load)]


def _cells(
    cfg: Optional[ExperimentConfig],
    mtbfs: Sequence[float],
    node_mttr: float,
    load: float,
) -> List[Tuple[float, str, RunSpec]]:
    """Each grid cell's ``(MTBF, variant, spec)``, MTBF-major."""
    cfg = cfg or ExperimentConfig()
    variants: List[Tuple[str, EstimatorSpec]] = [
        ("implicit", EstimatorSpec.make("successive", alpha=cfg.alpha, beta=0.0)),
        (
            "implicit-decay",
            EstimatorSpec.make("successive", alpha=cfg.alpha, beta=0.75),
        ),
        (
            "explicit-guard",
            EstimatorSpec.make(
                "successive", alpha=cfg.alpha, beta=0.0, explicit_guard=True
            ),
        ),
        ("no-estimation", EstimatorSpec(name="none")),
    ]
    return [
        (
            float(mtbf),
            name,
            RunSpec(
                workload=WorkloadSpec(n_jobs=cfg.n_jobs, seed=cfg.seed, load=load),
                cluster=ClusterSpec(second_tier_mem=cfg.second_tier_mem),
                estimator=estimator,
                seed=cfg.seed,
                label=f"{name}@mtbf={_mtbf_label(mtbf)}",
                faults=(
                    FaultSpec()
                    if math.isinf(mtbf)
                    else FaultSpec(node_mtbf=float(mtbf), node_mttr=node_mttr)
                ),
            ),
        )
        for mtbf in mtbfs
        for name, estimator in variants
    ]


@dataclass(frozen=True)
class FaultPoint:
    """One (MTBF, variant) cell of the sweep."""

    node_mtbf: float
    variant: str
    utilization: float
    frac_reduced: float
    n_node_failures: int
    n_fault_kills: int

    @property
    def fault_rate(self) -> float:
        """Failures per node-second (0 for the clean run) — the x axis."""
        return 0.0 if math.isinf(self.node_mtbf) else 1.0 / self.node_mtbf


@dataclass(frozen=True)
class FaultResult:
    points: List[FaultPoint]
    load: float
    node_mttr: float

    def series(self, variant: str) -> Tuple[List[float], List[float]]:
        xs = [p.fault_rate for p in self.points if p.variant == variant]
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
        """Utilization lost between the clean and the flakiest setting."""
        _, ys = self.series(variant)
        if not ys or ys[0] <= 0:
            return 0.0
        return 1.0 - ys[-1] / ys[0]

    def reduction_lost(self, variant: str) -> float:
        """How much of the reduced-submission share the faults destroyed."""
        ps = [p for p in self.points if p.variant == variant]
        if not ps or ps[0].frac_reduced <= 0:
            return 0.0
        return 1.0 - ps[-1].frac_reduced / ps[0].frac_reduced

    def format_table(self) -> str:
        rows = [
            (
                _mtbf_label(p.node_mtbf),
                p.variant,
                f"{p.utilization:.3f}",
                f"{p.frac_reduced:.0%}",
                p.n_node_failures,
                p.n_fault_kills,
            )
            for p in self.points
        ]
        table = format_table(
            ["node MTBF", "variant", "utilization", "reduced", "node fails", "kills"],
            rows,
            title=(
                f"Fault-injection study (§2.1), load {self.load:g}, "
                f"MTTR {self.node_mttr:g}s"
            ),
        )
        summary = format_table(
            ["variant", "utilization lost", "reduction lost"],
            [
                (v, f"{self.degradation(v):.1%}", f"{self.reduction_lost(v):.1%}")
                for v in self.variants
            ],
            title="Degradation, clean -> flakiest",
        )
        return table + "\n\n" + summary

    def format_chart(self) -> str:
        xs, _ = self.series(self.variants[0])
        return ascii_chart(
            xs,
            {v: self.series(v)[1] for v in self.variants},
            title="Utilization vs node fault rate (failures per node-second)",
        )


def run(
    config: Optional[ExperimentConfig] = None,
    mtbfs: Sequence[float] = (math.inf, 2e8, 5e7, 2e7),
    node_mttr: float = 3600.0,
    load: float = 0.8,
) -> FaultResult:
    """Sweep node MTBF x estimator variant at a fixed offered load.

    The default grid spans "never fails" to "each node fails every ~8
    months" — on the 1024-node cluster the latter is a cluster-wide failure
    every ~5.4 hours, enough to poison a large share of similarity groups
    over a trace without drowning the signal in raw capacity loss (downtime
    stays below 0.02% of node-seconds at the default MTTR).  Each cell
    simulates its :func:`sweep_specs` spec, so the CLI and the service run
    one grid.
    """
    # Lazy: the service parses a faults request with this module and
    # imports the executor on its own schedule.
    from repro.experiments.parallel import _simulate
    from repro.sim.engine import simulate
    from repro.sim.metrics import utilization

    points: List[FaultPoint] = []
    for mtbf, variant, spec in _cells(config, mtbfs, node_mttr, load):
        result = _simulate(spec, simulate)
        points.append(
            FaultPoint(
                node_mtbf=mtbf,
                variant=variant,
                utilization=utilization(result),
                frac_reduced=result.frac_reduced_submissions,
                n_node_failures=result.n_node_failures,
                n_fault_kills=result.n_fault_kills,
            )
        )
    return FaultResult(points=points, load=load, node_mttr=node_mttr)
