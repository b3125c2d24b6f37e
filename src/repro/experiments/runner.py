"""Shared sweep machinery for the simulation experiments (Figures 5, 6, 8).

A *load sweep* runs the same (workload, cluster, estimator) combination over
a grid of offered loads, rescaling arrival times per point
(:func:`repro.workload.transforms.scale_load`), and records utilization and
slowdown at each.

The headline experiments no longer thread factory closures through this
module: they describe each run as a picklable
:class:`~repro.experiments.specs.RunSpec` and execute the grid through
:func:`repro.experiments.parallel.run_sweep` (multi-process fan-out plus
the on-disk result cache), of which serial in-process execution is the
``max_workers=1`` degenerate case.  :func:`load_sweep` remains as the
factory-based in-process helper for ad-hoc sweeps over estimators that are
not registry-constructible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.core.base import Estimator
from repro.sim import Policy, SimResult, mean_slowdown, simulate, utilization
from repro.sim.faults import FaultConfig
from repro.workload import Workload, scale_load

EstimatorFactory = Callable[[], Estimator]
ClusterFactory = Callable[[], Cluster]
PolicyFactory = Callable[[], Policy]


@dataclass(frozen=True)
class SweepPoint:
    """One load point of a sweep."""

    load: float
    utilization: float
    mean_slowdown: float
    frac_failed_executions: float
    frac_reduced_submissions: float
    wasted_node_seconds: float


@dataclass(frozen=True)
class LoadSweep:
    """A full utilization/slowdown-vs-load series for one configuration."""

    label: str
    points: Tuple[SweepPoint, ...]

    @property
    def loads(self) -> np.ndarray:
        return np.array([p.load for p in self.points])

    @property
    def utilizations(self) -> np.ndarray:
        return np.array([p.utilization for p in self.points])

    @property
    def slowdowns(self) -> np.ndarray:
        return np.array([p.mean_slowdown for p in self.points])

    @property
    def max_frac_failed(self) -> float:
        return max((p.frac_failed_executions for p in self.points), default=0.0)

    @property
    def reduced_range(self) -> Tuple[float, float]:
        """Min/max share of reduced submissions across load points."""
        fracs = [p.frac_reduced_submissions for p in self.points]
        return (min(fracs), max(fracs)) if fracs else (0.0, 0.0)


def run_point(
    workload: Workload,
    cluster: Cluster,
    estimator: Estimator,
    policy: Optional[Policy] = None,
    seed: int = 0,
    collect_attempts: bool = False,
    fault_config: Optional["FaultConfig"] = None,
    spurious_failure_prob: float = 0.0,
) -> SimResult:
    """One simulation run with the experiment defaults (FCFS, attempt trace
    off for speed): :func:`repro.sim.engine.simulate` with
    ``collect_attempts=False``, so it runs on the fast lane whenever the
    configuration is eligible and on the scalar engine otherwise.

    ``fault_config`` switches on node-level fault injection.
    ``spurious_failure_prob`` is the §2.1 per-attempt false-positive
    probability.
    """
    return simulate(
        workload,
        cluster,
        estimator=estimator,
        policy=policy,
        seed=seed,
        spurious_failure_prob=spurious_failure_prob,
        fault_config=fault_config,
        collect_attempts=collect_attempts,
    )


def load_sweep(
    workload: Workload,
    cluster_factory: ClusterFactory,
    estimator_factory: EstimatorFactory,
    loads: Sequence[float],
    label: str,
    policy_factory: Optional[PolicyFactory] = None,
    seed: int = 0,
) -> LoadSweep:
    """Run one configuration across the load grid.

    The failure-model seed is fixed across load points so curves differ only
    by the arrival-time rescaling, not by resampled failure noise.
    """
    points: List[SweepPoint] = []
    for load in loads:
        scaled = scale_load(workload, load)
        result = run_point(
            scaled,
            cluster_factory(),
            estimator_factory(),
            policy=policy_factory() if policy_factory else None,
            seed=seed,
        )
        points.append(
            SweepPoint(
                load=float(load),
                utilization=utilization(result),
                mean_slowdown=mean_slowdown(result),
                frac_failed_executions=result.frac_failed_executions,
                frac_reduced_submissions=result.frac_reduced_submissions,
                wasted_node_seconds=result.wasted_node_seconds,
            )
        )
    return LoadSweep(label=label, points=tuple(points))
