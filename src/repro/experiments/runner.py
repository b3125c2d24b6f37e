"""Sweep result records for the simulation experiments (Figures 5, 6, 8).

A *load sweep* runs the same (workload, cluster, estimator) combination over
a grid of offered loads, rescaling arrival times per point
(:func:`repro.workload.transforms.scale_load`), and records utilization and
slowdown at each: one :class:`SweepPoint` per load, folded into a
:class:`LoadSweep` series.

The experiments describe each run as a picklable
:class:`~repro.experiments.specs.RunSpec` and execute the grid through
:func:`repro.experiments.parallel.run_sweep` (multi-process fan-out plus
the on-disk result cache), of which serial in-process execution is the
``max_workers=1`` degenerate case;
:func:`repro.experiments.parallel.sweep_to_load_sweep` folds one
configuration's outcomes into a :class:`LoadSweep`.  A one-off run outside
a sweep is a plain :func:`repro.sim.engine.simulate` call.

The result cache stores :class:`SweepPoint` records, so the sweep service
imports this module on its parse path; numpy loads only when a
:class:`LoadSweep` array property is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np


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
        import numpy as np

        return np.array([p.load for p in self.points])

    @property
    def utilizations(self) -> np.ndarray:
        import numpy as np

        return np.array([p.utilization for p in self.points])

    @property
    def slowdowns(self) -> np.ndarray:
        import numpy as np

        return np.array([p.mean_slowdown for p in self.points])

    @property
    def max_frac_failed(self) -> float:
        return max((p.frac_failed_executions for p in self.points), default=0.0)

    @property
    def reduced_range(self) -> Tuple[float, float]:
        """Min/max share of reduced submissions across load points."""
        fracs = [p.frac_reduced_submissions for p in self.points]
        return (min(fracs), max(fracs)) if fracs else (0.0, 0.0)
