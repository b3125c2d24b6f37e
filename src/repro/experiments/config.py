"""Shared experiment configuration.

Every experiment derives its inputs from one :class:`ExperimentConfig`:
trace length, seed, the load grid for sweeps, and the paper's algorithm
parameters (alpha = 2, beta = 0; §3.1).  ``ExperimentConfig()`` is the fast
default used by the benchmark suite; :meth:`ExperimentConfig.full` matches
the paper's full 122,055-job trace.

The sweep service validates a submission's config with this class, so the
trace generator loads only when a workload is made.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Tuple

from repro.cluster.builder import paper_cluster
from repro.util.validation import check_positive

if TYPE_CHECKING:
    from repro.cluster.cluster import Cluster
    from repro.workload.job import Workload


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    Attributes
    ----------
    n_jobs:
        Synthetic trace length.  The default (20,000) reproduces every
        qualitative result in seconds; the full 122,055 matches the paper.
    seed:
        Master seed: the trace, failure model, and any estimator randomness
        all derive from it.
    loads:
        Offered-load grid for the Figure 5/6 sweeps.
    alpha / beta:
        Algorithm 1 parameters; the paper's simulations use (2, 0).
    second_tier_mem:
        The Figure 5/6 cluster's small-machine memory (paper: 24 MB).
    """

    n_jobs: int = 20_000
    seed: int = 0
    loads: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
    alpha: float = 2.0
    beta: float = 0.0
    second_tier_mem: float = 24.0

    def __post_init__(self) -> None:
        check_positive("n_jobs", self.n_jobs)
        if not self.loads:
            raise ValueError("need at least one load point")
        for load in self.loads:
            check_positive("load", load)

    @classmethod
    def full(cls, **overrides) -> "ExperimentConfig":
        """The paper-scale configuration (full trace length)."""
        return replace(cls(n_jobs=122_055), **overrides)

    # ------------------------------------------------------------- factories
    def make_workload(self) -> Workload:
        """The calibrated synthetic LANL CM5 trace (full-machine jobs kept)."""
        from repro.workload.lanl_cm5 import lanl_cm5_like

        return lanl_cm5_like(n_jobs=self.n_jobs, seed=self.seed)

    def make_sim_workload(self) -> Workload:
        """The trace as simulated: full-1024-node jobs removed (§3.1)."""
        from repro.workload.transforms import drop_full_machine_jobs

        return drop_full_machine_jobs(self.make_workload())

    def make_cluster(self, second_tier_mem: float = None) -> Cluster:
        """The 512x32MB + 512x``m``MB experimental cluster."""
        m = self.second_tier_mem if second_tier_mem is None else second_tier_mem
        return paper_cluster(m)
