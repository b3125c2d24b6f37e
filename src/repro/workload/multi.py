"""Synthetic multi-resource workloads for the §2.3 generalization.

The single-resource generator (:mod:`repro.workload.synthetic`) is
calibrated against LANL CM5; no public trace records per-job *usage* of
several resources at once, so the multi-resource experiments use this
parametric generator instead: group-structured jobs over named resources,
each resource over-provisioned by its own group-level ratio (floor +
exponential excess, the same family as the calibrated memory model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.sim.multi import MachineClass, MultiCluster, MultiJob
from repro.util.rng import RngStream, as_generator
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ResourceSpec:
    """One resource's request level and over-provisioning distribution."""

    requested: float
    ratio_floor: float = 1.5
    ratio_scale: float = 1.0

    def __post_init__(self) -> None:
        check_positive("requested", self.requested)
        if self.ratio_floor < 1.0:
            raise ValueError(f"ratio_floor must be >= 1, got {self.ratio_floor}")
        check_positive("ratio_scale", self.ratio_scale)


@dataclass(frozen=True)
class MultiTraceConfig:
    """Knobs of the multi-resource generator."""

    n_jobs: int = 1500
    jobs_per_group: int = 12
    resources: Mapping[str, ResourceSpec] = field(
        default_factory=lambda: {
            "mem": ResourceSpec(requested=32.0, ratio_scale=1.0),
            "disk": ResourceSpec(requested=200.0, ratio_scale=2.0),
        }
    )
    mean_interarrival: float = 30.0
    runtime_mu: float = 5.5
    runtime_sigma: float = 0.8
    runtime_min: float = 10.0
    runtime_max: float = 20_000.0
    proc_levels: Tuple[int, ...] = (4, 8, 16)
    proc_weights: Tuple[float, ...] = (0.5, 0.3, 0.2)

    def __post_init__(self) -> None:
        check_positive("n_jobs", self.n_jobs)
        if self.jobs_per_group < 1:
            raise ValueError(f"jobs_per_group must be >= 1, got {self.jobs_per_group}")
        if not self.resources:
            raise ValueError("need at least one resource")
        if abs(sum(self.proc_weights) - 1.0) > 1e-9:
            raise ValueError("proc_weights must sum to 1")


def generate_multi_trace(
    config: Optional[MultiTraceConfig] = None,
    rng: RngStream = 0,
) -> List[MultiJob]:
    """Generate a group-structured multi-resource job list."""
    cfg = config or MultiTraceConfig()
    gen = as_generator(rng)
    n_groups = max(cfg.n_jobs // cfg.jobs_per_group, 1)

    # Per-group over-provisioning ratio per resource.
    ratios: Dict[str, np.ndarray] = {
        name: spec.ratio_floor + gen.exponential(spec.ratio_scale, size=n_groups)
        for name, spec in cfg.resources.items()
    }

    jobs: List[MultiJob] = []
    span = cfg.n_jobs * cfg.mean_interarrival
    for i in range(cfg.n_jobs):
        g = int(gen.integers(0, n_groups))
        requested = {name: spec.requested for name, spec in cfg.resources.items()}
        used = {
            name: min(spec.requested / ratios[name][g], spec.requested)
            for name, spec in cfg.resources.items()
        }
        jobs.append(
            MultiJob(
                job_id=i + 1,
                submit_time=float(gen.uniform(0.0, span)),
                run_time=float(
                    np.clip(
                        gen.lognormal(cfg.runtime_mu, cfg.runtime_sigma),
                        cfg.runtime_min,
                        cfg.runtime_max,
                    )
                ),
                procs=int(
                    gen.choice(np.array(cfg.proc_levels), p=np.array(cfg.proc_weights))
                ),
                requested=requested,
                used=used,
                group=g,
            )
        )
    return jobs


def default_multi_cluster(
    n_large: int = 64, n_small: int = 64
) -> MultiCluster:
    """The two-class cluster of the multi-resource benchmark: large nodes
    matching the full requests, small nodes at half capacity on both axes."""
    return MultiCluster(
        [
            MachineClass(count=n_large, capacities={"mem": 32.0, "disk": 200.0}),
            MachineClass(count=n_small, capacities={"mem": 16.0, "disk": 100.0}),
        ]
    )
