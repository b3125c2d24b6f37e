"""Group-quality measurements: the analyses behind Figures 3 and 4.

§2.2: "Two main measurements can qualitatively indicate a successful
selection of job request parameters for similarity groups":

* **Figure 3** — the distribution of jobs across group sizes.  Ideally few,
  large groups spanning most jobs (more feedback per group, more jobs
  benefiting); LANL CM5 under the paper's key instead shows many groups with
  the spanned job fraction generally falling with size.
* **Figure 4** — per group (>= 10 jobs), the *potential gain*
  (requested / max used memory) against the *similarity range*
  (max used / min used).  Many groups hugging the low-range end indicates a
  good key; groups with gain above an order of magnitude are the big
  estimation opportunities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.similarity.groups import build_groups
from repro.similarity.keys import KeyFunction
from repro.workload.job import Workload


@dataclass(frozen=True)
class GroupSizeDistribution:
    """Figure 3's data: for each distinct group size, the fraction of jobs.

    ``sizes[k]`` is a group size occurring in the trace and ``job_fraction[k]``
    the fraction of all jobs living in groups of exactly that size.
    """

    sizes: np.ndarray
    job_fraction: np.ndarray
    n_groups: int
    n_jobs: int

    def fraction_of_groups_at_least(self, min_size: int) -> float:
        """Fraction of groups with >= min_size jobs (paper: 19.4% at 10)."""
        counts = self.job_fraction * self.n_jobs / self.sizes  # groups per size
        mask = self.sizes >= min_size
        return float(counts[mask].sum() / self.n_groups)

    def fraction_of_jobs_at_least(self, min_size: int) -> float:
        """Fraction of jobs in groups with >= min_size jobs (paper: 83% at 10)."""
        mask = self.sizes >= min_size
        return float(self.job_fraction[mask].sum())

    def format_table(self, max_rows: int = 20) -> str:
        lines = ["group size | fraction of jobs", "-----------+-----------------"]
        step = max(1, len(self.sizes) // max_rows)
        for i in range(0, len(self.sizes), step):
            lines.append(f"{int(self.sizes[i]):>10d} | {self.job_fraction[i]:.5f}")
        lines.append(
            f"({self.n_groups} groups over {self.n_jobs} jobs; "
            f">=10-job groups: {self.fraction_of_groups_at_least(10):.1%} of groups, "
            f"{self.fraction_of_jobs_at_least(10):.1%} of jobs)"
        )
        return "\n".join(lines)


def group_size_distribution(
    workload: Workload,
    key_fn: Optional[KeyFunction] = None,
    exclude_full_machine: bool = True,
) -> GroupSizeDistribution:
    """Compute Figure 3's histogram from a workload.

    ``exclude_full_machine`` mirrors the paper's setup, which analyses the
    trace after dropping the six 1024-node jobs.
    """
    jobs = workload.jobs
    if exclude_full_machine and workload.total_nodes:
        jobs = [j for j in jobs if j.procs < workload.total_nodes]
    if not jobs:
        raise ValueError("no jobs to analyse")
    groups = build_groups(jobs, key_fn)
    sizes = np.array(sorted({g.n_jobs for g in groups.values()}))
    n_jobs = len(jobs)
    frac = np.zeros_like(sizes, dtype=float)
    size_to_idx = {int(s): i for i, s in enumerate(sizes)}
    for g in groups.values():
        frac[size_to_idx[g.n_jobs]] += g.n_jobs / n_jobs
    return GroupSizeDistribution(
        sizes=sizes, job_fraction=frac, n_groups=len(groups), n_jobs=n_jobs
    )


@dataclass(frozen=True)
class GainRangePoint:
    """One group's point in Figure 4."""

    key: object
    n_jobs: int
    similarity_range: float  # max_used / min_used (horizontal axis)
    potential_gain: float  # req_mem / max_used (vertical axis)


def gain_vs_range(
    workload: Workload,
    key_fn: Optional[KeyFunction] = None,
    min_group_size: int = 10,
    exclude_full_machine: bool = True,
) -> List[GainRangePoint]:
    """Figure 4's scatter: gain vs similarity range for groups >= min size.

    The paper restricts the plot to groups of ten or more jobs "since the
    largest gain in estimation is obtained from the largest groups".
    """
    jobs = workload.jobs
    if exclude_full_machine and workload.total_nodes:
        jobs = [j for j in jobs if j.procs < workload.total_nodes]
    groups = build_groups(jobs, key_fn)
    points = []
    for g in groups.values():
        if g.n_jobs < min_group_size:
            continue
        points.append(
            GainRangePoint(
                key=g.key,
                n_jobs=g.n_jobs,
                similarity_range=g.similarity_range,
                potential_gain=g.potential_gain,
            )
        )
    return points


@dataclass(frozen=True)
class SimilarityReport:
    """Combined key-quality report for a workload under a given key."""

    n_jobs: int
    n_groups: int
    frac_groups_ge_10: float
    frac_jobs_in_ge_10: float
    median_similarity_range: float
    frac_tight_groups: float  # range <= 1.5 among groups >= 10
    frac_high_gain_groups: float  # gain >= 10 among groups >= 10
    max_potential_gain: float

    def format_report(self) -> str:
        return "\n".join(
            [
                f"jobs                         : {self.n_jobs}",
                f"similarity groups            : {self.n_groups}  (paper: 9885)",
                f"groups with >= 10 jobs       : {self.frac_groups_ge_10:.1%}  (paper: 19.4%)",
                f"jobs in those groups         : {self.frac_jobs_in_ge_10:.1%}  (paper: 83%)",
                f"median similarity range      : {self.median_similarity_range:.2f}",
                f"tight groups (range <= 1.5)  : {self.frac_tight_groups:.1%}",
                f"high-gain groups (gain >= 10): {self.frac_high_gain_groups:.1%}",
                f"max potential gain           : {self.max_potential_gain:.1f}x",
            ]
        )


def similarity_report(
    workload: Workload,
    key_fn: Optional[KeyFunction] = None,
    min_group_size: int = 10,
) -> SimilarityReport:
    """Evaluate a similarity key on a workload (the §2.2 methodology)."""
    dist = group_size_distribution(workload, key_fn)
    points = gain_vs_range(workload, key_fn, min_group_size=min_group_size)
    ranges = np.array([p.similarity_range for p in points]) if points else np.array([np.nan])
    gains = np.array([p.potential_gain for p in points]) if points else np.array([np.nan])
    return SimilarityReport(
        n_jobs=dist.n_jobs,
        n_groups=dist.n_groups,
        frac_groups_ge_10=dist.fraction_of_groups_at_least(min_group_size),
        frac_jobs_in_ge_10=dist.fraction_of_jobs_at_least(min_group_size),
        median_similarity_range=float(np.nanmedian(ranges)),
        frac_tight_groups=float(np.nanmean(ranges <= 1.5)) if points else 0.0,
        frac_high_gain_groups=float(np.nanmean(gains >= 10.0)) if points else 0.0,
        max_potential_gain=float(np.nanmax(gains)) if points else 0.0,
    )
