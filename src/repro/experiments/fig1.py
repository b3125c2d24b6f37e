"""Figure 1: histogram of requested/used memory ratio (log vertical axis).

Paper's observations this experiment reproduces:

* ~32.8% of jobs show a mismatch of 2x or more between requested and used
  memory,
* mismatches reach two orders of magnitude,
* a straight line fits the log-scaled histogram with R^2 = 0.69, implying
  the fraction of jobs at a given over-provisioning ratio is predictable for
  future logs of similar systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.render import ascii_chart, format_table
from repro.workload.stats import (
    OverprovisioningStats,
    overprovisioning_histogram,
    overprovisioning_stats,
)


@dataclass(frozen=True)
class Fig1Result:
    """The histogram, its regression line, and the headline statistics."""

    bin_centers: np.ndarray
    job_fractions: np.ndarray
    stats: OverprovisioningStats

    #: Paper reference values, for side-by-side reporting.
    paper_frac_ge_2: float = 0.328
    paper_r_squared: float = 0.69

    def format_table(self) -> str:
        mask = self.job_fractions > 0
        rows = [
            (f"{c:.1f}", f"{f:.5f}", f"{np.log10(f):.2f}")
            for c, f in zip(self.bin_centers[mask], self.job_fractions[mask])
        ]
        hist = format_table(
            ["ratio bin center", "fraction of jobs", "log10 fraction"],
            rows,
            title="Figure 1: requested/used memory ratio histogram",
        )
        summary = format_table(
            ["metric", "measured", "paper"],
            [
                ("fraction ratio >= 2", f"{self.stats.frac_ratio_ge_2:.3f}", f"{self.paper_frac_ge_2:.3f}"),
                ("log-hist R^2", f"{self.stats.fit.r_squared:.2f}", f"{self.paper_r_squared:.2f}"),
                ("max ratio", f"{self.stats.max_ratio:.0f}", "~100 (2 orders)"),
            ],
            title="Figure 1 summary",
        )
        return hist + "\n\n" + summary

    def format_chart(self) -> str:
        mask = self.job_fractions > 0
        return ascii_chart(
            self.bin_centers[mask],
            {"fraction of jobs": self.job_fractions[mask]},
            title="Figure 1 (log y): job fraction vs over-provisioning ratio",
            log_y=True,
        )


def run(config: Optional[ExperimentConfig] = None, bin_width: float = 5.0) -> Fig1Result:
    """Compute Figure 1 from the calibrated trace."""
    cfg = config or ExperimentConfig()
    workload = cfg.make_workload()
    centers, fractions = overprovisioning_histogram(workload, bin_width=bin_width)
    return Fig1Result(
        bin_centers=centers,
        job_fractions=fractions,
        stats=overprovisioning_stats(workload, bin_width=bin_width),
    )
