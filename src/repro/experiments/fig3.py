"""Figure 3: distribution of jobs according to similarity-group size.

Under the paper's (user, app, requested-memory) key the LANL CM5 trace splits
into 9885 disjoint groups; the histogram shows many groups, with the spanned
job fraction generally falling as group size grows.  The companion §2.2
statistics — 19.4% of groups hold >= 10 jobs, covering 83% of all jobs — are
reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.render import ascii_chart, format_table
from repro.similarity.analysis import GroupSizeDistribution, group_size_distribution


@dataclass(frozen=True)
class Fig3Result:
    distribution: GroupSizeDistribution

    paper_n_groups: int = 9885
    paper_frac_groups_ge_10: float = 0.194
    paper_frac_jobs_in_ge_10: float = 0.83

    def format_table(self) -> str:
        dist = self.distribution
        summary = format_table(
            ["metric", "measured", "paper"],
            [
                ("similarity groups", dist.n_groups, self.paper_n_groups),
                (
                    "groups with >= 10 jobs",
                    f"{dist.fraction_of_groups_at_least(10):.3f}",
                    f"{self.paper_frac_groups_ge_10:.3f}",
                ),
                (
                    "jobs in such groups",
                    f"{dist.fraction_of_jobs_at_least(10):.3f}",
                    f"{self.paper_frac_jobs_in_ge_10:.3f}",
                ),
            ],
            title="Figure 3 summary (key: user, app, requested memory)",
        )
        return summary + "\n\n" + dist.format_table()

    def format_chart(self) -> str:
        return ascii_chart(
            self.distribution.sizes,
            {"fraction of jobs": self.distribution.job_fraction},
            title="Figure 3 (log y): job fraction vs similarity-group size",
            log_y=True,
        )


def run(config: Optional[ExperimentConfig] = None) -> Fig3Result:
    cfg = config or ExperimentConfig()
    return Fig3Result(distribution=group_size_distribution(cfg.make_workload()))
