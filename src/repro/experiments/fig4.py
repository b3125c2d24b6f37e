"""Figure 4: possible estimation gain versus group similarity.

For every similarity group with >= 10 jobs (19.4% of groups, 83% of jobs in
the paper), one point: requested/max-used memory (the reclaimable headroom,
vertical) against max-used/min-used (the similarity range, horizontal).  The
paper's two takeaways:

* most groups sit at the low end of the similarity range — the (user, app,
  req-mem) key finds genuinely similar jobs, and
* groups with gain above an order of magnitude exist *and* are tight —
  "a good starting point for effective resource estimation".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.render import ascii_chart, format_table
from repro.similarity.analysis import GainRangePoint, gain_vs_range


@dataclass(frozen=True)
class Fig4Result:
    points: List[GainRangePoint]
    frac_groups_ge_min_size: float
    frac_jobs_covered: float
    min_group_size: int

    paper_frac_groups: float = 0.194
    paper_frac_jobs: float = 0.83

    @property
    def ranges(self) -> np.ndarray:
        return np.array([p.similarity_range for p in self.points])

    @property
    def gains(self) -> np.ndarray:
        return np.array([p.potential_gain for p in self.points])

    def format_table(self) -> str:
        ranges, gains = self.ranges, self.gains
        rows = [
            ("groups plotted", len(self.points), ""),
            (
                f"groups with >= {self.min_group_size} jobs",
                f"{self.frac_groups_ge_min_size:.3f}",
                f"{self.paper_frac_groups:.3f}",
            ),
            ("jobs covered", f"{self.frac_jobs_covered:.3f}", f"{self.paper_frac_jobs:.3f}"),
            ("median similarity range", f"{np.median(ranges):.2f}", "low (tight groups)"),
            ("groups with range <= 1.5", f"{np.mean(ranges <= 1.5):.3f}", "large fraction"),
            ("groups with gain >= 10x", f"{np.mean(gains >= 10):.3f}", "> 0 (exist)"),
            ("max gain", f"{gains.max():.0f}x", "> 10x"),
        ]
        return format_table(
            ["metric", "measured", "paper"], rows, title="Figure 4 summary"
        )

    def format_chart(self) -> str:
        return ascii_chart(
            self.ranges,
            {"group": self.gains},
            title="Figure 4 (log y): potential gain vs similarity range (one mark per group)",
            log_y=True,
        )


def run(
    config: Optional[ExperimentConfig] = None, min_group_size: int = 10
) -> Fig4Result:
    cfg = config or ExperimentConfig()
    workload = cfg.make_workload()
    from repro.similarity.analysis import group_size_distribution

    dist = group_size_distribution(workload)
    points = gain_vs_range(workload, min_group_size=min_group_size)
    return Fig4Result(
        points=points,
        frac_groups_ge_min_size=dist.fraction_of_groups_at_least(min_group_size),
        frac_jobs_covered=dist.fraction_of_jobs_at_least(min_group_size),
        min_group_size=min_group_size,
    )
