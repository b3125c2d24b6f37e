"""Figure 7: estimated memory of one similarity group across cycles.

The paper's trajectory: a group requesting 32 MB whose jobs actually use
slightly more than 5 MB.  With alpha = 2, beta = 0 the estimate halves each
cycle — 32, 16, 8 — until the 4 MB attempt drops below the actual usage, the
job terminates abnormally, and the estimate settles at the last safe value:
8 MB, "a four-fold reduction in memory resources".

The descent below 24 MB requires machine classes at those sizes (rounding is
to cluster capacity levels), so this experiment runs on a ladder containing
{4, 8, 16, 24, 32} MB — e.g. a cluster assembled from the Figure 8 sweep's
tiers.  Two drivers are provided: a direct estimator loop (exact, used for
the table) and a full simulation of repeated submissions (used by the tests
to confirm the integrated system produces the same trajectory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.ladder import CapacityLadder
from repro.core.base import Feedback
from repro.core.successive import SuccessiveApproximation
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import ascii_chart, format_table
from repro.workload.job import Job

#: Capacity levels available to the Figure 7 scenario.
FIG7_LEVELS: Tuple[float, ...] = (4.0, 8.0, 16.0, 24.0, 32.0)


@dataclass(frozen=True)
class Fig7Result:
    requested_mem: float
    actual_mem: float
    estimates: List[float]  # E' per estimation cycle
    internal: List[float]  # E_i before each cycle
    final_estimate: float
    n_failures: int

    paper_final_estimate: float = 8.0
    paper_sequence: Tuple[float, ...] = (32.0, 16.0, 8.0, 4.0, 8.0)

    @property
    def reduction_factor(self) -> float:
        """Requested over final estimate (paper: four-fold)."""
        return self.requested_mem / self.final_estimate

    def format_table(self) -> str:
        rows = [
            (cycle, f"{e_i:.2f}", f"{e_prime:.0f}", "fail" if e_prime < self.actual_mem else "ok")
            for cycle, (e_i, e_prime) in enumerate(zip(self.internal, self.estimates), 1)
        ]
        table = format_table(
            ["cycle", "E_i (internal)", "E' (submitted)", "outcome"],
            rows,
            title=(
                f"Figure 7: estimate trajectory (requested {self.requested_mem:.0f}MB, "
                f"actual {self.actual_mem:.1f}MB, alpha=2, beta=0)"
            ),
        )
        summary = format_table(
            ["metric", "measured", "paper"],
            [
                ("final estimate", f"{self.final_estimate:.0f}MB", f"{self.paper_final_estimate:.0f}MB"),
                ("reduction", f"{self.reduction_factor:.0f}x", "4x"),
                ("failures on the way", self.n_failures, 1),
            ],
            title="Figure 7 summary",
        )
        return table + "\n\n" + summary

    def format_chart(self) -> str:
        cycles = list(range(1, len(self.estimates) + 1))
        return ascii_chart(
            cycles,
            {"E' (submitted estimate)": self.estimates},
            title="Figure 7: estimated memory per cycle",
        )


def run(
    config: Optional[ExperimentConfig] = None,
    requested_mem: float = 32.0,
    actual_mem: float = 5.2,
    n_cycles: int = 8,
    levels: Tuple[float, ...] = FIG7_LEVELS,
) -> Fig7Result:
    """Drive Algorithm 1 through repeated submissions of one job class.

    The loop mirrors the simulator's feedback rule exactly: an attempt
    succeeds iff the granted capacity (the requirement rounded up to a
    machine class) covers the actual usage.
    """
    cfg = config or ExperimentConfig()
    ladder = CapacityLadder(levels)
    estimator = SuccessiveApproximation(alpha=cfg.alpha, beta=cfg.beta)
    estimator.bind(ladder)

    job = Job(
        job_id=1,
        submit_time=0.0,
        run_time=100.0,
        procs=32,
        req_mem=requested_mem,
        used_mem=actual_mem,
        user_id=7,
        app_id=3,
    )
    estimates: List[float] = []
    internal: List[float] = []
    n_failures = 0
    for _ in range(n_cycles):
        state = estimator.group_state_for(job)
        internal.append(state.estimate if state else requested_mem)
        requirement = estimator.estimate(job)
        granted = ladder.round_up(requirement)
        succeeded = granted is not None and granted >= actual_mem
        estimates.append(requirement)
        if not succeeded:
            n_failures += 1
        estimator.observe(
            Feedback(
                job=job,
                succeeded=succeeded,
                requirement=requirement,
                granted=granted if granted is not None else 0.0,
                used=None,  # implicit feedback, as in the paper
            )
        )
    return Fig7Result(
        requested_mem=requested_mem,
        actual_mem=actual_mem,
        estimates=estimates,
        internal=internal,
        final_estimate=estimates[-1],
        n_failures=n_failures,
    )


def make_fig7_cluster(nodes_per_tier: int = 64) -> Cluster:
    """A cluster whose ladder matches the Figure 7 levels (for integration
    tests running this scenario through the full simulator)."""
    return Cluster(
        [(nodes_per_tier, level) for level in FIG7_LEVELS],
        name="fig7-ladder",
    )
