"""Figure 6: effect of resource estimation on slowdown.

Same simulation as Figure 5; the reported quantity is the **ratio** of the
mean slowdown without estimation to the mean slowdown with estimation, per
load.  The paper's claims:

* the ratio is never below 1 — estimation never makes slowdown worse, and
* it peaks dramatically around 60% load: the queue is long enough for
  estimation to matter but not yet so long that FCFS queueing dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.experiments.cache import SweepCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.render import ascii_chart, format_table
from repro.experiments.runner import LoadSweep
from repro.experiments import fig5


@dataclass(frozen=True)
class Fig6Result:
    without_estimation: LoadSweep
    with_estimation: LoadSweep

    @property
    def loads(self) -> np.ndarray:
        return self.without_estimation.loads

    @property
    def slowdown_ratio(self) -> np.ndarray:
        """slowdown(no estimation) / slowdown(with estimation), per load."""
        return self.without_estimation.slowdowns / self.with_estimation.slowdowns

    @property
    def peak_load(self) -> float:
        """Load with the largest slowdown improvement (paper: ~0.6)."""
        return float(self.loads[int(np.argmax(self.slowdown_ratio))])

    @property
    def never_worse(self) -> bool:
        """Paper: "resource estimation never causes slowdown to increase"."""
        return bool(np.all(self.slowdown_ratio >= 1.0 - 1e-9))

    def format_table(self) -> str:
        rows = [
            (
                f"{load:.2f}",
                f"{s0:.1f}",
                f"{s1:.1f}",
                f"{r:.2f}",
            )
            for load, s0, s1, r in zip(
                self.loads,
                self.without_estimation.slowdowns,
                self.with_estimation.slowdowns,
                self.slowdown_ratio,
            )
        ]
        table = format_table(
            ["offered load", "slowdown (no est)", "slowdown (est)", "ratio"],
            rows,
            title="Figure 6: slowdown ratio vs load (512x32MB + 512x24MB)",
        )
        summary = format_table(
            ["metric", "measured", "paper"],
            [
                ("ratio >= 1 everywhere", str(self.never_worse), "True"),
                ("peak improvement at load", f"{self.peak_load:.2f}", "~0.60"),
                ("peak ratio", f"{self.slowdown_ratio.max():.1f}", "dramatic (>> 1)"),
            ],
            title="Figure 6 summary",
        )
        return table + "\n\n" + summary

    def format_chart(self) -> str:
        return ascii_chart(
            self.loads,
            {"slowdown(no est)/slowdown(est)": self.slowdown_ratio},
            title="Figure 6: slowdown ratio vs offered load",
        )


def run(
    config: Optional[ExperimentConfig] = None,
    fig5_result: Optional["fig5.Fig5Result"] = None,
    max_workers: int = 1,
    cache: Optional["SweepCache"] = None,
    timeout: Optional[float] = None,
    max_retries: int = 0,
) -> Fig6Result:
    """Run (or reuse) the Figure 5 sweep and extract the slowdown series.

    Figures 5 and 6 come from the same simulations; pass an existing
    :class:`~repro.experiments.fig5.Fig5Result` to avoid recomputing.
    ``max_workers``/``cache``/``timeout``/``max_retries`` are forwarded to
    :func:`fig5.run` (and with a shared cache the second figure's sweep is
    entirely cache hits).
    """
    base = fig5_result or fig5.run(
        config,
        max_workers=max_workers,
        cache=cache,
        timeout=timeout,
        max_retries=max_retries,
    )
    return Fig6Result(
        without_estimation=base.without_estimation,
        with_estimation=base.with_estimation,
    )
