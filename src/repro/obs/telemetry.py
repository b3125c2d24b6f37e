"""Per-similarity-group estimator telemetry.

Samples :meth:`repro.core.base.Estimator.telemetry` after every piece of
feedback the estimator receives (attempt completed / failed / killed) and
keeps, per group:

* the **estimate trajectory** — ``(time, E_i, alpha_i)`` samples, recorded
  only when the group's state changed (so a 10k-job run with 1k groups
  stays small), and
* **backoff events** — the moments a group's internal estimate *rose*
  (Algorithm 1's lines 11-13 restoring the safe value after a failure),
  which is the estimator-side signature of §2.1 false positives and §2.3
  mixed groups.

It needs no estimator cooperation beyond the generic ``telemetry()``
snapshot (:class:`~repro.core.successive.SuccessiveApproximation` reports
one), works with any estimator that reports per-group state, and
timestamps every sample with simulation time (Figure 7's x-axis is
estimation *cycles*; production monitoring wants wall time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.base import RunMeta, SimObserver


@dataclass(frozen=True)
class BackoffEvent:
    """A group's internal estimate rose: failure recovery or escalation."""

    time: float
    group: str
    previous: float
    restored: float


@dataclass
class GroupTelemetry:
    """One group's sampled trajectory."""

    #: (sim time, E_i, alpha_i) — appended only when (E_i, alpha_i) changed.
    samples: List[Tuple[float, float, float]] = field(default_factory=list)

    @property
    def estimates(self) -> List[float]:
        return [e for _, e, _ in self.samples]

    @property
    def final_estimate(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None


class EstimatorTelemetryObserver(SimObserver):
    """Samples ``estimator.telemetry()`` on every feedback-bearing event.

    Estimators whose telemetry carries no ``groups`` mapping (e.g. the
    no-estimation baseline) produce an empty report; the observer is safe to
    attach to any run.
    """

    def __init__(self) -> None:
        self.groups: Dict[str, GroupTelemetry] = {}
        self.backoffs: List[BackoffEvent] = []
        self._estimator = None

    # --------------------------------------------------------------- hooks
    def on_run_start(self, meta: RunMeta) -> None:
        self._estimator = meta.estimator
        self.groups.clear()
        self.backoffs.clear()

    def on_job_completed(self, now, record):
        self._sample(now)

    def on_job_failed(self, now, record):
        self._sample(now)

    def on_job_killed(self, now, record):
        self._sample(now)

    def on_run_end(self, result) -> None:
        self._sample(result.t_last_end)

    # ------------------------------------------------------------ sampling
    def _sample(self, now: float) -> None:
        if self._estimator is None:
            return
        snapshot = self._estimator.telemetry()
        groups = snapshot.get("groups")
        if not isinstance(groups, dict):
            return
        for key, state in groups.items():
            estimate = state.get("estimate")
            alpha = state.get("alpha", float("nan"))
            if estimate is None:
                continue
            telemetry = self.groups.get(key)
            if telemetry is None:
                telemetry = self.groups[key] = GroupTelemetry()
            if telemetry.samples:
                _, prev_e, prev_a = telemetry.samples[-1]
                if prev_e == estimate and prev_a == alpha:
                    continue
                if estimate > prev_e:
                    self.backoffs.append(
                        BackoffEvent(
                            time=now, group=key, previous=prev_e, restored=estimate
                        )
                    )
            telemetry.samples.append((now, estimate, alpha))

    # -------------------------------------------------------------- output
    def trajectory(self, group: str) -> List[Tuple[float, float, float]]:
        """One group's (time, E_i, alpha_i) samples (empty if never seen)."""
        telemetry = self.groups.get(group)
        return list(telemetry.samples) if telemetry else []

    def format_report(self, top: int = 10) -> str:
        """The most-sampled groups' convergence, one line each."""
        if not self.groups:
            return "no per-group telemetry (estimator reports no groups)"
        ranked = sorted(
            self.groups.items(), key=lambda kv: -len(kv[1].samples)
        )[:top]
        lines = [f"{len(self.groups)} groups, {len(self.backoffs)} backoff events"]
        for key, telemetry in ranked:
            path = " -> ".join(f"{e:g}" for e in telemetry.estimates[:8])
            if len(telemetry.samples) > 8:
                path += " ..."
            lines.append(f"  {key}: {path}")
        return "\n".join(lines)
