"""Execution outcome model: resource failures and false positives.

§3.1: "when a job is scheduled for execution, but not enough resources are
allocated for it, it fails after a random time, drawn uniformly between zero
and the execution run-time of that job."

The model also supports **spurious failures** (§2.1's false positives: jobs
crashing for reasons unrelated to resources — faulty programs, faulty
machines), off by default to match the paper's simulations.  Spurious
failures are what confuse implicit-feedback estimators into backing off
needlessly; the false-positive benchmark quantifies that effect.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.util.rng import RngStream, as_generator
from repro.util.validation import check_in_range
from repro.workload.job import Job


class ExecutionOutcome(NamedTuple):
    """What happened to one execution attempt.

    ``duration`` is how long the attempt occupied its nodes (the full runtime
    on success, the random failure time otherwise).  ``resource_related``
    distinguishes genuine under-allocation from injected spurious failures —
    the simulator knows the truth for accounting; implicit-feedback
    estimators never see this flag.
    """

    succeeded: bool
    duration: float
    resource_related: bool


class FailureModel:
    """Decides each execution attempt's fate."""

    def __init__(
        self,
        rng: RngStream = None,
        spurious_failure_prob: float = 0.0,
    ) -> None:
        check_in_range("spurious_failure_prob", spurious_failure_prob, 0.0, 1.0)
        self._rng = as_generator(rng)
        self.spurious_failure_prob = spurious_failure_prob

    def outcome(self, job: Job, granted_capacity: float) -> ExecutionOutcome:
        """Fate of running ``job`` on nodes of ``granted_capacity`` MB each."""
        if granted_capacity < job.used_mem:
            # Under-allocation: uniform failure time in [0, run_time).
            return ExecutionOutcome(
                succeeded=False,
                duration=float(self._rng.uniform(0.0, job.run_time)),
                resource_related=True,
            )
        if (
            self.spurious_failure_prob > 0.0
            and self._rng.random() < self.spurious_failure_prob
        ):
            return ExecutionOutcome(
                succeeded=False,
                duration=float(self._rng.uniform(0.0, job.run_time)),
                resource_related=False,
            )
        return ExecutionOutcome(
            succeeded=True, duration=job.run_time, resource_related=False
        )
