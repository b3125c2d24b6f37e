"""Last-instance identification: explicit feedback + similarity (Table 1).

§2.3: "If explicit feedback is available, the resource estimation can be
performed by simply using the actual resources used by the previous job
submission as the estimated resources for the next job submission in the
same similarity group."

Two practical refinements (both default-on, both ablatable):

* ``window`` — estimate from the **maximum** usage over the last *k*
  instances rather than literally the last one, absorbing intra-group
  variance (the J1/J2 pathology of §2.3);
* ``safety_factor`` — a multiplicative head-room margin on top of the
  observed usage, because "similar" jobs are equal only up to the group's
  similarity range.

A failed attempt (which, with explicit feedback, is distinguishable from a
false positive by comparing granted capacity with usage, §2.1) escalates the
estimate toward the original request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.core.base import Estimator, Feedback, clamp_to_request
from repro.similarity.keys import GroupKey, KeyFunction, by_user_app_reqmem
from repro.util.validation import check_positive
from repro.workload.job import Job


@dataclass
class _LastInstanceGroup:
    recent_usage: Deque[float]
    escalated: bool = False  # a resource failure disabled reduction


class LastInstance(Estimator):
    """Estimate each group's requirement from recent observed usage."""

    name = "last-instance"

    def __init__(
        self,
        key_fn: Optional[KeyFunction] = None,
        window: int = 3,
        safety_factor: float = 1.1,
        max_reduced_attempts: int = 2,
    ) -> None:
        super().__init__()
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        check_positive("safety_factor", safety_factor)
        if safety_factor < 1.0:
            raise ValueError(
                f"safety_factor below 1 would request less than observed usage, "
                f"got {safety_factor}"
            )
        if max_reduced_attempts < 1:
            raise ValueError(
                f"max_reduced_attempts must be >= 1, got {max_reduced_attempts}"
            )
        self.key_fn: KeyFunction = key_fn or by_user_app_reqmem
        self.window = window
        self.safety_factor = safety_factor
        self.max_reduced_attempts = max_reduced_attempts
        self._groups: Dict[GroupKey, _LastInstanceGroup] = {}

    def estimate(self, job: Job, attempt: int = 0) -> float:
        if attempt >= self.max_reduced_attempts:
            return job.req_mem
        group = self._groups.get(self.key_fn(job))
        if group is None or not group.recent_usage or group.escalated:
            # No experience yet (or reduction disabled): trust the request.
            return job.req_mem
        basis = max(group.recent_usage)
        return clamp_to_request(basis * self.safety_factor, job)

    def observe(self, feedback: Feedback) -> None:
        key = self.key_fn(feedback.job)
        group = self._groups.get(key)
        if group is None:
            group = _LastInstanceGroup(recent_usage=deque(maxlen=self.window))
            self._groups[key] = group
        if feedback.succeeded:
            if feedback.used is not None:
                group.recent_usage.append(feedback.used)
            return
        # Failure.  With explicit feedback we can tell a genuine resource
        # shortfall (granted < used) from a false positive (§2.1).
        resource_failure = feedback.used is None or feedback.granted < feedback.used
        if resource_failure and feedback.requirement < feedback.job.req_mem:
            # Our reduced estimate caused the failure: stop reducing this group.
            group.escalated = True

    def reset(self) -> None:
        self._groups.clear()

    @property
    def n_groups(self) -> int:
        return len(self._groups)
