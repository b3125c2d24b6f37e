"""Regression modeling: explicit feedback, no similarity groups (Table 1).

§4: "If explicit feedback is available, it is also possible to use
regression models to estimate required resources ... a mapping from the
request file parameters to the actual resource capacities used."  Continuing
the paper's example, if every user over-provisions by 100%, the learnt
mapping divides each request by 2.

Implementation: **online ridge regression via recursive least squares** over
request-file features.  No similarity key is used — one global model covers
all jobs, trained from explicit feedback as executions complete (and,
optionally, warm-started offline from a historical workload with
:meth:`RegressionEstimator.fit`).

The prediction is turned into a *requirement* conservatively: the model's
point prediction plus ``safety_sigmas`` times the running residual standard
deviation, clipped into ``[0, request]``.  Until ``min_samples`` observations
have been seen the estimator trusts the request (a cold regression model is
worse than the user).

By default the regression target is ``log(used)`` (``log_target=True``):
actual usage in these workloads spans two orders of magnitude, so residuals
of a linear-space model are dominated by the large-usage tail and the
safety margin balloons to near the request, neutering the estimator.  In
log space the residuals are homoscedastic and the margin is a
*multiplicative* head-room factor, which is the natural notion for capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.cluster.ladder import CapacityLadder
from repro.core.base import Estimator, Feedback, clamp_to_request
from repro.util.validation import check_non_negative, check_positive
from repro.workload.job import Job, Workload

#: Maps a job's request parameters to a feature vector.  Must be a pure
#: function of the job's request fields: the estimator memoizes it per job.
FeatureFunction = Callable[[Job], np.ndarray]


_outer = np.multiply.outer


def default_features(job: Job) -> np.ndarray:
    """Request-file features: intercept, memory (linear+log), size, runtime.

    Only *request-time* information may be used — the whole point is to
    predict usage before the job runs.
    """
    return np.array(
        [
            1.0,
            job.req_mem,
            np.log(job.req_mem),
            np.log(float(job.procs)),
            np.log(max(job.runtime_estimate, 1.0)),
        ]
    )


def _residual_std(residual_sq_sum: float, n_samples: int) -> float:
    """Sample standard deviation of the residuals (0 below two samples).
    ``math.sqrt`` is correctly rounded, as ``np.sqrt`` is, and cheaper on
    one Python float."""
    if n_samples < 2:
        return 0.0
    return math.sqrt(residual_sq_sum / (n_samples - 1))


@dataclass
class _RlsState:
    """Recursive-least-squares state: P = (X'X + lambda I)^-1 and weights.

    ``residual_std`` follows from ``n_samples`` and ``residual_sq_sum``; it
    is set at construction and by every update, so that ``estimate`` reads
    it instead of taking a square root per call.
    """

    p_matrix: np.ndarray
    weights: np.ndarray
    n_samples: int = 0
    residual_sq_sum: float = 0.0
    residual_std: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.residual_std = _residual_std(self.residual_sq_sum, self.n_samples)


class RegressionEstimator(Estimator):
    """Global request->usage regression (explicit feedback, no similarity)."""

    name = "regression"

    def __init__(
        self,
        feature_fn: FeatureFunction = default_features,
        ridge: float = 1.0,
        safety_sigmas: float = 1.0,
        min_samples: int = 50,
        max_reduced_attempts: int = 2,
        log_target: bool = True,
    ) -> None:
        super().__init__()
        check_positive("ridge", ridge)
        check_non_negative("safety_sigmas", safety_sigmas)
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if max_reduced_attempts < 1:
            raise ValueError(
                f"max_reduced_attempts must be >= 1, got {max_reduced_attempts}"
            )
        self.feature_fn = feature_fn
        self.ridge = ridge
        self.safety_sigmas = safety_sigmas
        self.min_samples = min_samples
        self.max_reduced_attempts = max_reduced_attempts
        self.log_target = log_target
        self._state: Optional[_RlsState] = None
        #: ``feature_fn`` memo per job, cleared by :meth:`bind` and
        #: :meth:`reset`: a job is estimated and observed many times a run.
        self._features: Dict[Job, np.ndarray] = {}

    def _x(self, job: Job) -> np.ndarray:
        x = self._features.get(job)
        if x is None:
            x = self._features[job] = self.feature_fn(job)
        return x

    def _target(self, used: float) -> float:
        return float(np.log(max(used, 1e-9))) if self.log_target else float(used)

    # ------------------------------------------------------------------ RLS
    def _ensure_state(self, n_features: int) -> _RlsState:
        if self._state is None:
            self._state = _RlsState(
                p_matrix=np.eye(n_features) / self.ridge,
                weights=np.zeros(n_features),
            )
        return self._state

    def _update(self, x: np.ndarray, y: float) -> None:
        """One RLS step: O(d^2), no matrix inversion.

        ``ndarray.dot`` runs the BLAS kernels ``@`` runs (dgemv, ddot)
        with less dispatch, and ``np.multiply.outer`` forms the products of
        ``gain[:, None] * px`` with less overhead: the result is
        bit-identical to that formulation."""
        state = self._ensure_state(x.size)
        p = state.p_matrix
        px = p.dot(x)
        gain = px / (1.0 + float(x.dot(px)))
        error = y - float(state.weights.dot(x))
        state.weights = state.weights + gain * error
        state.p_matrix = p - _outer(gain, px)
        state.n_samples += 1
        state.residual_sq_sum += error * error
        state.residual_std = _residual_std(state.residual_sq_sum, state.n_samples)

    # ------------------------------------------------------------- protocol
    def estimate(self, job: Job, attempt: int = 0) -> float:
        if attempt >= self.max_reduced_attempts:
            return job.req_mem
        state = self._state
        if state is None or state.n_samples < self.min_samples:
            return job.req_mem
        x = self._features.get(job)
        if x is None:
            x = self._x(job)
        prediction = float(state.weights.dot(x))
        requirement = prediction + self.safety_sigmas * state.residual_std
        if self.log_target:
            requirement = float(np.exp(requirement))
        if requirement <= 0:
            # A non-positive requirement is a sign the model is extrapolating
            # badly for this job; fail safe to the request.
            return job.req_mem
        return clamp_to_request(requirement, job)

    def observe(self, feedback: Feedback) -> None:
        if feedback.used is None:
            return  # regression needs explicit feedback (§4)
        if not feedback.succeeded and feedback.granted < feedback.used:
            # The recorded "usage" of a job killed for lack of memory is a
            # lower bound, not the true requirement; learning from it would
            # bias the model downward.  Skip (the resubmission will report
            # a clean sample).
            return
        self._update(self._x(feedback.job), self._target(feedback.used))

    def fit(self, workload: Workload) -> "RegressionEstimator":
        """Warm-start offline from a historical trace with known usage."""
        for job in workload:
            self._update(self.feature_fn(job), self._target(job.used_mem))
        return self

    def bind(self, ladder: CapacityLadder) -> None:
        super().bind(ladder)
        self._features.clear()

    def reset(self) -> None:
        self._state = None
        self._features.clear()

    # -------------------------------------------------------- introspection
    @property
    def n_samples(self) -> int:
        return self._state.n_samples if self._state else 0

    @property
    def weights(self) -> Optional[np.ndarray]:
        """Current model weights (None before any observation)."""
        return None if self._state is None else self._state.weights.copy()

    @property
    def residual_std(self) -> float:
        return self._state.residual_std if self._state else 0.0
