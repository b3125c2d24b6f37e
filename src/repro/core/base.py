"""The estimator protocol: what schedulers ask and what they report back.

The paper's architecture (Figure 2): a *resource estimation* phase sits
between job submission and resource allocation; after each execution the
estimator receives feedback to refine future estimates.  Feedback is either

* **implicit** — only whether the job completed successfully (available on
  every cluster), or
* **explicit** — additionally the actual resources the job used (requires
  monitoring infrastructure).

:class:`Feedback` carries both; implicit-only estimators simply ignore the
``used`` field.  The ``granted`` field (capacity actually allocated) lets
explicit estimators detect §2.1's *false positives*: a job that failed even
though ``granted >= used`` did not fail for lack of resources, so the
estimate should not back off.
"""

from __future__ import annotations

import abc
from typing import Callable, NamedTuple, Optional

from repro.cluster.ladder import CapacityLadder
from repro.workload.job import Job


class Feedback(NamedTuple):
    """Outcome of one execution attempt, reported to the estimator.

    A ``NamedTuple``: the engine builds one per completed attempt, so
    construction cost is on the hot path (tuples skip the frozen-dataclass
    ``object.__setattr__`` per field).

    Attributes
    ----------
    job:
        The job that ran.
    succeeded:
        Implicit feedback: did the job complete successfully?
    requirement:
        The per-node capacity the estimator asked for at submission (E').
    granted:
        The smallest per-node capacity actually allocated (>= requirement;
        the matcher may have had only larger machines free).
    used:
        Explicit feedback: per-node capacity actually consumed, or ``None``
        when the cluster provides implicit feedback only.
    attempt:
        0 for the first execution of this job, incremented per resubmission.
    """

    job: Job
    succeeded: bool
    requirement: float
    granted: float
    used: Optional[float] = None
    attempt: int = 0


class Estimator(abc.ABC):
    """Estimates the per-node capacity a job actually requires.

    Life cycle: the simulator/scheduler calls :meth:`bind` once with the
    cluster's capacity ladder (Algorithm 1 needs it for rounding), then
    alternates :meth:`estimate` (at each submission, including resubmissions
    of failed jobs) and :meth:`observe` (after each execution attempt).

    Estimators are deliberately scheduler-agnostic (§1.3: "the proposed
    estimator is independent and can be integrated with different scheduling
    policies and resource allocation schemes").
    """

    #: Human-readable name used in experiment tables.
    name: str = "estimator"

    def __init__(self) -> None:
        self._ladder: Optional[CapacityLadder] = None

    def bind(self, ladder: CapacityLadder) -> None:
        """Attach the capacity ladder of the target cluster."""
        self._ladder = ladder

    @property
    def ladder(self) -> CapacityLadder:
        if self._ladder is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a cluster; call bind() first"
            )
        return self._ladder

    @property
    def is_bound(self) -> bool:
        return self._ladder is not None

    @abc.abstractmethod
    def estimate(self, job: Job, attempt: int = 0) -> float:
        """Per-node capacity to request for this submission.

        ``attempt`` counts resubmissions of the same job after failures; a
        sane estimator never returns less than the job's original request
        would for high attempt counts, guaranteeing eventual completion under
        the paper's ``used <= requested`` assumption.
        """

    @abc.abstractmethod
    def observe(self, feedback: Feedback) -> None:
        """Fold one execution attempt's outcome into the estimator's state."""

    def estimate_version(self, job: Job, attempt: int = 0) -> Optional[int]:
        """Optional memoization token for repeated :meth:`estimate` calls.

        A scheduler that re-estimates the same pending submission on every
        pass (late binding) may skip the call while this token is unchanged:
        the contract is that ``estimate(job, attempt)`` returns the same
        value (and has the same observable side effects) as its previous
        invocation whenever the token equals the one from that invocation.
        Return ``None`` (the default) to disable memoization — every refresh
        then calls :meth:`estimate`.  Implementations must be much cheaper
        than :meth:`estimate` itself to be worthwhile.  Schedulers resolve
        the token through :func:`version_token_fn`, which drops this
        default.
        """
        return None

    def reset(self) -> None:
        """Discard learned state (fresh simulation run).  Keeps the binding."""

    def never_reduces(self) -> bool:
        """True for estimators that always request the user's value.

        Schedulers can use this to skip feedback bookkeeping for the
        no-estimation baseline.
        """
        return False

    def telemetry(self) -> dict:
        """Snapshot of internal state for observability tooling.

        The contract is loose by design: the returned dict always carries
        ``"name"``; estimators that learn per-similarity-group state should
        add ``"groups"`` — a mapping from a stable group label to a dict with
        at least an ``"estimate"`` key (``"alpha"`` too where meaningful) —
        which :class:`repro.obs.telemetry.EstimatorTelemetryObserver` samples
        into per-group trajectories.  The snapshot must be cheap and must not
        expose mutable internals.
        """
        return {"name": self.name}


def version_token_fn(
    estimator: Estimator,
) -> Optional[Callable[[Job, int], Optional[int]]]:
    """``estimator.estimate_version``, or ``None`` when its class inherits
    the base method, which always returns ``None``: a scheduler then skips
    the call and re-estimates on every refresh, exactly as a ``None`` token
    would make it.  Keyed on method identity, like the engines' check for
    the no-op ``observe``, so a subclass that overrides the method (a
    recording wrapper, say) is still asked every time."""
    if type(estimator).estimate_version is Estimator.estimate_version:
        return None
    return estimator.estimate_version


def clamp_to_request(value: float, job: Job) -> float:
    """Never request more than the user did (the paper assumes the request
    is sufficient, so exceeding it buys nothing and can only block matching).
    """
    return min(value, job.req_mem)
