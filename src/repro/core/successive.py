"""Algorithm 1: successive approximation with implicit feedback.

A line-by-line transcription of the paper's Algorithm 1, with the ambiguities
the prose leaves open resolved as follows (each choice is verified against
the paper's own worked examples in ``tests/core/test_successive.py``):

* **Rounding feeds back** (line 9 reads ``E_i <- E'/alpha_i`` with E' the
  *rounded* estimate).  On a two-tier cluster {m, 32} this yields the Figure 8
  threshold exactly: starting from a 32 MB request the first reduction is
  32/alpha, so the small tier is reachable iff ``32/alpha <= m`` — the paper's
  "no improvement for clusters where machines had memory below 15MB" with
  alpha = 2.
* **Failure handling** (lines 11-13): the estimate reverts to the last value
  known safe (the most recent successful E', or the original request if
  nothing succeeded yet), the learning factor decays
  ``alpha_i <- max(alpha_i * beta, 1)`` — never below one, per the paper —
  and the next estimate is the restored value divided by the decayed
  alpha_i.  With the paper's simulation setting beta = 0 this freezes the
  group at its last safe level after the first failure, which is precisely
  Figure 7's trajectory (descend 32 -> 16 -> 8 -> 4, fail below the ~5 MB
  actual usage, settle at 8).
* **Termination guard**: Algorithm 1 assumes every job in a group uses the
  same capacity.  With intra-group variance a job whose usage exceeds the
  group's frozen level would fail forever (the paper's J1/J2 discussion).
  After ``max_reduced_attempts`` failed attempts of one job, the estimator
  falls back to the job's own request, which is sufficient by assumption.
  The paper reports at most 0.01% of executions failing, so this guard is
  rarely exercised; the simulator counts how often.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.ladder import CapacityLadder
from repro.core.base import Estimator, Feedback, clamp_to_request
from repro.similarity.keys import GroupKey, KeyFunction, by_user_app_reqmem
from repro.util.validation import check_in_range, check_positive
from repro.workload.job import Job


@dataclass(slots=True)
class GroupState:
    """Per-similarity-group state: exactly the (E_i, alpha_i) of Algorithm 1.

    ``last_safe`` is the bookkeeping needed for line 11's "restore to its
    previous value": the most recent requirement that completed successfully
    (``None`` until the group's first success — then the original request is
    the only known-safe value).  ``probe`` identifies the single in-flight
    submission allowed below the safe value under serial probing.
    """

    estimate: float  # E_i
    alpha: float  # alpha_i
    request: float  # R, the first job's requested capacity
    last_safe: Optional[float] = None
    successes: int = 0
    failures: int = 0
    probe: Optional[Tuple[int, int]] = None  # (job_id, attempt) probing below safe
    safe_failures: int = 0  # consecutive failures at the supposedly safe value
    #: Bumped on every observe() touching this group — the memoization token
    #: behind :meth:`SuccessiveApproximation.estimate_version`.
    version: int = 0

    @property
    def safe_value(self) -> float:
        """The value failure reverts to: last successful E', else the request."""
        return self.last_safe if self.last_safe is not None else self.request


class SuccessiveApproximation(Estimator):
    """The paper's main estimator (Table 1: implicit feedback + similarity).

    Parameters
    ----------
    alpha:
        Initial learning rate (> 1).  Each success divides the estimate by
        ``alpha_i``.  The paper's simulations use 2.
    beta:
        Learning-rate decay on failure (0 <= beta < 1).  The paper's
        simulations use 0: one failure freezes the group at its safe value.
    key_fn:
        Similarity key; defaults to the paper's (user, app, requested memory).
    explicit_guard:
        §2.1 extension: when explicit feedback is available, a failure with
        ``granted >= used`` is a *false positive* (crash unrelated to
        resources) and does not trigger back-off.  Off by default to match
        the paper's implicit-only simulations.
    max_reduced_attempts:
        Per-job termination guard (see module docstring).
    record_trajectories:
        When True, every group's (E_i, E') sequence is recorded —
        Figure 7's data.  Costs memory proportional to the trace length.
    serial_probing:
        Algorithm 1 is sequential (submit, observe, submit...), but a busy
        cluster runs many jobs of one group concurrently; feedback for a
        reduction arrives only after a failure time of up to a full runtime,
        during which every sibling would adopt the same untested reduction —
        one bad step then fails *en masse*.  With serial probing (default),
        at most one in-flight submission per group carries a requirement
        below the group's safe value; siblings ride at the safe value until
        the probe's verdict lands.  This is the concurrency-safe reading of
        the algorithm and what keeps the §3.2 failure statistics tiny at
        high load; disable to study the unguarded dynamics.
    mixed_group_threshold:
        The J1/J2 pathology (§2.3) at scale: in a group whose members'
        usages straddle a capacity level, every above-the-level member fails
        at the group's frozen safe value, forever.  After this many failures
        at the safe value the group escalates its safe value one ladder step
        (capped at the request).  Set to 0 to disable and study the
        unmitigated pathology.
    """

    name = "successive-approximation"

    def __init__(
        self,
        alpha: float = 2.0,
        beta: float = 0.0,
        key_fn: Optional[KeyFunction] = None,
        explicit_guard: bool = False,
        max_reduced_attempts: int = 2,
        record_trajectories: bool = False,
        serial_probing: bool = True,
        mixed_group_threshold: int = 3,
    ) -> None:
        super().__init__()
        check_positive("alpha", alpha)
        if alpha <= 1.0:
            raise ValueError(f"alpha must be > 1 (line 1 of Algorithm 1), got {alpha}")
        check_in_range("beta", beta, 0.0, 1.0, high_inclusive=False)
        if max_reduced_attempts < 1:
            raise ValueError(
                f"max_reduced_attempts must be >= 1, got {max_reduced_attempts}"
            )
        self.alpha = alpha
        self.beta = beta
        self.key_fn: KeyFunction = key_fn or by_user_app_reqmem
        self.explicit_guard = explicit_guard
        self.max_reduced_attempts = max_reduced_attempts
        self.record_trajectories = record_trajectories
        self.serial_probing = serial_probing
        if mixed_group_threshold < 0:
            raise ValueError(
                f"mixed_group_threshold must be >= 0, got {mixed_group_threshold}"
            )
        self.mixed_group_threshold = mixed_group_threshold
        #: job_id -> highest requirement that failed for that job; retrying a
        #: job at or below a level it already failed at is a guaranteed
        #: repeat failure under the simulator's (and reality's) semantics.
        self._failed_at: Dict[int, float] = {}
        self._groups: Dict[GroupKey, GroupState] = {}
        self._trajectories: Dict[GroupKey, List[Tuple[float, float]]] = {}
        # job_id -> resolved group.  A job's key is a pure function of the
        # (immutable) job and GroupState objects are stable for the life of
        # the run, so resolving the key tuple + dict probe once per job (and
        # once per estimate/observe thereafter via a single int-keyed get)
        # is safe.  The engine alternates observe/estimate across many jobs,
        # which defeats a single-entry memo.
        self._job_group: Dict[int, GroupState] = {}

    # ------------------------------------------------------------- protocol
    def estimate(self, job: Job, attempt: int = 0) -> float:
        group = self._group_for(job)
        if attempt >= self.max_reduced_attempts:
            # Termination guard: stop estimating this job, trust its request.
            return job.req_mem
        ladder = self.ladder
        req = job.req_mem
        rounded = ladder.round_up(group.estimate)
        if rounded is None:
            # The estimate exceeds every machine; the request itself cannot
            # be reduced into the cluster.  Fall back to the raw request so
            # the scheduler's feasibility handling sees the true picture.
            return req
        # clamp_to_request, inlined (this is the hottest call in a sweep).
        e_prime = rounded if rounded < req else req
        # Probing below the safe value requires group.estimate < safe_value:
        # round_up is monotone, so otherwise e_prime >= safe_req and the
        # branch is a no-op — skipped without the second round_up.
        if self.serial_probing and group.estimate < group.safe_value:
            safe_rounded = ladder.round_up(group.safe_value)
            if safe_rounded is None or safe_rounded > req:
                safe_req = req
            else:
                safe_req = safe_rounded
            if e_prime < safe_req:
                ticket = (job.job_id, attempt)
                if group.probe is None or group.probe == ticket:
                    group.probe = ticket  # this submission carries the probe
                else:
                    e_prime = safe_req  # ride the safe value meanwhile
        failed_floor = self._failed_at.get(job.job_id)
        if failed_floor is not None and e_prime <= failed_floor:
            # This job already failed at that level: retry strictly above it.
            above = self.ladder.levels_at_least(failed_floor * (1 + 1e-12))
            bumped = above[0] if above else job.req_mem
            e_prime = clamp_to_request(max(bumped, failed_floor), job)
            if e_prime <= failed_floor:
                e_prime = job.req_mem
        if self.record_trajectories:
            self._trajectories.setdefault(self.key_fn(job), []).append(
                (group.estimate, e_prime)
            )
        return e_prime

    def estimate_version(self, job: Job, attempt: int = 0) -> Optional[int]:
        """Memoization token for the engine's late-binding refresh.

        While this value is unchanged, :meth:`estimate` for ``job`` provably
        returns what it returned last time: the result depends only on the
        job's group state and the per-job retry floor, both mutated
        exclusively by :meth:`observe` — which bumps the group's version.
        (Probe tickets are assigned *inside* estimate, but first-taker-wins
        and only observe releases them, so per-entry results stay stable
        within a version.)  Returns ``None`` — "never memoize" — when
        trajectory recording is on, so every refresh keeps appending its
        (E_i, E') sample.
        """
        if self.record_trajectories:
            return None
        return self._group_for(job).version

    def observe(self, feedback: Feedback) -> None:
        group = self._group_for(feedback.job)
        group.version += 1
        if group.probe == (feedback.job.job_id, feedback.attempt):
            group.probe = None  # the probe's verdict is in
        if feedback.succeeded:
            self._failed_at.pop(feedback.job.job_id, None)
        elif not (
            self.explicit_guard
            and feedback.used is not None
            and feedback.granted >= feedback.used
        ):
            # Remember the per-job failure level so retries go strictly above.
            prev = self._failed_at.get(feedback.job.job_id, 0.0)
            self._failed_at[feedback.job.job_id] = max(prev, feedback.requirement)
        if feedback.attempt >= self.max_reduced_attempts:
            # This submission bypassed the group estimate (per-job retry
            # guard, carrying the raw request).  Folding its outcome into
            # the group would *raise* a learned estimate back toward the
            # request — with alpha floored at 1, permanently.  The guard is
            # per-job damage control; the group state stays as learned.
            if feedback.succeeded:
                group.successes += 1
            else:
                group.failures += 1
            return
        if feedback.succeeded:
            # Line 9: E_i <- E'/alpha_i, remembering E' as the new safe value.
            if feedback.requirement <= group.safe_value:
                group.last_safe = feedback.requirement
                group.safe_failures = 0
            group.estimate = feedback.requirement / group.alpha
            group.successes += 1
            return
        if (
            self.explicit_guard
            and feedback.used is not None
            and feedback.granted >= feedback.used
        ):
            # False positive (§2.1): enough resources were granted, so the
            # failure was not ours.  Leave the estimate alone.
            return
        group.failures += 1
        if (
            self.mixed_group_threshold
            and feedback.requirement >= group.safe_value
        ):
            # A failure at (or above) the supposedly safe value: a mixed
            # group straddling a capacity level (§2.3's J1/J2 at scale).
            group.safe_failures += 1
            if group.safe_failures >= self.mixed_group_threshold:
                above = self.ladder.levels_at_least(
                    group.safe_value * (1 + 1e-12)
                )
                group.last_safe = min(
                    above[0] if above else group.request, group.request
                )
                group.safe_failures = 0
        # Lines 11-13: restore, decay alpha (floor 1), set the next estimate.
        group.alpha = max(group.alpha * self.beta, 1.0)
        group.estimate = group.safe_value / group.alpha

    def bind(self, ladder: CapacityLadder) -> None:
        super().bind(ladder)
        # The job -> group memo is keyed by job id, unique only within one
        # trace: a run over another trace must resolve its jobs afresh.
        self._job_group.clear()

    def reset(self) -> None:
        self._groups.clear()
        self._trajectories.clear()
        self._failed_at.clear()
        self._job_group.clear()

    # ------------------------------------------------------------- introspection
    def _group_for(self, job: Job) -> GroupState:
        state = self._job_group.get(job.job_id)
        if state is not None:
            return state
        key = self.key_fn(job)
        state = self._groups.get(key)
        if state is None:
            # Lines 3-4: open a new group seeded with the job's request.
            state = GroupState(estimate=job.req_mem, alpha=self.alpha, request=job.req_mem)
            self._groups[key] = state
        self._job_group[job.job_id] = state
        return state

    def group_state(self, key: GroupKey) -> Optional[GroupState]:
        """State of one similarity group (None if never seen)."""
        return self._groups.get(key)

    def group_state_for(self, job: Job) -> Optional[GroupState]:
        return self._groups.get(self.key_fn(job))

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def trajectory(self, key: GroupKey) -> List[Tuple[float, float]]:
        """The recorded (E_i, E') sequence of one group (Figure 7's series).

        Empty unless ``record_trajectories=True`` was set before the run.
        """
        return list(self._trajectories.get(key, []))

    def telemetry(self) -> dict:
        """Per-group (E_i, alpha_i) snapshot for the observability layer.

        Group labels are ``str(key)`` of the similarity key — stable across
        calls within a run, which is all the trajectory sampler needs.
        """
        return {
            "name": self.name,
            "alpha": self.alpha,
            "beta": self.beta,
            "n_groups": len(self._groups),
            "groups": {
                str(key): {
                    "estimate": state.estimate,
                    "alpha": state.alpha,
                    "safe_value": state.safe_value,
                    "successes": state.successes,
                    "failures": state.failures,
                    "safe_failures": state.safe_failures,
                }
                for key, state in self._groups.items()
            },
        }

    def memory_footprint(self) -> int:
        """Number of scalar values retained across the estimator's state.

        The paper highlights that Algorithm 1 stores only two parameters per
        group (E_i and alpha_i); this reports 2x the group count plus the
        safe-value bookkeeping, plus one scalar per entry in the per-job
        retry guard (``_failed_at``), for the space-efficiency benchmark.
        The retry-guard entries are transient — cleared on each job's first
        success — but they are retained state and belong in the count.
        """
        return 3 * len(self._groups) + len(self._failed_at)
