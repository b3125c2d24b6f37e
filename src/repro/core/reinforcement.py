"""Reinforcement learning: implicit feedback, no similarity groups (Table 1).

§4 sketches the RL corner of the taxonomy: an agent learns a **global**
policy — applied to all jobs, with no similarity notion — deciding how far a
job's requested resources can be cut before submission.  The reward is
improvement in utilization/slowdown; the canonical example: "if all users
over-estimated their resource capacities by 100%, the global policy to which
RL will converge is that it is sufficient to send jobs for execution with
only 50% of their requested resources".

Implementation: a **contextual bandit with epsilon-greedy exploration** over
a discrete set of *reduction factors*.  The context (state) is a coarse bin
of the request parameters (by default the requested memory level), the action
is the factor ``f`` applied to the request, and the reward is

* on success: the fraction of the request that was freed (``1 - f``) — the
  utilization surrogate — so deeper safe cuts earn more,
* on failure: ``-failure_penalty`` — a failed execution wastes machine time
  and delays the queue.

This is deliberately the simplest member of the RL family (the paper leaves
RL as future work and prescribes no specific algorithm); a full
state-space formulation over queue status is out of scope and the bandit
already exhibits the paper's qualitative behaviour: convergence to the
population's safe over-provisioning factor, per request bin.  Exploration is
driven by an explicit RNG so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Sequence, Tuple

from repro.core.base import Estimator, Feedback, clamp_to_request
from repro.util.rng import RngStream, as_generator
from repro.util.validation import check_in_range, check_non_negative, check_positive
from repro.workload.job import Job

#: Maps a job to its bandit context (state).
StateFunction = Callable[[Job], Hashable]


def state_by_req_mem(job: Job) -> Hashable:
    """Default context: the requested memory level."""
    return job.req_mem


@dataclass
class _ArmStats:
    q_value: float = 0.0
    pulls: int = 0


def _greedy_factor(arms: Dict[float, _ArmStats]) -> float:
    """The arm with the highest Q-value; ties broken toward deeper cuts
    (more utilization upside)."""
    return max(arms.items(), key=lambda kv: (kv[1].q_value, -kv[0]))[0]


class ReinforcementLearning(Estimator):
    """Epsilon-greedy bandit over request-reduction factors.

    Parameters
    ----------
    factors:
        Candidate reduction factors (each in (0, 1]); 1.0 — the "trust the
        user" arm — must be present so the policy can always fall back.
    epsilon:
        Exploration probability.  Decays as ``epsilon / (1 + visits/decay)``
        per state so late-trace behaviour is mostly greedy.
    learning_rate:
        Q-value step size (exponential moving average of rewards).
    failure_penalty:
        Reward charged for a failed execution.  Larger values make the policy
        more conservative; the default 4.0 prices one failure as the loss of
        four perfectly-cut successes.
    state_fn:
        Context extractor; defaults to the requested-memory level.
    """

    name = "reinforcement-learning"

    def __init__(
        self,
        factors: Sequence[float] = (1.0, 0.75, 0.5, 0.25, 0.125),
        epsilon: float = 0.15,
        epsilon_decay: float = 200.0,
        learning_rate: float = 0.1,
        failure_penalty: float = 4.0,
        state_fn: StateFunction = state_by_req_mem,
        rng: RngStream = 0,
        max_reduced_attempts: int = 2,
    ) -> None:
        super().__init__()
        if not factors:
            raise ValueError("need at least one reduction factor")
        for f in factors:
            check_in_range("reduction factor", f, 0.0, 1.0, low_inclusive=False)
        if 1.0 not in factors:
            raise ValueError("factors must include 1.0 (the no-reduction arm)")
        check_in_range("epsilon", epsilon, 0.0, 1.0)
        check_positive("epsilon_decay", epsilon_decay)
        check_in_range("learning_rate", learning_rate, 0.0, 1.0, low_inclusive=False)
        check_non_negative("failure_penalty", failure_penalty)
        if max_reduced_attempts < 1:
            raise ValueError(
                f"max_reduced_attempts must be >= 1, got {max_reduced_attempts}"
            )
        self.factors: Tuple[float, ...] = tuple(factors)
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.learning_rate = learning_rate
        self.failure_penalty = failure_penalty
        self.state_fn = state_fn
        self.max_reduced_attempts = max_reduced_attempts
        self._rng = as_generator(rng)
        self._rng_source: RngStream = rng
        self._q: Dict[Hashable, Dict[float, _ArmStats]] = {}
        self._visits: Dict[Hashable, int] = {}
        #: Greedy factor per state, computed on first use and dropped when
        #: one of the state's arms learns (observe) or on reset.
        self._greedy: Dict[Hashable, float] = {}
        #: factor chosen per in-flight (job_id, attempt); consumed at feedback.
        self._pending: Dict[Tuple[int, int], Tuple[Hashable, float]] = {}

    # --------------------------------------------------------------- policy
    def _arms(self, state: Hashable) -> Dict[float, _ArmStats]:
        arms = self._q.get(state)
        if arms is None:
            # Optimistic zero initialisation: untried cuts look as good as
            # the safe arm, encouraging each to be tried at least once.
            arms = {f: _ArmStats() for f in self.factors}
            self._q[state] = arms
            self._visits[state] = 0
        return arms

    def _choose_factor(self, state: Hashable) -> float:
        arms = self._arms(state)
        visits = self._visits[state]
        eps = self.epsilon / (1.0 + visits / self.epsilon_decay)
        if self._rng.random() < eps:
            return float(self._rng.choice(self.factors))
        best = self._greedy.get(state)
        if best is None:
            best = self._greedy[state] = _greedy_factor(arms)
        return best

    def policy(self) -> Dict[Hashable, float]:
        """Greedy factor per state — the learnt global policy (§4's outcome)."""
        return {state: _greedy_factor(arms) for state, arms in self._q.items()}

    # ------------------------------------------------------------- protocol
    def estimate(self, job: Job, attempt: int = 0) -> float:
        if attempt >= self.max_reduced_attempts:
            self._pending[(job.job_id, attempt)] = (self.state_fn(job), 1.0)
            return job.req_mem
        state = self.state_fn(job)
        factor = self._choose_factor(state)
        self._visits[state] += 1
        self._pending[(job.job_id, attempt)] = (state, factor)
        return clamp_to_request(job.req_mem * factor, job)

    def observe(self, feedback: Feedback) -> None:
        key = (feedback.job.job_id, feedback.attempt)
        pending = self._pending.pop(key, None)
        if pending is None:
            return  # feedback for a submission this estimator never made
        state, factor = pending
        reward = (1.0 - factor) if feedback.succeeded else -self.failure_penalty
        arm = self._arms(state)[factor]
        arm.q_value += self.learning_rate * (reward - arm.q_value)
        arm.pulls += 1
        self._greedy.pop(state, None)

    def reset(self) -> None:
        self._q.clear()
        self._visits.clear()
        self._greedy.clear()
        self._pending.clear()
        self._rng = as_generator(self._rng_source)

    # -------------------------------------------------------- introspection
    @property
    def n_states(self) -> int:
        return len(self._q)

    def q_values(self, state: Hashable) -> Dict[float, float]:
        """Q-value per factor for one state (empty dict if unseen)."""
        arms = self._q.get(state, {})
        return {f: a.q_value for f, a in arms.items()}
