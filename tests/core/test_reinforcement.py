"""Reinforcement-learning estimator (implicit feedback, no similarity)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ladder import CapacityLadder
from repro.core.base import Feedback
from repro.core.reinforcement import ReinforcementLearning
from tests.conftest import make_job


def bound(est=None):
    est = est or ReinforcementLearning(rng=0)
    est.bind(CapacityLadder([4.0, 8.0, 16.0, 24.0, 32.0]))
    return est


def run_cycle(est, job, attempt=0):
    """One estimate/feedback cycle with the exact success rule."""
    requirement = est.estimate(job, attempt=attempt)
    succeeded = requirement >= job.used_mem
    est.observe(
        Feedback(
            job=job,
            succeeded=succeeded,
            requirement=requirement,
            granted=max(requirement, 4.0),
            attempt=attempt,
        )
    )
    return requirement, succeeded


class TestConstruction:
    def test_needs_factor_one(self):
        with pytest.raises(ValueError, match="1.0"):
            ReinforcementLearning(factors=(0.5, 0.25))

    def test_factor_range(self):
        with pytest.raises(ValueError):
            ReinforcementLearning(factors=(1.0, 1.5))
        with pytest.raises(ValueError):
            ReinforcementLearning(factors=(1.0, 0.0))

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ReinforcementLearning(epsilon=1.5)

    def test_empty_factors(self):
        with pytest.raises(ValueError):
            ReinforcementLearning(factors=())


class TestConvergence:
    def test_paper_example_converges_to_half(self):
        # §4: "if all users over-estimated their resource capacities by 100%,
        # the global policy to which RL will converge is ... 50% of their
        # requested resources."
        est = bound(
            ReinforcementLearning(
                factors=(1.0, 0.75, 0.5, 0.25), epsilon=0.2, rng=0
            )
        )
        job = make_job(req_mem=32.0, used_mem=16.0)
        for _ in range(400):
            run_cycle(est, job)
        assert est.policy()[32.0] == 0.5

    def test_tight_requests_keep_factor_one(self):
        # Usage equals the request: every cut fails; the policy stays at 1.
        est = bound(ReinforcementLearning(epsilon=0.2, rng=0))
        job = make_job(req_mem=32.0, used_mem=32.0)
        for _ in range(300):
            run_cycle(est, job)
        assert est.policy()[32.0] == 1.0

    def test_policy_is_per_request_level(self):
        est = bound(ReinforcementLearning(factors=(1.0, 0.5, 0.125), epsilon=0.2, rng=0))
        heavy = make_job(job_id=1, req_mem=32.0, used_mem=30.0)
        light = make_job(job_id=2, req_mem=8.0, used_mem=1.0)
        for _ in range(300):
            run_cycle(est, heavy)
            run_cycle(est, light)
        policy = est.policy()
        assert policy[32.0] == 1.0
        assert policy[8.0] == 0.125


class TestMechanics:
    def test_estimate_is_factor_times_request(self):
        est = bound(ReinforcementLearning(factors=(1.0,), epsilon=0.0, rng=0))
        assert est.estimate(make_job(req_mem=32.0)) == 32.0

    def test_retry_guard_returns_request(self):
        est = bound()
        assert est.estimate(make_job(req_mem=32.0), attempt=5) == 32.0

    def test_feedback_without_pending_is_ignored(self):
        est = bound()
        est.observe(
            Feedback(job=make_job(), succeeded=True, requirement=32.0, granted=32.0)
        )  # no estimate() was made for this attempt; must not raise

    def test_deterministic_given_seed(self):
        a = bound(ReinforcementLearning(rng=7))
        b = bound(ReinforcementLearning(rng=7))
        job = make_job(req_mem=32.0, used_mem=8.0)
        seq_a = [run_cycle(a, job)[0] for _ in range(50)]
        seq_b = [run_cycle(b, job)[0] for _ in range(50)]
        assert seq_a == seq_b

    def test_q_values_exposed(self):
        est = bound()
        job = make_job(req_mem=32.0, used_mem=8.0)
        run_cycle(est, job)
        assert est.n_states == 1
        assert set(est.q_values(32.0)) == set(est.factors)

    def test_reset_clears_learning(self):
        est = bound()
        job = make_job(req_mem=32.0, used_mem=8.0)
        for _ in range(20):
            run_cycle(est, job)
        est.reset()
        assert est.n_states == 0
        assert est.policy() == {}

    def test_failure_penalty_discourages_cuts(self):
        # With a huge penalty even one failure pins the arm below the safe one.
        est = bound(
            ReinforcementLearning(
                factors=(1.0, 0.25), epsilon=0.3, failure_penalty=100.0, rng=1
            )
        )
        job = make_job(req_mem=32.0, used_mem=16.0)  # 0.25 cut always fails
        for _ in range(200):
            run_cycle(est, job)
        q = est.q_values(32.0)
        assert q[1.0] > q[0.25]


class _Uncached(ReinforcementLearning):
    """Recomputes the greedy arm at every choice: the cache is emptied first."""

    def _choose_factor(self, state):
        self._greedy.clear()
        return super()._choose_factor(state)


_rl_steps = st.lists(
    st.tuples(
        st.sampled_from((8.0, 16.0, 32.0)),  # request, hence bandit state
        st.integers(0, 3),  # attempt; from 2 on the bandit is bypassed
        st.floats(0.05, 1.0),  # used / requested
        st.booleans(),  # report the outcome (else it stays pending)
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(_rl_steps, st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.3)),
       st.booleans())
def test_cached_greedy_arm_is_the_policy(steps, seed, epsilon, reset_midway):
    """After any estimate/observe sequence every cached greedy factor equals
    ``policy()[state]``, and the estimates (so the RNG draws) are those of an
    estimator that recomputes the greedy arm at every choice."""
    est = bound(ReinforcementLearning(epsilon=epsilon, rng=seed))
    ref = bound(_Uncached(epsilon=epsilon, rng=seed))
    for n, (req, attempt, frac, report) in enumerate(steps):
        job = make_job(job_id=n, req_mem=req, used_mem=req * frac)
        requirement = est.estimate(job, attempt=attempt)
        assert requirement == ref.estimate(job, attempt=attempt)
        if report:
            feedback = Feedback(job=job, succeeded=requirement >= job.used_mem,
                                requirement=requirement, granted=requirement,
                                attempt=attempt)
            est.observe(feedback)
            ref.observe(feedback)
        policy = est.policy()
        assert all(factor == policy[state]
                   for state, factor in est._greedy.items())
        if reset_midway and n == len(steps) // 2:
            est.reset()
            ref.reset()
            assert est._greedy == {}
    assert est.policy() == ref.policy()
