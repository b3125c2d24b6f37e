"""Algorithm 1 (successive approximation): line-by-line fidelity tests.

The paper's worked examples are the specification:

* Figure 7: requested 32 MB, actual ~5.2 MB, alpha=2, beta=0 on a rich
  ladder — the estimate halves 32, 16, 8, the 4 MB attempt fails, and the
  group settles at 8 MB.
* §2.3 (J1/J2): 12 MB and 18 MB jobs sharing a 64 MB-request group on
  {8, 16, 32, 64} — the failed 16 MB attempt for J2 leaves the group at 32.
* §3.2: request-20 on {15, 30} reaches the 15 MB machines with alpha=2 but
  not with alpha=1.2.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ladder import CapacityLadder
from repro.core.base import Feedback
from repro.core.successive import SuccessiveApproximation
from tests.conftest import make_job


def drive(estimator, job, ladder, n_cycles, used=None):
    """Run submission/feedback cycles with the simulator's success rule."""
    used = used if used is not None else job.used_mem
    history = []
    for _ in range(n_cycles):
        requirement = estimator.estimate(job)
        granted = ladder.round_up(requirement)
        succeeded = granted is not None and granted >= used
        estimator.observe(
            Feedback(
                job=job,
                succeeded=succeeded,
                requirement=requirement,
                granted=granted if granted is not None else 0.0,
            )
        )
        history.append((requirement, succeeded))
    return history


class TestConstruction:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError, match="alpha"):
            SuccessiveApproximation(alpha=1.0)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            SuccessiveApproximation(beta=1.0)
        with pytest.raises(ValueError):
            SuccessiveApproximation(beta=-0.1)

    def test_estimate_requires_binding(self):
        with pytest.raises(RuntimeError, match="bind"):
            SuccessiveApproximation().estimate(make_job())

    def test_max_reduced_attempts_validated(self):
        with pytest.raises(ValueError):
            SuccessiveApproximation(max_reduced_attempts=0)


class TestFigure7Trajectory:
    def test_exact_sequence(self):
        ladder = CapacityLadder([4.0, 8.0, 16.0, 24.0, 32.0])
        est = SuccessiveApproximation(alpha=2.0, beta=0.0)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=5.2)
        history = drive(est, job, ladder, 6)
        assert [h[0] for h in history] == [32.0, 16.0, 8.0, 4.0, 8.0, 8.0]
        assert [h[1] for h in history] == [True, True, True, False, True, True]

    def test_four_fold_reduction(self):
        ladder = CapacityLadder([4.0, 8.0, 16.0, 24.0, 32.0])
        est = SuccessiveApproximation()
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=5.2)
        final = drive(est, job, ladder, 8)[-1][0]
        assert 32.0 / final == 4.0


class TestPaperSection23:
    def test_j1_j2_mixed_group_freezes_at_32(self):
        # J1 uses 12, J2 uses 18; both request 64; ladder {8,16,32,64}.
        ladder = CapacityLadder([8.0, 16.0, 32.0, 64.0])
        est = SuccessiveApproximation(alpha=2.0, beta=0.0)
        est.bind(ladder)
        j1 = make_job(job_id=1, req_mem=64.0, used_mem=12.0)
        j2 = make_job(job_id=2, req_mem=64.0, used_mem=18.0)

        # J1 first: 64 succeeds -> estimate 32.
        drive(est, j1, ladder, 1)
        # J2 next: runs at 32, succeeds -> estimate 16.
        drive(est, j2, ladder, 1)
        # J2 again: 16 < 18 fails -> revert; final estimate 32 (the paper's
        # "the final estimated resources would be 32MB").
        history = drive(est, j2, ladder, 2)
        assert history[0] == (16.0, False)
        assert history[1] == (32.0, True)

    def test_two_tier_24_stops_descent(self):
        # Request 32, use 4 on the {24, 32} Figure 5 cluster: the estimate
        # descends to the 24MB tier and stays (no smaller machines exist).
        ladder = CapacityLadder([24.0, 32.0])
        est = SuccessiveApproximation()
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=4.0)
        history = drive(est, job, ladder, 4)
        assert [h[0] for h in history] == [32.0, 24.0, 24.0, 24.0]
        assert all(h[1] for h in history)


class TestClampToRequest:
    def test_estimate_never_exceeds_request(self):
        # §3.2's example: request 20 on {15, 30} with alpha=2 reaches 15MB —
        # this requires the first submission to carry the request (20), not
        # the rounded-up machine size (30).
        ladder = CapacityLadder([15.0, 30.0])
        est = SuccessiveApproximation(alpha=2.0)
        est.bind(ladder)
        job = make_job(req_mem=20.0, used_mem=10.0)
        history = drive(est, job, ladder, 3)
        assert history[0][0] == 20.0
        assert history[1][0] == 15.0  # reached the small machines
        assert all(h[1] for h in history)

    def test_alpha_1_2_cannot_reach_small_tier(self):
        ladder = CapacityLadder([15.0, 30.0])
        est = SuccessiveApproximation(alpha=1.2)
        est.bind(ladder)
        job = make_job(req_mem=20.0, used_mem=10.0)
        history = drive(est, job, ladder, 6)
        # 20/1.2 = 16.7 > 15: every requirement stays above the small tier.
        assert all(req > 15.0 for req, _ in history)


class TestBetaDynamics:
    def test_beta_zero_freezes_after_failure(self):
        ladder = CapacityLadder([4.0, 8.0, 16.0, 32.0])
        est = SuccessiveApproximation(alpha=2.0, beta=0.0)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=5.0)
        drive(est, job, ladder, 4)  # 32, 16, 8, 4(fail)
        state = est.group_state_for(job)
        assert state.alpha == 1.0
        history = drive(est, job, ladder, 3)
        assert [h[0] for h in history] == [8.0, 8.0, 8.0]

    def test_beta_half_keeps_reducing_more_slowly(self):
        ladder = CapacityLadder([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        est = SuccessiveApproximation(alpha=4.0, beta=0.5)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=5.0)
        # 32 ok -> 8 ok -> 2 fail: alpha 4 -> 2, estimate 8/2 = 4 fail:
        # alpha -> 1, estimate 8.
        history = drive(est, job, ladder, 5)
        assert [h[0] for h in history] == [32.0, 8.0, 2.0, 4.0, 8.0]
        state = est.group_state_for(job)
        assert state.alpha == 1.0

    def test_alpha_never_drops_below_one(self):
        ladder = CapacityLadder([8.0, 32.0])
        est = SuccessiveApproximation(alpha=2.0, beta=0.3)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=10.0)
        drive(est, job, ladder, 6)
        assert est.group_state_for(job).alpha >= 1.0


class TestGroupBookkeeping:
    def test_new_group_initialized_with_request(self):
        ladder = CapacityLadder([32.0])
        est = SuccessiveApproximation()
        est.bind(ladder)
        job = make_job(req_mem=32.0)
        est.estimate(job)
        state = est.group_state_for(job)
        assert state.request == 32.0
        assert state.alpha == 2.0

    def test_groups_are_independent(self):
        ladder = CapacityLadder([8.0, 16.0, 32.0])
        est = SuccessiveApproximation()
        est.bind(ladder)
        a = make_job(job_id=1, user_id=1, req_mem=32.0, used_mem=4.0)
        b = make_job(job_id=2, user_id=2, req_mem=32.0, used_mem=30.0)
        drive(est, a, ladder, 3)
        # Group b is untouched by group a's descent.
        assert est.estimate(b) == 32.0
        assert est.n_groups == 2

    def test_first_failure_without_success_reverts_to_request(self):
        # A job that fails on its very first (unreduced) attempt — e.g. a
        # spurious failure — must not drive the estimate below the request.
        ladder = CapacityLadder([32.0])
        est = SuccessiveApproximation()
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=4.0)
        requirement = est.estimate(job)
        est.observe(
            Feedback(job=job, succeeded=False, requirement=requirement, granted=32.0)
        )
        assert est.estimate(job) == 32.0

    def test_reset_clears_state(self):
        ladder = CapacityLadder([8.0, 32.0])
        est = SuccessiveApproximation()
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=4.0)
        drive(est, job, ladder, 2)
        est.reset()
        assert est.n_groups == 0
        assert est.group_state_for(job) is None

    def test_memory_footprint_is_linear_in_groups(self):
        ladder = CapacityLadder([32.0])
        est = SuccessiveApproximation()
        est.bind(ladder)
        for uid in range(5):
            est.estimate(make_job(job_id=uid, user_id=uid))
        assert est.memory_footprint() == 15  # 3 scalars per group

    def test_memory_footprint_counts_retry_guard(self):
        # The per-job _failed_at dict is retained state and must show up in
        # the space-efficiency accounting, one scalar per guarded job.
        ladder = CapacityLadder([8.0, 32.0])
        est = SuccessiveApproximation()
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=30.0)
        est.estimate(job)
        base = est.memory_footprint()
        est.observe(
            Feedback(job=job, succeeded=False, requirement=16.0, granted=16.0)
        )
        assert est.memory_footprint() == base + 1
        # A success clears the guard entry and the count drops back.
        est.observe(
            Feedback(job=job, succeeded=True, requirement=32.0, granted=32.0)
        )
        assert est.memory_footprint() == base


class TestRetryGuard:
    def test_high_attempt_returns_request(self):
        ladder = CapacityLadder([8.0, 32.0])
        est = SuccessiveApproximation(max_reduced_attempts=2)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=30.0)
        drive(est, job, ladder, 3)
        assert est.estimate(job, attempt=2) == 32.0

    def test_low_attempt_still_estimates(self):
        ladder = CapacityLadder([16.0, 32.0])
        est = SuccessiveApproximation(max_reduced_attempts=2)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=4.0)
        drive(est, job, ladder, 2)
        assert est.estimate(job, attempt=1) == 16.0


class TestExplicitGuard:
    def test_false_positive_ignored_with_guard(self):
        ladder = CapacityLadder([8.0, 32.0])
        est = SuccessiveApproximation(explicit_guard=True)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=4.0)
        drive(est, job, ladder, 2)  # descend to 8
        state_before = est.group_state_for(job).estimate
        # Spurious failure: granted 8 >= used 4 — not a resource problem.
        est.observe(
            Feedback(job=job, succeeded=False, requirement=8.0, granted=8.0, used=4.0)
        )
        assert est.group_state_for(job).estimate == state_before
        assert est.group_state_for(job).alpha == 2.0

    def test_real_failure_still_backs_off_with_guard(self):
        ladder = CapacityLadder([8.0, 32.0])
        est = SuccessiveApproximation(explicit_guard=True)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=10.0)
        drive(est, job, ladder, 1)
        est.observe(
            Feedback(job=job, succeeded=False, requirement=8.0, granted=8.0, used=10.0)
        )
        assert est.group_state_for(job).alpha == 1.0


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        used_frac=st.floats(min_value=0.02, max_value=1.0),
        alpha=st.floats(min_value=1.1, max_value=8.0),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_requirement_always_within_bounds(self, used_frac, alpha, n):
        ladder = CapacityLadder([2.0, 4.0, 8.0, 16.0, 32.0])
        est = SuccessiveApproximation(alpha=alpha)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=32.0 * used_frac)
        for requirement, _ in drive(est, job, ladder, n):
            assert 0 < requirement <= job.req_mem

    @settings(max_examples=50, deadline=None)
    @given(
        used_frac=st.floats(min_value=0.02, max_value=1.0),
        n=st.integers(min_value=2, max_value=16),
    )
    def test_beta_zero_at_most_one_failure_per_group(self, used_frac, n):
        # The paper's conservativeness: with beta=0 a (single-usage) group
        # fails at most once, then sits at a safe level forever.
        ladder = CapacityLadder([2.0, 4.0, 8.0, 16.0, 32.0])
        est = SuccessiveApproximation(alpha=2.0, beta=0.0)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=32.0 * used_frac)
        history = drive(est, job, ladder, n)
        assert sum(1 for _, ok in history if not ok) <= 1

    @settings(max_examples=50, deadline=None)
    @given(used_frac=st.floats(min_value=0.02, max_value=1.0))
    def test_converged_level_matches_static_analysis(self, used_frac):
        # The estimator's fixpoint equals the design tool's stable_level.
        from repro.cluster.builder import stable_level

        ladder = CapacityLadder([2.0, 4.0, 8.0, 16.0, 32.0])
        est = SuccessiveApproximation(alpha=2.0, beta=0.0)
        est.bind(ladder)
        job = make_job(req_mem=32.0, used_mem=32.0 * used_frac)
        history = drive(est, job, ladder, 16)
        final_granted = ladder.round_up(history[-1][0])
        assert final_granted == stable_level(32.0, job.used_mem, ladder, 2.0)


class TestFaultFalsePositives:
    """Injected resource-unrelated failures (node-fault kills): the group
    backs off, and with beta > 0 the alpha/beta mechanism re-converges."""

    LADDER = CapacityLadder([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])

    def descend(self, est, job, n):
        """n submit/success cycles (used <= every granted level)."""
        return drive(est, job, self.LADDER, n)

    def kill(self, est, job):
        """One fault kill: failure with granted >= used (not our fault)."""
        requirement = est.estimate(job)
        granted = self.LADDER.round_up(requirement)
        assert granted >= job.used_mem, "test setup: the kill must be spurious"
        est.observe(
            Feedback(
                job=job,
                succeeded=False,
                requirement=requirement,
                granted=granted,
                used=job.used_mem,
            )
        )

    def test_beta_zero_kill_freezes_the_group(self):
        est = SuccessiveApproximation(alpha=3.0, beta=0.0)
        est.bind(self.LADDER)
        a = make_job(job_id=1, req_mem=32.0, used_mem=3.0)
        self.descend(est, a, 2)  # 32 ok, 16 ok -> safe 16, estimate 5.33
        self.kill(est, a)  # would have submitted at 8
        state = est.group_state_for(a)
        assert state.alpha == 1.0  # frozen: no further descent, ever
        b = make_job(job_id=2, req_mem=32.0, used_mem=3.0)
        history = self.descend(est, b, 4)
        assert [h[0] for h in history] == [16.0, 16.0, 16.0, 16.0]

    def test_beta_decay_backs_off_then_reconverges(self):
        est = SuccessiveApproximation(alpha=3.0, beta=0.75)
        est.bind(self.LADDER)
        a = make_job(job_id=1, req_mem=32.0, used_mem=3.0)
        self.descend(est, a, 2)  # safe 16, estimate 16/3
        self.kill(est, a)
        state = est.group_state_for(a)
        # Backed off: restored toward the safe value, alpha decayed not dead.
        assert state.alpha == pytest.approx(2.25)
        assert state.estimate == pytest.approx(16.0 / 2.25)
        # A sibling resumes the descent and the group still reaches the
        # smallest sufficient level (4 for a 3 MB job).
        b = make_job(job_id=2, req_mem=32.0, used_mem=3.0)
        history = self.descend(est, b, 6)
        assert history[0][0] == 8.0  # the kill cost one rung, not the climb
        assert history[-1][0] == 4.0
        assert history[-1][1]

    def test_explicit_guard_ignores_the_kill_entirely(self):
        est = SuccessiveApproximation(alpha=3.0, beta=0.0, explicit_guard=True)
        est.bind(self.LADDER)
        a = make_job(job_id=1, req_mem=32.0, used_mem=3.0)
        self.descend(est, a, 2)
        state_before = (est.group_state_for(a).estimate, est.group_state_for(a).alpha)
        self.kill(est, a)
        state = est.group_state_for(a)
        assert (state.estimate, state.alpha) == state_before
        # The same job keeps descending: the guard also skips the per-job
        # failed-level floor for not-our-fault failures.
        history = self.descend(est, a, 4)
        assert history[0][0] == 8.0
        assert history[-1][0] == 4.0
