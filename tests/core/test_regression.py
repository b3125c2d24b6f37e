"""Regression estimator (explicit feedback, no similarity)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ladder import CapacityLadder
from repro.core.base import Feedback
from repro.core.regression import RegressionEstimator, default_features
from repro.workload.job import Job, Workload
from tests.conftest import make_job
from tests.learned_state import learned_state


def bound(est=None):
    est = est or RegressionEstimator()
    est.bind(CapacityLadder([4.0, 8.0, 16.0, 24.0, 32.0]))
    return est


def feed(est, job, used, succeeded=True, granted=32.0):
    est.observe(
        Feedback(
            job=job,
            succeeded=succeeded,
            requirement=job.req_mem,
            granted=granted,
            used=used,
        )
    )


class TestColdStart:
    def test_trusts_request_before_min_samples(self):
        est = bound(RegressionEstimator(min_samples=10))
        job = make_job(req_mem=32.0)
        for i in range(9):
            feed(est, make_job(job_id=i), used=4.0)
        assert est.estimate(job) == 32.0

    def test_estimates_after_min_samples(self):
        est = bound(RegressionEstimator(min_samples=5, safety_sigmas=0.0))
        for i in range(20):
            feed(est, make_job(job_id=i, req_mem=32.0), used=16.0)
        # Everyone over-provisions 2x: the learnt mapping divides by 2
        # (the paper's §4 example).
        assert est.estimate(make_job(req_mem=32.0)) == pytest.approx(16.0, rel=0.1)


class TestLearning:
    def test_paper_example_divide_by_two(self):
        # Users over-estimate by 100% across several request levels.
        est = bound(RegressionEstimator(min_samples=10, safety_sigmas=0.0))
        rng = np.random.default_rng(0)
        for i in range(300):
            req = float(rng.choice([8.0, 16.0, 24.0, 32.0]))
            job = make_job(job_id=i, req_mem=req, used_mem=req / 2)
            feed(est, job, used=req / 2)
        for req in (8.0, 16.0, 32.0):
            predicted = est.estimate(make_job(job_id=999, req_mem=req, used_mem=1.0))
            assert predicted == pytest.approx(req / 2, rel=0.15)

    def test_safety_margin_raises_estimate(self):
        jobs = [make_job(job_id=i, req_mem=32.0) for i in range(100)]
        rng = np.random.default_rng(1)
        usages = np.exp(rng.normal(np.log(8.0), 0.5, size=100))

        tight = bound(RegressionEstimator(min_samples=10, safety_sigmas=0.0))
        safe = bound(RegressionEstimator(min_samples=10, safety_sigmas=2.0))
        for job, used in zip(jobs, usages):
            feed(tight, job, used=float(used))
            feed(safe, job, used=float(used))
        probe = make_job(job_id=999, req_mem=32.0)
        assert safe.estimate(probe) > tight.estimate(probe)

    def test_estimate_clamped_to_request(self):
        est = bound(RegressionEstimator(min_samples=5, safety_sigmas=5.0))
        for i in range(50):
            feed(est, make_job(job_id=i, req_mem=32.0), used=30.0)
        assert est.estimate(make_job(req_mem=32.0)) <= 32.0

    def test_under_allocated_failure_not_learnt(self):
        # Usage recorded for a job killed by under-allocation is a lower
        # bound; learning from it would bias the model downward.
        est = bound(RegressionEstimator(min_samples=1))
        feed(est, make_job(job_id=1), used=5.0, succeeded=False, granted=4.0)
        assert est.n_samples == 0

    def test_spurious_failure_is_learnt(self):
        # granted >= used: the sample is a genuine usage observation.
        est = bound(RegressionEstimator(min_samples=1))
        feed(est, make_job(job_id=1), used=3.0, succeeded=False, granted=8.0)
        assert est.n_samples == 1

    def test_implicit_feedback_ignored(self):
        est = bound(RegressionEstimator())
        est.observe(
            Feedback(job=make_job(), succeeded=True, requirement=32.0, granted=32.0, used=None)
        )
        assert est.n_samples == 0


class TestOfflineFit:
    def test_fit_warm_starts(self, small_trace):
        est = bound(RegressionEstimator(min_samples=50))
        est.fit(small_trace)
        assert est.n_samples == len(small_trace)
        job = make_job(req_mem=32.0, used_mem=1.0)
        # After warm start the estimator reduces full-node requests.
        assert est.estimate(job) < 32.0

    def test_linear_target_mode(self):
        est = bound(RegressionEstimator(min_samples=5, safety_sigmas=0.0, log_target=False))
        for i in range(50):
            feed(est, make_job(job_id=i, req_mem=32.0), used=16.0)
        assert est.estimate(make_job(req_mem=32.0)) == pytest.approx(16.0, rel=0.1)


class TestGuards:
    def test_retry_guard(self):
        est = bound(RegressionEstimator(min_samples=1, safety_sigmas=0.0))
        for i in range(20):
            feed(est, make_job(job_id=i, req_mem=32.0), used=4.0)
        assert est.estimate(make_job(req_mem=32.0), attempt=2) == 32.0

    def test_reset(self):
        est = bound(RegressionEstimator(min_samples=1))
        feed(est, make_job(), used=4.0)
        est.reset()
        assert est.n_samples == 0
        assert est.weights is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionEstimator(ridge=0.0)
        with pytest.raises(ValueError):
            RegressionEstimator(safety_sigmas=-1.0)
        with pytest.raises(ValueError):
            RegressionEstimator(min_samples=0)

    def test_default_features_request_time_only(self):
        x = default_features(make_job(req_mem=32.0, procs=64, req_time=500.0))
        assert x[0] == 1.0
        assert x[1] == 32.0
        assert len(x) == 5


class TestFeatureMemo:
    def test_features_computed_once_per_job_until_rebound(self):
        calls = []

        def features(job):
            calls.append(job.job_id)
            return default_features(job)

        est = bound(RegressionEstimator(feature_fn=features, min_samples=1))
        job = make_job(job_id=7, req_mem=32.0)
        feed(est, job, used=4.0)
        feed(est, job, used=4.0)
        est.estimate(job)
        est.estimate(make_job(job_id=8, req_mem=16.0))
        assert calls == [7, 8]
        bound(est)  # a new run: the memo starts empty
        est.estimate(job)
        est.reset()
        feed(est, job, used=4.0)
        assert calls == [7, 8, 7, 7]

    def test_memo_and_cached_spread_leave_estimates_unchanged(self):
        """The memo and the residual spread kept on the model state give
        the estimates a direct computation gives."""
        est = bound(RegressionEstimator(min_samples=3))
        jobs = [make_job(job_id=i, req_mem=(8.0, 16.0, 32.0)[i % 3],
                         procs=1 + i % 5) for i in range(30)]
        for i, job in enumerate(jobs):
            feed(est, job, used=job.req_mem * (0.2, 0.5, 0.9)[i % 3])
        state = est._state
        assert state.residual_std == float(
            np.sqrt(state.residual_sq_sum / (state.n_samples - 1))
        )
        for job in jobs:
            x = default_features(job)
            expected = float(np.exp(float(state.weights @ x)
                                    + state.residual_std))
            assert est.estimate(job) == min(expected, job.req_mem)


# ------------------------------------------------ RLS reference differential
def _reference_update(est, x, y):
    """One RLS step in the formulation the estimator's trimmed update must
    reproduce bit for bit: ``@`` products, the broadcast outer product and
    ``np.sqrt`` for the residual spread."""
    state = est._ensure_state(x.size)
    p = state.p_matrix
    px = p @ x
    gain = px / (1.0 + x @ px)
    error = y - float(state.weights @ x)
    state.weights = state.weights + gain * error
    state.p_matrix = p - gain[:, None] * px
    state.n_samples += 1
    state.residual_sq_sum += error * error
    state.residual_std = (
        0.0 if state.n_samples < 2
        else float(np.sqrt(state.residual_sq_sum / (state.n_samples - 1)))
    )


def _reference_estimate(est, job):
    """``estimate`` with the ``@`` prediction (past ``min_samples``)."""
    state = est._state
    requirement = (float(state.weights @ default_features(job))
                   + est.safety_sigmas * state.residual_std)
    if est.log_target:
        requirement = float(np.exp(requirement))
    if requirement <= 0:
        return job.req_mem
    return min(requirement, job.req_mem)


_rls_jobs = st.lists(
    st.tuples(
        st.floats(0.5, 64.0),
        st.integers(1, 1024),
        st.one_of(st.just(-1.0), st.floats(1.0, 1e6)),
        st.floats(0.01, 1.0),
    ),
    min_size=1,
    max_size=30,
).map(lambda rows: [
    Job(job_id=i, submit_time=0.0, run_time=100.0, procs=procs, req_mem=req,
        used_mem=req * frac, req_time=req_time)
    for i, (req, procs, req_time, frac) in enumerate(rows)
])


@settings(max_examples=120, deadline=None)
@given(_rls_jobs, _rls_jobs, st.sampled_from((0.01, 1.0, 25.0)), st.booleans())
def test_rls_update_is_bit_identical_to_the_reference(
    history, live, ridge, log_target
):
    """The trimmed RLS step (``ndarray.dot``, ``np.multiply.outer``,
    ``math.sqrt``) gives the reference formulation's weights, P and residual
    spread to the bit: after an offline ``fit`` and after further online
    ``observe`` calls, with estimates equal throughout."""
    def make():
        return bound(RegressionEstimator(ridge=ridge, min_samples=1,
                                         log_target=log_target))

    trimmed, reference = make(), make()
    workload = Workload(history)
    trimmed.fit(workload)
    for job in workload:  # fit's order: (submit_time, job_id)
        _reference_update(reference, default_features(job),
                          reference._target(job.used_mem))
    assert learned_state(trimmed) == learned_state(reference)

    for job in live:
        feed(trimmed, job, used=job.used_mem, granted=job.req_mem)
        _reference_update(reference, default_features(job),
                          reference._target(job.used_mem))
    assert learned_state(trimmed) == learned_state(reference)
    for job in history + live:
        assert trimmed.estimate(job) == _reference_estimate(reference, job)
