"""Online similarity-group identification (§4 future work)."""

import pytest

from repro.cluster import paper_cluster
from repro.cluster.ladder import CapacityLadder
from repro.core import SuccessiveApproximation
from repro.core.base import Feedback
from repro.similarity.keys import by_user_app, by_user_app_reqmem, make_key_function
from repro.core.online import OnlineSimilarityEstimator
from repro.similarity.online import AdaptiveKey
from repro.sim import simulate, utilization
from tests.conftest import make_job


class TestAdaptiveKey:
    def test_starts_at_coarsest_level(self):
        key = AdaptiveKey()
        job = make_job(user_id=1, app_id=2, req_mem=32.0)
        assert key(job)[0] == 0  # depth 0

    def test_tight_group_never_splits(self):
        key = AdaptiveKey(split_range=1.5, min_observations=3)
        job = make_job(user_id=1)
        for used in (8.0, 8.5, 8.2, 8.4, 8.1):
            key.observe_usage(job, used)
        assert not key.is_split(job)
        assert key.n_splits == 0

    def test_loose_group_splits(self):
        key = AdaptiveKey(split_range=1.5, min_observations=3)
        a = make_job(job_id=1, user_id=1, app_id=1, req_mem=32.0, used_mem=2.0)
        b = make_job(job_id=2, user_id=1, app_id=1, req_mem=16.0, used_mem=30.0)
        # Same coarse (user, app) group, usage spanning 15x.
        for job, used in ((a, 2.0), (b, 30.0), (a, 2.1), (b, 29.0)):
            key.observe_usage(job, used)
        assert key.is_split(a)
        # After the split, different requested memories land in different
        # fine groups.
        assert key(a) != key(b)
        assert key(a)[0] == 1

    def test_needs_min_observations(self):
        key = AdaptiveKey(split_range=1.2, min_observations=5)
        job = make_job(user_id=1)
        key.observe_usage(job, 1.0)
        key.observe_usage(job, 100.0)  # wildly loose, but only 2 samples
        assert not key.is_split(job)

    def test_split_exhausts_at_finest_level(self):
        key = AdaptiveKey(levels=(by_user_app,), split_range=1.2, min_observations=2)
        job = make_job(user_id=1)
        key.observe_usage(job, 1.0)
        key.observe_usage(job, 50.0)
        # Only one level: nothing finer to split into.
        assert not key.is_split(job)

    def test_three_level_chain(self):
        levels = (
            make_key_function(["user"]),
            make_key_function(["user", "app"]),
            make_key_function(["user", "app", "req_mem"]),
        )
        key = AdaptiveKey(levels=levels, split_range=1.3, min_observations=2)
        # Two apps of one user with very different usage -> split to level 1.
        a = make_job(job_id=1, user_id=1, app_id=1, used_mem=1.0)
        b = make_job(job_id=2, user_id=1, app_id=2, used_mem=20.0)
        for job, used in ((a, 1.0), (b, 20.0), (a, 1.0), (b, 20.0)):
            key.observe_usage(job, used)
        assert key(a)[0] == 1
        assert key(a) != key(b)

    def test_reset(self):
        key = AdaptiveKey(split_range=1.2, min_observations=2)
        job = make_job(user_id=1)
        key.observe_usage(job, 1.0)
        key.observe_usage(job, 10.0)
        key.reset()
        assert key.n_splits == 0
        assert not key.is_split(job)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveKey(levels=())
        with pytest.raises(ValueError):
            AdaptiveKey(split_range=1.0)
        with pytest.raises(ValueError):
            AdaptiveKey(min_observations=1)


class TestOnlineSimilarityEstimator:
    def test_routes_feedback_to_key(self):
        est = OnlineSimilarityEstimator(
            adaptive_key=AdaptiveKey(split_range=1.3, min_observations=2)
        )
        est.bind(CapacityLadder([8.0, 16.0, 32.0]))
        a = make_job(job_id=1, user_id=1, app_id=1, req_mem=32.0, used_mem=2.0)
        b = make_job(job_id=2, user_id=1, app_id=1, req_mem=16.0, used_mem=14.0)
        for job in (a, b, a, b):
            req = est.estimate(job)
            est.observe(
                Feedback(
                    job=job, succeeded=True, requirement=req, granted=32.0,
                    used=job.used_mem,
                )
            )
        assert est.adaptive_key.n_splits >= 1

    def test_inner_key_must_be_the_adaptive_key(self):
        adaptive = AdaptiveKey()
        foreign = SuccessiveApproximation()  # default key, not adaptive
        with pytest.raises(ValueError, match="key_fn"):
            OnlineSimilarityEstimator(adaptive_key=adaptive, inner=foreign)

    def test_end_to_end_beats_baseline(self):
        from repro.core import NoEstimation
        from repro.workload import drop_full_machine_jobs, lanl_cm5_like, scale_load

        trace = scale_load(
            drop_full_machine_jobs(lanl_cm5_like(n_jobs=2000, seed=0)), 0.8
        )
        base = simulate(trace, paper_cluster(24.0), estimator=NoEstimation(), seed=1)
        online = simulate(
            trace,
            paper_cluster(24.0),
            estimator=OnlineSimilarityEstimator(
                adaptive_key=AdaptiveKey(
                    levels=(by_user_app, by_user_app_reqmem),
                    split_range=1.5,
                    min_observations=4,
                )
            ),
            seed=1,
        )
        assert utilization(online) > utilization(base) * 1.15
        assert online.n_completed == len(trace)

    def test_reset_cascades(self):
        est = OnlineSimilarityEstimator()
        est.bind(CapacityLadder([32.0]))
        job = make_job()
        est.estimate(job)
        est.reset()
        assert est.adaptive_key.n_groups == 0

    @pytest.mark.xfail(
        strict=True,
        reason="SuccessiveApproximation._job_group pins a job to the group "
        "it first resolved to, but an AdaptiveKey re-keys jobs when their "
        "coarse group splits (see ROADMAP)",
    )
    def test_a_job_seen_before_a_split_follows_its_refined_group(self):
        """After a split, a job estimates from the group its key resolves to
        now: the same group a never-seen twin of it (same user, app and
        request) resolves to, and the one ``group_state_for`` returns."""
        est = OnlineSimilarityEstimator(
            adaptive_key=AdaptiveKey(split_range=1.5, min_observations=4)
        )
        est.bind(CapacityLadder([4.0, 8.0, 16.0, 32.0]))
        early = make_job(job_id=100, user_id=1, app_id=1, req_mem=32.0)
        est.estimate(early)  # resolved while (user, app) is still one group
        for i, used in enumerate((2.0, 30.0, 2.5, 28.0)):
            job = make_job(job_id=i, user_id=1, app_id=1, req_mem=32.0,
                           used_mem=used)
            est.observe(Feedback(job=job, succeeded=True,
                                 requirement=est.estimate(job),
                                 granted=32.0, used=used))
        assert est.adaptive_key.is_split(early)
        twin = early._replace(job_id=101)
        inner = est.inner
        assert inner._group_for(early) is inner.group_state_for(early)
        assert est.estimate(early) == est.estimate(twin)
