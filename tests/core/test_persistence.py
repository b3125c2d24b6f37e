"""Estimator state persistence (warm restarts)."""

import pytest

from repro.cluster.ladder import CapacityLadder
from repro.core import (
    LastInstance,
    NoEstimation,
    RegressionEstimator,
    SuccessiveApproximation,
)
from repro.core.base import Feedback
from repro.core.persistence import dump_state, dumps, load_state, loads
from tests.conftest import make_job


def ladder():
    return CapacityLadder([8.0, 16.0, 24.0, 32.0])


def train_successive():
    est = SuccessiveApproximation()
    est.bind(ladder())
    job = make_job(req_mem=32.0, used_mem=5.0)
    for req in (32.0, 16.0):
        est.observe(Feedback(job=job, succeeded=True, requirement=req, granted=32.0))
    return est, job


class TestSuccessiveRoundTrip:
    def test_estimates_survive_restart(self):
        est, job = train_successive()
        before = est.estimate(job)
        blob = dumps(est)

        fresh = SuccessiveApproximation()
        fresh.bind(ladder())
        loads(fresh, blob)
        assert fresh.estimate(job) == before
        state = fresh.group_state_for(job)
        assert state.last_safe == 16.0
        assert state.successes == 2

    def test_json_serializable(self):
        import json

        est, _ = train_successive()
        json.loads(dumps(est))  # must not raise

    def test_runtime_only_fields_not_persisted(self):
        # Probe tickets and per-job failure floors are in-flight state tied
        # to a live simulation; a restart clears them.
        est, job = train_successive()
        est.estimate(job)  # takes a probe ticket
        est.observe(Feedback(job=job, succeeded=False, requirement=8.0, granted=8.0))
        blob = dump_state(est)
        fresh = SuccessiveApproximation()
        fresh.bind(ladder())
        load_state(fresh, blob)
        assert fresh._failed_at == {}
        assert fresh.group_state_for(job).probe is None


class TestLastInstanceRoundTrip:
    def test_usage_window_survives(self):
        est = LastInstance(safety_factor=1.0, window=3)
        est.bind(ladder())
        job = make_job(req_mem=32.0)
        for used in (4.0, 6.0):
            est.observe(
                Feedback(job=job, succeeded=True, requirement=32.0, granted=32.0, used=used)
            )
        blob = dumps(est)
        fresh = LastInstance(safety_factor=1.0, window=3)
        fresh.bind(ladder())
        loads(fresh, blob)
        assert fresh.estimate(job) == 6.0

    def test_escalation_flag_survives(self):
        est = LastInstance()
        est.bind(ladder())
        job = make_job(req_mem=32.0)
        est.observe(
            Feedback(job=job, succeeded=True, requirement=32.0, granted=32.0, used=4.0)
        )
        est.observe(
            Feedback(job=job, succeeded=False, requirement=4.4, granted=8.0, used=10.0)
        )
        fresh = LastInstance()
        fresh.bind(ladder())
        loads(fresh, dumps(est))
        assert fresh.estimate(job) == 32.0  # still escalated


class TestRegressionRoundTrip:
    def test_model_survives(self):
        est = RegressionEstimator(min_samples=5, safety_sigmas=0.0)
        est.bind(ladder())
        for i in range(30):
            job = make_job(job_id=i, req_mem=32.0)
            est.observe(
                Feedback(job=job, succeeded=True, requirement=32.0, granted=32.0, used=16.0)
            )
        probe = make_job(req_mem=32.0)
        before = est.estimate(probe)
        fresh = RegressionEstimator(min_samples=5, safety_sigmas=0.0)
        fresh.bind(ladder())
        loads(fresh, dumps(est))
        assert fresh.estimate(probe) == pytest.approx(before)
        assert fresh.n_samples == 30

    def test_default_margin_survives(self):
        """With the default one-sigma margin, a reloaded model estimates
        exactly as the trained one: the residual spread travels with the
        model state."""
        def job(i):
            return make_job(job_id=i, req_mem=(8.0, 16.0, 32.0)[i % 3],
                            procs=1 + i % 7, run_time=60.0 * (1 + i % 5),
                            used_mem=(2.0, 5.0, 7.5, 12.0)[i % 4])

        est = RegressionEstimator(min_samples=5)
        est.bind(ladder())
        for i in range(40):
            j = job(i)
            est.observe(Feedback(job=j, succeeded=True, requirement=j.req_mem,
                                 granted=j.req_mem, used=j.used_mem))
        assert est.residual_std > 0
        probes = [job(i) for i in range(100, 160)]
        before = [est.estimate(p) for p in probes]
        assert len(set(before)) > 1
        fresh = RegressionEstimator(min_samples=5)
        fresh.bind(ladder())
        loads(fresh, dumps(est))
        assert [fresh.estimate(p) for p in probes] == before

    def test_cold_model_round_trips(self):
        est = RegressionEstimator()
        fresh = RegressionEstimator()
        loads(fresh, dumps(est))
        assert fresh.n_samples == 0


class TestErrors:
    def test_unsupported_estimator(self):
        with pytest.raises(TypeError, match="persistence handler"):
            dump_state(NoEstimation())

    def test_type_mismatch(self):
        est, _ = train_successive()
        blob = dump_state(est)
        with pytest.raises(ValueError, match="saved from"):
            load_state(LastInstance(), blob)

    def test_bad_schema(self):
        est, _ = train_successive()
        blob = dump_state(est)
        blob["schema"] = 999
        fresh = SuccessiveApproximation()
        with pytest.raises(ValueError, match="schema"):
            load_state(fresh, blob)
