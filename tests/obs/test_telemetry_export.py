"""Estimator telemetry sampling, the timeline sampler, and the Prometheus export."""

from repro.cluster import paper_cluster
from repro.cluster.cluster import Cluster
from repro.core import NoEstimation, SuccessiveApproximation
from repro.obs import (
    CounterObserver,
    EstimatorTelemetryObserver,
    TimelineSampler,
    prometheus_text,
)
from repro.sim import Simulation, TimelineSample, simulate
from tests.conftest import make_job, make_workload


class TestEstimatorTelemetryProtocol:
    def test_base_default_is_name_only(self):
        assert NoEstimation().telemetry() == {"name": "no-estimation"}

    def test_successive_reports_groups(self):
        estimator = SuccessiveApproximation()
        workload = make_workload(
            [
                make_job(job_id=1, submit_time=0.0, run_time=10.0, procs=1,
                         used_mem=5.0, user_id=1),
                make_job(job_id=2, submit_time=100.0, run_time=10.0, procs=1,
                         used_mem=5.0, user_id=2),
            ]
        )
        simulate(workload, paper_cluster(24.0), estimator=estimator, seed=0)
        snapshot = estimator.telemetry()
        assert snapshot["name"] == "successive-approximation"
        assert snapshot["n_groups"] == 2
        for state in snapshot["groups"].values():
            assert {"estimate", "alpha", "safe_value", "successes", "failures"} \
                <= set(state)


class TestTelemetryObserver:
    def test_trajectory_and_backoff(self):
        # One group descending 32 -> 16 -> 12(=24/2 internal) with a failure
        # in the middle restores the estimate upward: a backoff event.
        jobs = [
            make_job(job_id=i + 1, submit_time=200.0 * i, run_time=100.0,
                     procs=1, req_mem=32.0, used_mem=20.0)
            for i in range(3)
        ]
        telemetry = EstimatorTelemetryObserver()
        simulate(
            make_workload(jobs),
            Cluster([(4, 32.0), (4, 16.0)]),
            estimator=SuccessiveApproximation(),
            seed=0,
            observer=telemetry,
        )
        assert len(telemetry.groups) == 1
        (group,) = telemetry.groups
        estimates = [e for _, e, _ in telemetry.trajectory(group)]
        # Success at 32 halves to 16; the 16 probe fails (uses 20) and the
        # internal estimate is restored to the safe 32.
        assert estimates[0] == 16.0
        assert 32.0 in estimates[1:]
        assert telemetry.backoffs, "the failure-restore never surfaced"
        assert telemetry.backoffs[0].restored > telemetry.backoffs[0].previous
        assert group in telemetry.format_report()

    def test_safe_on_groupless_estimator(self):
        telemetry = EstimatorTelemetryObserver()
        simulate(
            make_workload([make_job(procs=1)]),
            paper_cluster(24.0),
            estimator=NoEstimation(),
            observer=telemetry,
        )
        assert telemetry.groups == {}
        assert "no per-group telemetry" in telemetry.format_report()


def _timeline_run(sampler, n_jobs):
    jobs = [
        make_job(job_id=i + 1, submit_time=float(i), procs=8)
        for i in range(n_jobs)
    ]
    return Simulation(
        make_workload(jobs), Cluster([(16, 32.0)]), observer=sampler
    ).run()


class TestTimelineSampler:
    def test_sets_result_timeline(self):
        sampler = TimelineSampler()
        result = _timeline_run(sampler, 6)
        assert result.timeline == sampler.samples
        assert all(isinstance(s, TimelineSample) for s in sampler.samples)
        # One sample per event: six arrivals and six completions.
        assert len(result.timeline) == 12
        times = [s.time for s in result.timeline]
        assert times == sorted(times)

    def test_reused_across_runs(self):
        sampler = TimelineSampler()
        first = _timeline_run(sampler, 6)
        kept = list(first.timeline)
        second = _timeline_run(sampler, 4)
        fresh = TimelineSampler()
        assert second.timeline == _timeline_run(fresh, 4).timeline
        assert sampler.samples == fresh.samples == second.timeline
        assert first.timeline == kept  # the second run left it alone


class TestPrometheusExport:
    def test_format_and_values(self, sim_trace):
        counters = CounterObserver()
        result = simulate(
            sim_trace,
            paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            seed=0,
            observer=counters,
        )
        text = prometheus_text(result, counters=counters.snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        helps = [l for l in lines if l.startswith("# HELP")]
        types = [l for l in lines if l.startswith("# TYPE")]
        assert len(helps) == len(types)
        samples = [l for l in lines if not l.startswith("#")]
        for line in samples:
            name_and_labels, value = line.rsplit(" ", 1)
            assert name_and_labels.startswith("repro_")
            assert 'workload="' in name_and_labels
            float(value)  # every sample value parses
        assert any(
            l.startswith("repro_attempts_total{") and l.endswith(f" {result.n_attempts}")
            for l in samples
        )
        assert any('name="attempts_started"' in l for l in samples)

    def test_label_escaping(self, sim_trace):
        result = simulate(sim_trace, paper_cluster(24.0), seed=0)
        text = prometheus_text(result, extra_labels={"tag": 'say "hi"\nthere'})
        assert 'tag="say \\"hi\\" there"' in text
