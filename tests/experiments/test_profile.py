"""Per-spec sweep profiling: wall-clock, retry, and cache-hit aggregation."""

import pytest

from repro.experiments.cache import SweepCache
from repro.experiments.parallel import (
    RunOutcome,
    SweepReport,
    run_sweep,
    simulate_spec,
)
from repro.experiments.specs import EstimatorSpec, RunSpec, WorkloadSpec


def spec(estimator="none", load=0.5, n_jobs=300, label=None, **est_kwargs):
    est = (
        EstimatorSpec.make(estimator, **est_kwargs)
        if est_kwargs
        else EstimatorSpec(name=estimator)
    )
    return RunSpec(
        workload=WorkloadSpec(n_jobs=n_jobs, seed=0, load=load),
        estimator=est,
        label=label or f"{estimator}@{load:g}",
    )


class TestSweepProfile:
    def test_executed_runs_are_profiled(self):
        specs = [spec(load=0.4), spec(load=0.6)]
        profile = run_sweep(specs, max_workers=1).profile()
        assert profile.n_runs == 2
        assert profile.n_executed == 2
        assert profile.n_cache_hits == 0
        assert profile.cache_hit_rate == 0.0
        assert profile.total_wall_time > 0
        assert profile.max_wall_time <= profile.total_wall_time
        assert profile.mean_wall_time == pytest.approx(profile.total_wall_time / 2)
        assert profile.total_retries == 0

    def test_slowest_ranked_and_labelled(self):
        specs = [spec(load=0.4), spec(load=0.6), spec(load=0.8)]
        profile = run_sweep(specs, max_workers=1).profile(top=2)
        assert len(profile.slowest) == 2
        (l1, t1), (l2, t2) = profile.slowest
        assert t1 >= t2
        assert {l1, l2} <= {s.label for s in specs}
        assert t1 == profile.max_wall_time

    def test_cache_hits_excluded_from_wall_time(self, tmp_path):
        specs = [spec(load=0.4), spec(load=0.6)]
        run_sweep(specs, cache=SweepCache(tmp_path))
        warm = run_sweep(specs, cache=SweepCache(tmp_path)).profile()
        assert warm.n_runs == 2
        assert warm.n_executed == 0
        assert warm.n_cache_hits == 2
        assert warm.cache_hit_rate == 1.0
        # Cache hits cost ~0 and are excluded from wall-time aggregation.
        assert warm.total_wall_time == 0.0
        assert warm.mean_wall_time == 0.0
        assert warm.slowest == ()

    def test_retries_attributed_to_specs(self):
        # The per-spec retry counts the envelopes carry (a timed-out spec's
        # resubmissions) must surface in the aggregate.
        ok, timed_out = spec(load=0.4), spec(load=0.6)
        report = SweepReport(
            outcomes=[
                RunOutcome(spec=ok, point=simulate_spec(ok), retries=1),
                RunOutcome(spec=timed_out, point=None, error="timed out", retries=2),
            ],
            wall_time=1.0,
            max_workers=1,
        )
        profile = report.profile()
        assert profile.total_retries == 3
        assert profile.n_errors == 1
        assert profile.n_executed == 2

    def test_format_report_mentions_everything(self, tmp_path):
        specs = [spec(load=0.4), spec(load=0.6)]
        run_sweep(specs, cache=SweepCache(tmp_path))
        text = run_sweep(
            specs + [spec(load=0.8)], cache=SweepCache(tmp_path)
        ).profile().format_report()
        assert "2 cache hits = 67%" in text
        assert "slowest runs:" in text
        assert "none@0.8" in text
        assert "retries" in text
