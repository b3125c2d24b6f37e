"""Group-quality analyses (Figures 3 and 4)."""

import numpy as np
import pytest

from repro.similarity.analysis import (
    gain_vs_range,
    group_size_distribution,
    similarity_report,
)
from tests.conftest import make_job, make_workload


def grouped_workload():
    """Three groups: sizes 1, 2, and 12 (one crossing the >=10 threshold)."""
    jobs = [make_job(job_id=1, user_id=1, app_id=1)]
    jobs += [make_job(job_id=10 + i, user_id=2, app_id=1) for i in range(2)]
    jobs += [
        make_job(job_id=100 + i, user_id=3, app_id=1, used_mem=4.0 + 0.1 * i)
        for i in range(12)
    ]
    return make_workload(jobs, total_nodes=1024)


class TestGroupSizeDistribution:
    def test_counts(self):
        dist = group_size_distribution(grouped_workload())
        assert dist.n_groups == 3
        assert dist.n_jobs == 15
        assert dist.sizes.tolist() == [1, 2, 12]

    def test_job_fractions_sum_to_one(self):
        dist = group_size_distribution(grouped_workload())
        assert dist.job_fraction.sum() == pytest.approx(1.0)

    def test_fraction_of_groups_at_least(self):
        dist = group_size_distribution(grouped_workload())
        assert dist.fraction_of_groups_at_least(10) == pytest.approx(1 / 3)
        assert dist.fraction_of_groups_at_least(2) == pytest.approx(2 / 3)

    def test_fraction_of_jobs_at_least(self):
        dist = group_size_distribution(grouped_workload())
        assert dist.fraction_of_jobs_at_least(10) == pytest.approx(12 / 15)

    def test_excludes_full_machine_jobs(self):
        w = make_workload(
            list(grouped_workload()) + [make_job(job_id=999, procs=1024, user_id=9)]
        )
        dist = group_size_distribution(w, exclude_full_machine=True)
        assert dist.n_jobs == 15
        dist_all = group_size_distribution(w, exclude_full_machine=False)
        assert dist_all.n_jobs == 16

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            group_size_distribution(make_workload([]))

    def test_format_table_mentions_key_stats(self):
        table = group_size_distribution(grouped_workload()).format_table()
        assert "3 groups" in table


class TestGainVsRange:
    def test_only_groups_above_threshold(self):
        points = gain_vs_range(grouped_workload(), min_group_size=10)
        assert len(points) == 1
        assert points[0].n_jobs == 12

    def test_axes_definitions(self):
        points = gain_vs_range(grouped_workload(), min_group_size=10)
        p = points[0]
        # used: 4.0 .. 5.1, requested 32
        assert p.similarity_range == pytest.approx(5.1 / 4.0)
        assert p.potential_gain == pytest.approx(32.0 / 5.1)

    def test_threshold_one_includes_everything(self):
        points = gain_vs_range(grouped_workload(), min_group_size=1)
        assert len(points) == 3


class TestSimilarityReport:
    def test_report_on_synthetic_trace(self, small_trace):
        report = similarity_report(small_trace)
        assert report.n_groups > 100
        # The calibrated trace keeps the paper's structural properties.
        assert report.frac_groups_ge_10 == pytest.approx(0.194, abs=0.07)
        assert report.frac_jobs_in_ge_10 == pytest.approx(0.83, abs=0.1)
        assert report.median_similarity_range < 1.5
        assert report.frac_high_gain_groups > 0.0

    def test_format_report(self, small_trace):
        text = similarity_report(small_trace).format_report()
        assert "9885" in text  # paper reference shown
        assert "similarity groups" in text

    def test_coarser_key_gives_fewer_groups(self, small_trace):
        from repro.similarity.keys import by_user_app, by_user_app_reqmem

        fine = similarity_report(small_trace, by_user_app_reqmem)
        coarse = similarity_report(small_trace, by_user_app)
        assert coarse.n_groups <= fine.n_groups
