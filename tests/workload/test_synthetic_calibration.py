"""Calibration of the synthetic trace against the paper's published numbers.

These tests are the contract behind the DESIGN.md §2 substitution: the
synthetic stand-in is only legitimate while it reproduces the statistics the
paper reports for LANL CM5.  Tolerances reflect that the paper itself says
"approximately".
"""

import dataclasses

import numpy as np
import pytest

from repro.similarity.analysis import group_size_distribution
from repro.workload.lanl_cm5 import LANL_CM5, lanl_cm5_like
from repro.workload.stats import overprovisioning_stats, ratio_at_least
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace


@pytest.fixture(scope="module")
def full_trace():
    # Module-scoped: generated once (~1s), analysed by every test below.
    return lanl_cm5_like(n_jobs=40_000, seed=0)


class TestHeadlineStatistics:
    def test_job_count_exact(self, full_trace):
        assert len(full_trace) == 40_000

    def test_frac_ratio_ge_2(self, full_trace):
        # Paper §1.1: ~32.8% of jobs request at least twice what they use.
        assert ratio_at_least(full_trace, 2.0) == pytest.approx(
            LANL_CM5.frac_ratio_ge_2, abs=0.05
        )

    def test_two_orders_of_magnitude_tail(self, full_trace):
        stats = overprovisioning_stats(full_trace)
        assert stats.max_ratio >= 50.0

    def test_log_histogram_is_decaying_line(self, full_trace):
        stats = overprovisioning_stats(full_trace)
        assert stats.fit.slope < 0  # decaying
        assert stats.fit.r_squared >= 0.5  # paper: 0.69

    def test_usage_never_exceeds_request(self, full_trace):
        assert all(j.used_mem <= j.req_mem + 1e-9 for j in full_trace)

    def test_full_machine_jobs_present(self, full_trace):
        full = [j for j in full_trace if j.procs == LANL_CM5.total_nodes]
        assert len(full) == LANL_CM5.n_full_machine_jobs


class TestGroupStructure:
    def test_group_count_scales_with_trace(self, full_trace):
        dist = group_size_distribution(full_trace)
        expected = LANL_CM5.n_groups * len(full_trace) / LANL_CM5.n_jobs
        assert dist.n_groups == pytest.approx(expected, rel=0.2)

    def test_frac_groups_ge_10(self, full_trace):
        dist = group_size_distribution(full_trace)
        assert dist.fraction_of_groups_at_least(10) == pytest.approx(
            LANL_CM5.frac_groups_ge_10, abs=0.05
        )

    def test_frac_jobs_in_ge_10(self, full_trace):
        dist = group_size_distribution(full_trace)
        assert dist.fraction_of_jobs_at_least(10) == pytest.approx(
            LANL_CM5.frac_jobs_in_ge_10, abs=0.07
        )

    def test_groups_are_discoverable_by_paper_key(self, full_trace):
        # The (user, app, req_mem) key must re-find the generated structure:
        # every group's requested memory is constant by construction.
        from repro.similarity.groups import build_groups

        groups = build_groups(j for j in full_trace if j.procs < 1024)
        for g in groups.values():
            assert g.similarity_range >= 1.0


class TestDeterminismAndScaling:
    def test_same_seed_same_trace(self):
        a = lanl_cm5_like(n_jobs=500, seed=3)
        b = lanl_cm5_like(n_jobs=500, seed=3)
        assert [(j.job_id, j.submit_time, j.used_mem) for j in a] == [
            (j.job_id, j.submit_time, j.used_mem) for j in b
        ]

    def test_different_seed_different_trace(self):
        a = lanl_cm5_like(n_jobs=500, seed=3)
        b = lanl_cm5_like(n_jobs=500, seed=4)
        assert [j.used_mem for j in a] != [j.used_mem for j in b]

    def test_duration_scales_with_n_jobs(self):
        cfg = SyntheticTraceConfig.lanl_cm5(n_jobs=12_000)
        assert cfg.duration == pytest.approx(
            LANL_CM5.duration * 12_000 / LANL_CM5.n_jobs
        )

    def test_offered_load_invariant_under_scaling(self):
        from repro.workload.transforms import offered_load

        small = lanl_cm5_like(n_jobs=5_000, seed=0)
        large = lanl_cm5_like(n_jobs=20_000, seed=0)
        assert offered_load(small) == pytest.approx(offered_load(large), rel=0.35)


class TestConfigValidation:
    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(
                SyntheticTraceConfig(), req_mem_weights=(1.0,)
            )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            dataclasses.replace(
                SyntheticTraceConfig(),
                req_mem_levels=(32.0, 16.0),
                req_mem_weights=(0.5, 0.2),
            )

    def test_request_levels_capped_at_node_mem(self):
        with pytest.raises(ValueError):
            dataclasses.replace(
                SyntheticTraceConfig(),
                req_mem_levels=(64.0,),
                req_mem_weights=(1.0,),
            )

    def test_ratio_floor_below_one_rejected(self):
        with pytest.raises(ValueError, match="ratio_full_floor"):
            dataclasses.replace(SyntheticTraceConfig(), ratio_full_floor=0.9)

    @pytest.mark.parametrize(
        "changes, knob",
        [
            ({"n_jobs": 500.5}, "n_jobs"),
            ({"max_group_size": 2.5}, "max_group_size"),
            ({"n_users": 0}, "n_users"),
            ({"n_apps": 12.0}, "n_apps"),
            ({"total_nodes": True}, "total_nodes"),
            ({"n_full_machine_jobs": -1}, "n_full_machine_jobs"),
            ({"proc_weights": (1.2, -0.2, 0.0, 0.0, 0.0)}, "proc_weights"),
            ({"req_mem_weights": (0.9, 0.2, -0.1, 0.0, 0.0)}, "req_mem_weights"),
            ({"p_loose_group": 1.5}, "p_loose_group"),
            ({"p_loose_group": -0.1}, "p_loose_group"),
            ({"small_group_mean": 0.0}, "small_group_mean"),
            ({"group_range_cap": 0.5}, "group_range_cap"),
            ({"req_time_overestimate_max": 0.5}, "req_time_overestimate_max"),
            ({"runtime_min": 0.0}, "runtime_min"),
            ({"runtime_min": 10.0, "runtime_max": 5.0}, "runtime_max"),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={x}" for k, x in v.items()),
    )
    def test_bad_knob_rejected_by_name(self, changes, knob):
        # Each of these used to build a broken trace (extra jobs, every
        # runtime pinned to runtime_max) or fail deep inside NumPy.
        with pytest.raises(ValueError, match=knob):
            dataclasses.replace(SyntheticTraceConfig.lanl_cm5(n_jobs=500), **changes)

    def test_tiny_trace_still_generates(self):
        cfg = SyntheticTraceConfig.lanl_cm5(n_jobs=10)
        w = generate_trace(cfg, rng=0)
        assert len(w) == 10

    def test_too_small_for_full_machine_jobs_rejected(self):
        cfg = dataclasses.replace(
            SyntheticTraceConfig.lanl_cm5(n_jobs=20), n_jobs=5, n_full_machine_jobs=6
        )
        with pytest.raises(ValueError):
            generate_trace(cfg, rng=0)

    def test_submit_times_within_duration(self):
        cfg = SyntheticTraceConfig.lanl_cm5(n_jobs=2_000)
        w = generate_trace(cfg, rng=1)
        assert all(0 <= j.submit_time <= cfg.duration for j in w)

    def test_runtimes_within_bounds(self):
        cfg = SyntheticTraceConfig.lanl_cm5(n_jobs=2_000)
        w = generate_trace(cfg, rng=1)
        assert all(cfg.runtime_min <= j.run_time <= cfg.runtime_max for j in w)

    def test_proc_counts_are_cm5_partitions(self):
        cfg = SyntheticTraceConfig.lanl_cm5(n_jobs=2_000)
        w = generate_trace(cfg, rng=1)
        allowed = set(cfg.proc_levels) | {cfg.total_nodes}
        assert set(j.procs for j in w) <= allowed

    def test_group_sizes_capped(self):
        import collections

        cfg = dataclasses.replace(SyntheticTraceConfig.lanl_cm5(n_jobs=5_000), max_group_size=100)
        w = generate_trace(cfg, rng=2)
        counts = collections.Counter(
            (j.user_id, j.app_id, j.req_mem) for j in w if j.procs < cfg.total_nodes
        )
        assert max(counts.values()) <= 100
