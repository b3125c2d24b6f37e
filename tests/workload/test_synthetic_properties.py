"""Property-based tests of the synthetic generator over random configs,
and of its diurnal warp."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.units import SECONDS_PER_DAY
from repro.workload.synthetic import SyntheticTraceConfig, _diurnal_warp, generate_trace

config_strategy = st.builds(
    lambda n_jobs, floor, near, p_large, window_days, diurnal: dataclasses.replace(
        SyntheticTraceConfig.lanl_cm5(n_jobs),
        ratio_full_floor=floor,
        ratio_full_scale_near=near,
        p_large_group=p_large,
        group_window_mean=window_days * 86_400.0,
        diurnal=diurnal,
    ),
    n_jobs=st.integers(min_value=30, max_value=1_500),
    floor=st.floats(min_value=1.0, max_value=3.0),
    near=st.floats(min_value=0.1, max_value=2.0),
    p_large=st.floats(min_value=0.05, max_value=0.5),
    window_days=st.floats(min_value=1.0, max_value=60.0),
    diurnal=st.booleans(),
)


class TestGeneratorProperties:
    @settings(max_examples=25, deadline=None)
    @given(cfg=config_strategy, seed=st.integers(min_value=0, max_value=50))
    def test_every_config_yields_valid_trace(self, cfg, seed):
        w = generate_trace(cfg, rng=seed)
        assert len(w) == cfg.n_jobs
        for job in w:
            assert 0 <= job.submit_time <= cfg.duration
            assert cfg.runtime_min <= job.run_time <= cfg.runtime_max
            assert 0 < job.used_mem <= job.req_mem + 1e-9
            assert job.req_mem <= cfg.node_mem
            assert job.procs in set(cfg.proc_levels) | {cfg.total_nodes}

    @settings(max_examples=15, deadline=None)
    @given(cfg=config_strategy, seed=st.integers(min_value=0, max_value=50))
    def test_jobs_sorted_by_submit_time(self, cfg, seed):
        w = generate_trace(cfg, rng=seed)
        times = [j.submit_time for j in w]
        assert times == sorted(times)

    @settings(max_examples=15, deadline=None)
    @given(cfg=config_strategy, seed=st.integers(min_value=0, max_value=50))
    def test_groups_have_constant_request(self, cfg, seed):
        # The (user, app, req_mem) key must be consistent: within a key the
        # request is constant by construction (it IS part of the key), and
        # every full-machine job is excluded from group structure.
        w = generate_trace(cfg, rng=seed)
        full = [j for j in w if j.procs == cfg.total_nodes]
        assert len(full) == cfg.n_full_machine_jobs

    @settings(max_examples=15, deadline=None)
    @given(cfg=config_strategy)
    def test_same_seed_reproducible(self, cfg):
        a = generate_trace(cfg, rng=9)
        b = generate_trace(cfg, rng=9)
        assert [(j.submit_time, j.used_mem, j.procs) for j in a] == [
            (j.submit_time, j.used_mem, j.procs) for j in b
        ]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_unique_job_ids(self, seed):
        w = generate_trace(SyntheticTraceConfig.lanl_cm5(500), rng=seed)
        ids = [j.job_id for j in w]
        assert len(set(ids)) == len(ids)


class TestGeneratorDiurnalWarp:
    def test_warp_is_monotone(self):
        t = np.linspace(0, 14 * SECONDS_PER_DAY, 5000)
        warped = _diurnal_warp(t, 14 * SECONDS_PER_DAY, 4.0, 0.5)
        assert np.all(np.diff(warped) >= 0)
        assert warped[0] >= 0
        assert warped[-1] <= 14 * SECONDS_PER_DAY

    def test_warp_concentrates_daytime(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 28 * SECONDS_PER_DAY, size=50000)
        warped = _diurnal_warp(t, 28 * SECONDS_PER_DAY, 4.0, 1.0)
        hours = (warped % SECONDS_PER_DAY) / 3600
        day = np.mean((hours >= 8) & (hours < 20))
        assert day == pytest.approx(4 / 5, abs=0.05)  # 4x intensity over half the day

    def test_generator_diurnal_toggle(self):
        base = SyntheticTraceConfig.lanl_cm5(3000)
        flat = generate_trace(dataclasses.replace(base, diurnal=False), rng=0)
        cyc = generate_trace(dataclasses.replace(base, diurnal=True), rng=0)
        hours_cyc = (np.array([j.submit_time for j in cyc]) % SECONDS_PER_DAY) / 3600
        hours_flat = (np.array([j.submit_time for j in flat]) % SECONDS_PER_DAY) / 3600
        day_cyc = np.mean((hours_cyc >= 8) & (hours_cyc < 20))
        day_flat = np.mean((hours_flat >= 8) & (hours_flat < 20))
        assert day_cyc > day_flat + 0.15

    def test_group_clustering_survives_warp(self):
        # The warp is order-preserving, so group activity windows stay much
        # tighter than the uniform-spread alternative.
        import collections

        def median_group_span(w):
            by_group = collections.defaultdict(list)
            for j in w:
                if j.procs < 1024:
                    by_group[(j.user_id, j.app_id, j.req_mem)].append(j.submit_time)
            spans = [
                max(t) - min(t) for t in by_group.values() if len(t) >= 5
            ]
            return np.median(spans)

        # Needs a trace long enough that the 30-day group windows are small
        # relative to the duration (~4 months here).
        cfg = SyntheticTraceConfig.lanl_cm5(20_000)
        clustered = generate_trace(cfg, rng=0)
        spread = generate_trace(
            dataclasses.replace(cfg, cluster_in_time=False), rng=0
        )
        assert median_group_span(clustered) < 0.6 * median_group_span(spread)
