"""The synthetic generator's historical per-group loop, kept as an oracle.

:func:`repro.workload.synthetic.generate_trace` draws each group's random
numbers per group but does the arithmetic on them in one pass over the
whole trace.  :func:`reference_trace` is the loop it replaced: every group
draws *and* assembles its rows with its own small NumPy calls (``np.clip``,
``np.full``, ``gen.choice``).  ``test_synthetic_reference.py`` asserts both
produce byte-identical columns, so any drift in draw order, sizes or
arithmetic fails there with a config to reproduce it.

The group sizes, keys, ratios and the diurnal warp come from the shipped
helpers, which the vectorized generator did not change.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.util.rng import RngStream, as_generator
from repro.workload.columns import JobColumns
from repro.workload.job import Workload
from repro.workload.synthetic import (
    SyntheticTraceConfig,
    _diurnal_warp,
    _draw_group_keys,
    _draw_group_sizes,
    _draw_overprovisioning_ratio,
)


def reference_trace(config: SyntheticTraceConfig, rng: RngStream = 0) -> Workload:
    """Generate ``config``'s trace with the per-group assembly loop."""
    cfg = config
    gen = as_generator(rng)

    sizes = _draw_group_sizes(cfg, gen)
    keys = _draw_group_keys(len(sizes), cfg, gen)
    ratios = _draw_overprovisioning_ratio(np.array([k[2] for k in keys]), cfg, gen)

    loose = gen.random(len(sizes)) < cfg.p_loose_group
    range_scales = np.where(loose, cfg.loose_range_scale, cfg.group_range_scale)
    group_ranges = np.minimum(
        1.0 + gen.exponential(1.0, size=len(sizes)) * range_scales, cfg.group_range_cap
    )
    runtime_scales = gen.lognormal(cfg.runtime_mu, cfg.runtime_sigma, size=len(sizes))
    proc_levels_arr = np.array(cfg.proc_levels)
    proc_weights_arr = np.array(cfg.proc_weights)

    submit_parts: List[np.ndarray] = []
    runtime_parts: List[np.ndarray] = []
    reqtime_parts: List[np.ndarray] = []
    used_parts: List[np.ndarray] = []
    procs_parts: List[np.ndarray] = []
    req_mem_parts: List[np.ndarray] = []
    user_parts: List[np.ndarray] = []
    app_parts: List[np.ndarray] = []
    for gi, (size, key, ratio) in enumerate(zip(sizes, keys, ratios)):
        user_id, app_id, req_mem = key
        base_used = max(req_mem / ratio, cfg.min_used_mem)
        rho = group_ranges[gi]
        log_spread = gen.uniform(0.0, np.log(rho), size=size)
        used = np.minimum(base_used * np.exp(log_spread), req_mem)

        runtimes = np.clip(
            runtime_scales[gi]
            * gen.lognormal(0.0, cfg.runtime_jitter_sigma, size=size),
            cfg.runtime_min,
            cfg.runtime_max,
        )
        req_times = runtimes * gen.uniform(1.0, cfg.req_time_overestimate_max, size=size)

        if cfg.cluster_in_time:
            window = min(gen.exponential(cfg.group_window_mean), cfg.duration)
            start = gen.uniform(0.0, max(cfg.duration - window, 1.0))
            submits = start + gen.uniform(0.0, window, size=size)
        else:
            submits = gen.uniform(0.0, cfg.duration, size=size)
        submits = np.clip(submits, 0.0, cfg.duration)

        procs_per_job = gen.choice(proc_levels_arr, size=size, p=proc_weights_arr)
        submit_parts.append(submits)
        runtime_parts.append(runtimes)
        reqtime_parts.append(req_times)
        used_parts.append(used)
        procs_parts.append(procs_per_job)
        req_mem_parts.append(np.full(size, req_mem, dtype=np.float64))
        user_parts.append(np.full(size, user_id, dtype=np.int64))
        app_parts.append(np.full(size, app_id, dtype=np.int64))

    for _ in range(cfg.n_full_machine_jobs):
        runtime = float(
            np.clip(gen.lognormal(cfg.runtime_mu + 1.0, 1.0), cfg.runtime_min, cfg.runtime_max)
        )
        used_full = float(gen.uniform(8.0, cfg.node_mem))
        submit_parts.append(np.array([gen.uniform(0.0, cfg.duration)]))
        runtime_parts.append(np.array([runtime]))
        reqtime_parts.append(np.array([runtime * 2]))
        used_parts.append(np.array([used_full]))
        procs_parts.append(np.array([cfg.total_nodes], dtype=np.int64))
        req_mem_parts.append(np.array([cfg.node_mem], dtype=np.float64))
        user_parts.append(np.zeros(1, dtype=np.int64))
        app_parts.append(np.zeros(1, dtype=np.int64))

    submit_times = np.concatenate(submit_parts)
    n_total = submit_times.shape[0]
    if cfg.diurnal:
        submit_times = _diurnal_warp(
            submit_times, cfg.duration, cfg.day_night_ratio, cfg.weekend_factor
        )

    user_ids = np.concatenate(user_parts)
    columns = JobColumns(
        job_id=np.arange(1, n_total + 1, dtype=np.int64),
        submit_time=submit_times,
        run_time=np.concatenate(runtime_parts),
        procs=np.concatenate(procs_parts).astype(np.int64),
        req_mem=np.concatenate(req_mem_parts),
        used_mem=np.concatenate(used_parts),
        req_time=np.concatenate(reqtime_parts),
        user_id=user_ids,
        group_id=user_ids.copy(),
        app_id=np.concatenate(app_parts),
        status=np.ones(n_total, dtype=np.int64),
    ).validate()

    return Workload.from_columns(
        columns, total_nodes=cfg.total_nodes, node_mem=cfg.node_mem, name=cfg.name
    )
