"""Synthetic workload generator calibrated to the published LANL CM5 numbers.

Why synthetic?  The experiments in the paper are trace-driven, but every way
the trace enters the pipeline is through a handful of distributional facts the
paper itself reports (see :class:`repro.workload.lanl_cm5.TraceProfile`):

* the over-provisioning ratio histogram of Figure 1 (log-linear decay,
  ~32.8% of jobs at ratio >= 2, tail out to two orders of magnitude),
* the similarity-group structure under ``(user, app, req_mem)`` — ~9885
  disjoint groups, 19.4% of them with >= 10 jobs covering ~83% of jobs
  (Figures 3 and 4), with mostly tight intra-group usage ranges,
* CM-5 partition sizes (powers of two from 32 up, six full-machine jobs),
* ~122k jobs over ~2 years on 1024 nodes x 32 MB.

The generator builds the trace **group-first**: it draws similarity groups
(sizes from a two-component mixture matching the Fig 3/4 coverage numbers),
assigns each group a unique ``(user, app, req_mem)`` key, a group-level
over-provisioning ratio (two-exponential mixture matching Fig 1), an
intra-group usage range (Fig 4), a partition size and runtime scale, and then
emits the member jobs clustered inside a per-group activity window.  That
construction guarantees the similarity engine re-discovers exactly the
generated groups, which is the property all downstream experiments rely on.

Every knob is exposed on :class:`SyntheticTraceConfig`; the defaults are the
calibrated LANL CM5 values and are locked in by tests
(``tests/workload/test_synthetic_calibration.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.rng import RngStream, as_generator
from repro.util.units import SECONDS_PER_DAY, SECONDS_PER_YEAR
from repro.util.validation import check_in_range, check_integer, check_positive
from repro.workload.columns import JobColumns
from repro.workload.job import Workload


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """All knobs of the synthetic trace generator.

    The default values (via :meth:`lanl_cm5`) are calibrated so the generated
    trace reproduces the statistics the paper reports for LANL CM5.
    """

    # ---- scale -----------------------------------------------------------
    n_jobs: int = 122_055
    duration: float = 2 * SECONDS_PER_YEAR
    total_nodes: int = 1024
    node_mem: float = 32.0

    # ---- similarity-group structure (Figures 3/4) ------------------------
    #: Probability a group is "large" (>= 10 jobs).  Paper: 19.4% of groups.
    p_large_group: float = 0.194
    #: Mean of the geometric small-group size (before truncation at 9).
    small_group_mean: float = 2.6
    #: Lognormal (mu, sigma) of the excess-over-10 size of large groups.
    #: Tuned so large groups average ~53 jobs => 83% of jobs in large groups.
    large_group_mu: float = 3.01
    large_group_sigma: float = 1.2
    #: Hard cap on group size.  Figure 3's largest groups are ~10^3 jobs;
    #: without a cap the lognormal tail occasionally produces one group
    #: holding >5% of the trace, which makes job-weighted statistics noisy.
    max_group_size: int = 1500

    # ---- identity space ---------------------------------------------------
    #: 213 users is the real LANL CM5 population; the app space is sized so
    #: no request level's (user, app) key space can be exhausted even at
    #: full scale (exhaustion would silently skew the request mix).
    n_users: int = 213
    n_apps: int = 96

    # ---- requested memory mix (per node, MB) ------------------------------
    #: Requested-memory levels and weights.  Mass concentrated at the full
    #: 32 MB node size, as on the CM-5 where jobs default to requesting the
    #: whole node memory.
    req_mem_levels: Tuple[float, ...] = (32.0, 24.0, 16.0, 8.0, 4.0)
    req_mem_weights: Tuple[float, ...] = (0.74, 0.08, 0.08, 0.06, 0.04)

    # ---- over-provisioning ratio (Figure 1) --------------------------------
    #: The ratio model distinguishes two user populations, which is what the
    #: paper's own statistics force: jobs requesting the **full node memory**
    #: (the no-effort default on the CM-5) genuinely over-provision — their
    #: ratio has a floor (`ratio_full_floor`) plus a two-exponential excess —
    #: while jobs with a *specific* smaller request are tightly provisioned
    #: (`1 + Exp(ratio_other_scale)`).  The floor is required by §3.2's
    #: conservativeness result: at most 0.01% of executions fail, so on the
    #: {24, 32} cluster essentially no 32 MB-requesting job may use more than
    #: 24 MB (ratio < 4/3).  The mixture weights are calibrated so the
    #: population-level P(ratio >= 2) ~= 0.328 (Figure 1).
    ratio_full_floor: float = 1.5
    ratio_full_mix_w: float = 0.78
    ratio_full_scale_near: float = 0.45
    ratio_full_scale_far: float = 25.0
    ratio_other_scale: float = 0.25
    ratio_cap: float = 150.0

    # ---- intra-group usage spread (Figure 4) -------------------------------
    #: Similarity range rho = max_used/min_used per group: rho = 1 + Exp(scale).
    group_range_scale: float = 0.05
    #: A small fraction of "loose" groups with a much wider range.
    p_loose_group: float = 0.05
    loose_range_scale: float = 2.0
    group_range_cap: float = 12.0
    #: Floor on per-node used memory, MB.
    min_used_mem: float = 0.05

    # ---- partition sizes ----------------------------------------------------
    #: CM-5 partitions are powers of two, 32..512 (full-machine jobs separate).
    proc_levels: Tuple[int, ...] = (32, 64, 128, 256, 512)
    proc_weights: Tuple[float, ...] = (0.38, 0.30, 0.19, 0.09, 0.04)
    n_full_machine_jobs: int = 6

    # ---- runtimes -----------------------------------------------------------
    #: Group-level lognormal runtime scale (seconds).  The total runtime
    #: spread is sqrt(sigma^2 + jitter^2); splitting it between the group
    #: and job levels keeps per-group *work* from being dominated by a
    #: handful of giant groups, which would make every work-weighted
    #: statistic (and thus every utilization experiment) seed-lottery noise.
    runtime_mu: float = 6.4  # log(~600 s)
    runtime_sigma: float = 0.8
    #: Per-job lognormal jitter sigma around the group runtime.
    runtime_jitter_sigma: float = 0.8
    runtime_min: float = 10.0
    runtime_max: float = 5 * SECONDS_PER_DAY
    #: Users overestimate runtimes by U(1, this) when filing req_time.
    req_time_overestimate_max: float = 5.0

    # ---- arrivals -------------------------------------------------------------
    #: Cluster a group's submissions inside an activity window (resubmission
    #: behaviour); False spreads them uniformly over the trace.
    cluster_in_time: bool = True
    #: Mean activity-window length for a group (seconds).
    group_window_mean: float = 30 * SECONDS_PER_DAY
    #: Apply daily/weekly submission cycles (production traces have strong
    #: diurnality; LANL CM5 is no exception).  Beyond realism this matters
    #: dynamically: the nightly/weekend lulls let a saturated queue drain, so
    #: completion feedback keeps flowing to the estimator even at high
    #: offered load — without them, waits at saturation outgrow the group
    #: activity windows and whole groups submit before any member completes,
    #: starving the learning loop.
    diurnal: bool = True
    #: Daytime (8:00-20:00) submission intensity over nighttime.
    day_night_ratio: float = 4.0
    #: Weekend intensity relative to the same weekday hour.
    weekend_factor: float = 0.5

    name: str = "synthetic-lanl-cm5"

    def __post_init__(self) -> None:
        check_integer("n_jobs", self.n_jobs, 1)
        check_integer("max_group_size", self.max_group_size, 1)
        check_integer("n_users", self.n_users, 1)
        check_integer("n_apps", self.n_apps, 1)
        check_integer("total_nodes", self.total_nodes, 1)
        check_integer("n_full_machine_jobs", self.n_full_machine_jobs, 0)
        check_positive("duration", self.duration)
        check_positive("node_mem", self.node_mem)
        check_in_range("p_large_group", self.p_large_group, 0.0, 1.0)
        check_in_range("p_loose_group", self.p_loose_group, 0.0, 1.0)
        check_in_range("small_group_mean", self.small_group_mean, 1.0)
        check_in_range("group_range_cap", self.group_range_cap, 1.0)
        check_in_range("req_time_overestimate_max", self.req_time_overestimate_max, 1.0)
        check_positive("runtime_min", self.runtime_min)
        if not self.runtime_max >= self.runtime_min:
            raise ValueError(
                f"runtime_max must be >= runtime_min ({self.runtime_min}), "
                f"got {self.runtime_max}"
            )
        check_in_range("ratio_full_mix_w", self.ratio_full_mix_w, 0.0, 1.0)
        if self.ratio_full_floor < 1.0:
            raise ValueError(
                f"ratio_full_floor must be >= 1 (usage never exceeds the request), "
                f"got {self.ratio_full_floor}"
            )
        if len(self.req_mem_levels) != len(self.req_mem_weights):
            raise ValueError("req_mem_levels and req_mem_weights must have equal length")
        if len(self.proc_levels) != len(self.proc_weights):
            raise ValueError("proc_levels and proc_weights must have equal length")
        for knob in ("req_mem_weights", "proc_weights"):
            weights = getattr(self, knob)
            if not all(w >= 0 for w in weights):
                raise ValueError(f"{knob} must be non-negative, got {weights}")
        if abs(sum(self.req_mem_weights) - 1.0) > 1e-9:
            raise ValueError("req_mem_weights must sum to 1")
        if abs(sum(self.proc_weights) - 1.0) > 1e-9:
            raise ValueError("proc_weights must sum to 1")
        if any(m <= 0 or m > self.node_mem for m in self.req_mem_levels):
            raise ValueError("requested memory levels must lie in (0, node_mem]")

    @classmethod
    def lanl_cm5(cls, n_jobs: Optional[int] = None) -> "SyntheticTraceConfig":
        """The calibrated LANL CM5 configuration (optionally shorter).

        Shrinking ``n_jobs`` shrinks ``duration`` proportionally so the
        offered load of the trace is unchanged.
        """
        cfg = cls()
        if n_jobs is None or n_jobs == cfg.n_jobs:
            return cfg
        check_positive("n_jobs", n_jobs)
        scale = n_jobs / cfg.n_jobs
        return replace(cfg, n_jobs=int(n_jobs), duration=cfg.duration * scale)


def _draw_group_sizes(cfg: SyntheticTraceConfig, rng: np.random.Generator) -> List[int]:
    """Group sizes from the small/large mixture until they cover n_jobs.

    Small groups: 1..9 jobs, geometric with the configured mean.  Large
    groups: 10 + lognormal excess.  The final group is trimmed so the total
    is exactly ``n_jobs`` (the trim is a negligible perturbation at scale).
    """
    budget = cfg.n_jobs - cfg.n_full_machine_jobs
    if budget <= 0:
        raise ValueError(
            f"n_jobs={cfg.n_jobs} leaves no room for {cfg.n_full_machine_jobs} "
            "full-machine jobs"
        )
    sizes: List[int] = []
    total = 0
    p_geom = min(1.0, 1.0 / cfg.small_group_mean)
    size_cap = max(10, min(cfg.max_group_size, budget // 10))
    # Draw in vectorized chunks; the expected group count is budget/~12.3.
    chunk = max(256, budget // 8)
    while total < budget:
        is_large = rng.random(chunk) < cfg.p_large_group
        small = np.minimum(rng.geometric(p_geom, size=chunk), 9)
        large = 10 + np.floor(
            rng.lognormal(cfg.large_group_mu, cfg.large_group_sigma, size=chunk)
        ).astype(int)
        large = np.minimum(large, size_cap)
        drawn = np.where(is_large, large, small)
        for s in drawn:
            s = int(s)
            if total + s >= budget:
                sizes.append(budget - total)
                total = budget
                break
            sizes.append(s)
            total += s
    return [s for s in sizes if s > 0]


def _draw_group_keys(
    n_groups: int, cfg: SyntheticTraceConfig, rng: np.random.Generator
) -> List[Tuple[int, int, float]]:
    """Unique (user, app, req_mem) triples, one per group.

    The requested-memory level is drawn first, independently per group, so
    the group-level request mix follows ``req_mem_weights`` exactly — key
    collisions must never leak between levels, or the mix silently skews at
    scale (an exhausted 32 MB key space would convert excess 32 MB groups
    into other levels).  Within a level, users follow a Zipf-like
    distribution (a few heavy users own many groups, as in real traces) and
    (user, app) collisions are resolved by rejection.
    """
    per_level_capacity = cfg.n_users * cfg.n_apps
    mem_levels = np.array(cfg.req_mem_levels)
    mem_weights = np.array(cfg.req_mem_weights)
    level_of_group = rng.choice(mem_levels, size=n_groups, p=mem_weights)
    counts = {float(lvl): int((level_of_group == lvl).sum()) for lvl in mem_levels}
    for lvl, count in counts.items():
        if count > per_level_capacity:
            raise ValueError(
                f"request level {lvl}MB needs {count} unique (user, app) keys "
                f"but only {per_level_capacity} exist; increase n_users/n_apps"
            )

    user_weights = 1.0 / np.arange(1, cfg.n_users + 1) ** 0.8
    user_weights /= user_weights.sum()

    keys_by_level: Dict[float, List[Tuple[int, int, float]]] = {}
    for lvl, count in counts.items():
        seen = set()
        found: List[Tuple[int, int, float]] = []
        while len(found) < count:
            need = count - len(found)
            users = rng.choice(cfg.n_users, size=2 * need + 8, p=user_weights)
            apps = rng.integers(1, cfg.n_apps + 1, size=2 * need + 8)
            for u, a in zip(users, apps):
                pair = (int(u), int(a))
                if pair in seen:
                    continue
                seen.add(pair)
                found.append((int(u), int(a), lvl))
                if len(found) == count:
                    break
        keys_by_level[lvl] = found

    # Reassemble in the group order the levels were drawn in.
    cursor = {lvl: 0 for lvl in counts}
    keys: List[Tuple[int, int, float]] = []
    for lvl in level_of_group:
        lvl = float(lvl)
        keys.append(keys_by_level[lvl][cursor[lvl]])
        cursor[lvl] += 1
    return keys


def _draw_overprovisioning_ratio(
    req_mems: np.ndarray, cfg: SyntheticTraceConfig, rng: np.random.Generator
) -> np.ndarray:
    """Group-level requested/used ratios from the Figure 1 mixture.

    Full-node requesters (req == node_mem) draw from the floored
    heavy-tailed mixture; specific requesters from the tight exponential.
    """
    n = req_mems.size
    is_full = req_mems >= cfg.node_mem
    far = rng.random(n) >= cfg.ratio_full_mix_w
    full_scales = np.where(far, cfg.ratio_full_scale_far, cfg.ratio_full_scale_near)
    full_ratios = cfg.ratio_full_floor + rng.exponential(1.0, size=n) * full_scales
    other_ratios = 1.0 + rng.exponential(cfg.ratio_other_scale, size=n)
    ratios = np.where(is_full, full_ratios, other_ratios)
    return np.minimum(ratios, cfg.ratio_cap)


def _diurnal_warp(
    times: np.ndarray,
    duration: float,
    day_night_ratio: float,
    weekend_factor: float,
) -> np.ndarray:
    """Deterministically warp uniform-ish times onto a diurnal/weekly cycle.

    Builds the cumulative submission-intensity profile over the trace at
    hourly resolution (daytime 8:00-20:00 carries ``day_night_ratio`` times
    the night rate; weekend days are scaled by ``weekend_factor``) and maps
    each time through the inverse CDF.  The warp is strictly monotone, so
    submission *order* — and with it the similarity groups' temporal
    clustering — is preserved exactly.
    """
    n_hours = max(int(np.ceil(duration / 3600.0)), 1)
    hour_idx = np.arange(n_hours)
    hour_of_day = hour_idx % 24
    day_of_week = (hour_idx // 24) % 7
    intensity = np.where((hour_of_day >= 8) & (hour_of_day < 20), day_night_ratio, 1.0)
    intensity = intensity * np.where(day_of_week >= 5, weekend_factor, 1.0)
    cum = np.concatenate([[0.0], np.cumsum(intensity)])
    cum /= cum[-1]
    grid = np.linspace(0.0, duration, n_hours + 1)
    # u in [0,1] -> time where the cumulative intensity reaches u.
    u = np.clip(times / duration, 0.0, 1.0)
    return np.interp(u, cum, grid)


def generate_trace(
    config: Optional[SyntheticTraceConfig] = None,
    rng: RngStream = 0,
) -> Workload:
    """Generate a calibrated synthetic workload.

    Parameters
    ----------
    config:
        Generator knobs; defaults to the calibrated LANL CM5 configuration.
    rng:
        Seed or generator.  The same seed always yields the same trace.

    Returns
    -------
    Workload
        Jobs sorted by submission time; ``total_nodes``/``node_mem`` describe
        the original homogeneous machine (1024 x 32 MB by default).
    """
    cfg = config or SyntheticTraceConfig()
    gen = as_generator(rng)

    sizes = _draw_group_sizes(cfg, gen)
    keys = _draw_group_keys(len(sizes), cfg, gen)
    group_req_mems = np.array([k[2] for k in keys], dtype=np.float64)
    ratios = _draw_overprovisioning_ratio(group_req_mems, cfg, gen)

    # Per-group similarity range (Fig 4): mostly tight, a few loose groups.
    loose = gen.random(len(sizes)) < cfg.p_loose_group
    range_scales = np.where(loose, cfg.loose_range_scale, cfg.group_range_scale)
    group_ranges = np.minimum(
        1.0 + gen.exponential(1.0, size=len(sizes)) * range_scales, cfg.group_range_cap
    )

    # Per-group runtime scale (partition sizes are per job: the same
    # application runs at different partition sizes in real traces, and a
    # per-group constant would let single groups dominate total work).
    runtime_scales = gen.lognormal(cfg.runtime_mu, cfg.runtime_sigma, size=len(sizes))

    # The procs draw is ``gen.choice(proc_levels, size, p=proc_weights)``
    # unrolled: choice turns ``p`` into this normalized CDF and searches it
    # with one ``gen.random`` double per job.
    proc_levels_arr = np.array(cfg.proc_levels)
    proc_cdf = np.array(cfg.proc_weights, dtype=np.float64).cumsum()
    proc_cdf /= proc_cdf[-1]

    # Columnar assembly.  The draw-order rule: the loop below makes only the
    # RNG calls, group by group, with the same distributions, sizes and order
    # as the historical per-job construction loop, so a given seed yields the
    # bit-identical trace.  All arithmetic on the draws then runs once over
    # the whole trace, with per-group values spread over their rows by
    # ``np.repeat``.  ``tests/workload/synthetic_reference.py`` keeps the
    # per-group loop as the oracle.
    log_ranges = np.log(group_ranges)
    starts = np.zeros(len(sizes))
    spread_draws: List[np.ndarray] = []
    jitter_draws: List[np.ndarray] = []
    overestimate_draws: List[np.ndarray] = []
    offset_draws: List[np.ndarray] = []
    proc_draws: List[np.ndarray] = []
    for gi, size in enumerate(sizes):
        spread_draws.append(gen.uniform(0.0, log_ranges[gi], size=size))
        jitter_draws.append(gen.lognormal(0.0, cfg.runtime_jitter_sigma, size=size))
        overestimate_draws.append(
            gen.uniform(1.0, cfg.req_time_overestimate_max, size=size)
        )
        if cfg.cluster_in_time:
            window = min(gen.exponential(cfg.group_window_mean), cfg.duration)
            starts[gi] = gen.uniform(0.0, max(cfg.duration - window, 1.0))
            offset_draws.append(gen.uniform(0.0, window, size=size))
        else:
            offset_draws.append(gen.uniform(0.0, cfg.duration, size=size))
        proc_draws.append(gen.random(size))

    # Min used memory per group; per-job used memory is log-uniform in
    # [base, base * rho], never above the request.
    req_mem = np.repeat(group_req_mems, sizes)
    base_used = np.repeat(np.maximum(group_req_mems / ratios, cfg.min_used_mem), sizes)
    used = np.minimum(base_used * np.exp(np.concatenate(spread_draws)), req_mem)
    runtimes = np.minimum(
        np.maximum(
            np.repeat(runtime_scales, sizes) * np.concatenate(jitter_draws),
            cfg.runtime_min,
        ),
        cfg.runtime_max,
    )
    submits = np.minimum(
        np.maximum(np.repeat(starts, sizes) + np.concatenate(offset_draws), 0.0),
        cfg.duration,
    )
    procs = proc_levels_arr[
        proc_cdf.searchsorted(np.concatenate(proc_draws), side="right")
    ]

    submit_parts = [submits]
    runtime_parts = [runtimes]
    reqtime_parts = [runtimes * np.concatenate(overestimate_draws)]
    used_parts = [used]
    procs_parts = [procs]
    req_mem_parts = [req_mem]
    user_parts = [np.repeat(np.array([k[0] for k in keys], dtype=np.int64), sizes)]
    app_parts = [np.repeat(np.array([k[1] for k in keys], dtype=np.int64), sizes)]

    # The six full-machine jobs §3.1 removes for the heterogeneous runs.
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
        group_id=user_ids.copy(),  # LANL CM5 has no separate unix groups
        app_id=np.concatenate(app_parts),
        status=np.ones(n_total, dtype=np.int64),
    ).validate()

    return Workload.from_columns(
        columns, total_nodes=cfg.total_nodes, node_mem=cfg.node_mem, name=cfg.name
    )
