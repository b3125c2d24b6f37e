"""Engine throughput gate: measure jobs/s and sweep runs/s, fail on regression.

Run via ``make engine-bench`` (or directly: ``PYTHONPATH=src python
benchmarks/engine_bench.py``).  Measurements:

* **single run** — the Figure 5 configuration (synthetic LANL-CM5-like
  trace at load 0.8, paper cluster, successive approximation, FCFS) on the
  scalar :class:`~repro.sim.engine.Simulation`, timed best-of-N
  (``--rounds``).  An explicit ``Simulation``, not ``simulate``/
  ``run_point``, which route this configuration to the fast lane: the
  block is the scalar baseline the batched speedup is measured against.
  Best-of, not mean-of: on shared/noisy hosts the scheduler can double a
  round's wall time, and the *minimum* is the cleanest estimate of the
  code's actual cost (the noise is strictly additive).
* **sweep** — a small Figure 8 slice through :func:`run_sweep`, serially
  and (on multi-CPU hosts) through the process pool, reporting runs/s, the
  host CPU count, and the pool spin-up time separately from simulation
  time.

* **simulate defaults** — the same configuration through
  :func:`repro.sim.engine.simulate` with its defaults (the fast lane,
  attempt records collected), as the library and CLI call it.  Reports the
  median and quartiles of ``--rounds`` calls, and checks the last result's
  fingerprint against its scalar twin (attempts collected too).  Not gated.

* **batched** — the same configuration as K configs (varied estimator
  alphas) through one :func:`repro.sim.batch.simulate_batch` call,
  reporting amortized per-config jobs/s and the speedup over the scalar
  single run, plus a bit-identity check of lane 0 against its scalar twin.

Results go to ``benchmarks/results/BENCH_engine.json`` (machine-readable).
The regression baseline is *read from that same file* (the
``baseline_jobs_per_second`` field of the previous run), so the floor
ratchets with the recorded history instead of a hardcoded source constant;
``--rebaseline`` re-pins it to this run's measurement.  The script exits
non-zero if single-run throughput drops more than 10% below the baseline,
if the batched speedup at K=8 falls under 4.5x, or if the batched lane
stops being bit-identical to the scalar engine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.cluster import paper_cluster
from repro.core import SuccessiveApproximation
from repro.experiments.parallel import run_sweep
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    RunSpec,
    WorkloadSpec,
)
from repro.sim.batch import BatchConfig, simulate_batch
from repro.sim.engine import Simulation, simulate
from repro.workload import drop_full_machine_jobs, lanl_cm5_like, scale_load

#: jobs/s recorded for the seed engine on the reference container, before
#: the hot-path optimization pass.  Used only when BENCH_engine.json does
#: not exist yet (first run on a fresh checkout).
SEED_BASELINE_JOBS_PER_S = 24_905.0

#: Fail the gate below this fraction of the baseline.
REGRESSION_FLOOR = 0.9

#: Minimum amortized per-config speedup for the batched block (the ROADMAP
#: 5x stretch is met; the gate floor trails it with ~10% headroom for
#: host noise).
BATCHED_SPEEDUP_FLOOR = 4.5

#: Per-lane successive-approximation alphas for the batched measurement —
#: varied so the lanes genuinely diverge (different estimates, schedules,
#: and failure patterns) instead of replaying one trajectory K times.
#: Lane 0 keeps the estimator default (2.0) so it has an exact scalar twin
#: for the bit-identity check.  16 values so ``--batch-k`` up to 16 never
#: recycles a lane configuration.
BATCHED_ALPHAS = (
    2.0, 1.5, 2.5, 3.0, 1.75, 2.25, 2.75, 4.0,
    1.25, 3.5, 1.6, 2.4, 3.25, 1.9, 2.1, 3.75,
)

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_engine.json"


def load_baseline(path: Path = RESULTS_PATH) -> float:
    """The regression baseline: last recorded value in BENCH_engine.json,
    falling back to the seed constant on a fresh checkout."""
    try:
        doc = json.loads(path.read_text())
        return float(doc["baseline_jobs_per_second"])
    except (OSError, ValueError, KeyError, TypeError):
        return SEED_BASELINE_JOBS_PER_S


def scalar_run(workload, cluster, estimator, seed: int):
    """``run_point``'s configuration on the scalar engine (no attempt
    trace)."""
    return Simulation(
        workload, cluster, estimator, seed=seed, collect_attempts=False
    ).run()


def bench_single_run(n_jobs: int, rounds: int, seed: int = 0) -> dict:
    workload = scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=n_jobs, seed=seed)), 0.8
    )
    cluster = paper_cluster(24.0)
    times = []
    result = None
    for _ in range(rounds):
        estimator = SuccessiveApproximation()  # fresh learned state per round
        t0 = time.perf_counter()
        result = scalar_run(workload, cluster, estimator, seed)
        times.append(time.perf_counter() - t0)
    best = min(times)
    # Events processed: one arrival per job plus one completion per attempt
    # (failed attempts are re-queued directly, without a new arrival event).
    n_events = result.n_jobs + result.n_attempts
    return {
        "n_jobs": result.n_jobs,
        "n_attempts": result.n_attempts,
        "rounds": rounds,
        "times_s": [round(t, 4) for t in times],
        "best_s": round(best, 4),
        "jobs_per_second": round(result.n_jobs / best, 1),
        "events_per_second": round(n_events / best, 1),
    }


def bench_simulate_defaults(n_jobs: int, rounds: int, seed: int = 0) -> dict:
    """The single-run configuration through ``simulate()`` as the library
    calls it: fast lane, attempt records collected (and left unbuilt, so
    the timed calls never build one)."""
    workload = scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=n_jobs, seed=seed)), 0.8
    )
    cluster = paper_cluster(24.0)
    times = []
    result = None
    for _ in range(rounds):
        estimator = SuccessiveApproximation()  # fresh learned state per round
        t0 = time.perf_counter()
        result = simulate(workload, cluster, estimator, seed=seed)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    attempts_built = result.attempts.built()
    twin = Simulation(
        workload, cluster, SuccessiveApproximation(), seed=seed
    ).run()
    return {
        "n_jobs": result.n_jobs,
        "n_attempts": result.n_attempts,
        "rounds": rounds,
        "times_s": [round(t, 4) for t in times],
        "median_s": round(median, 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "jobs_per_second": round(result.n_jobs / median, 1),
        "attempts_built_by_run": attempts_built,
        "bit_identical": result.fingerprint() == twin.fingerprint(),
    }


def bench_batched(
    n_jobs: int, k: int, rounds: int, seed: int = 0,
    scalar_jobs_per_s: float = 0.0,
) -> dict:
    """K configs through one simulate_batch call, amortized per-config.

    Matches the sweep executor's usage (``collect_attempts=False``); the
    scalar comparison point is the single-run block measured by
    :func:`bench_single_run` (same workload, same collection mode).
    """
    workload = scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=n_jobs, seed=seed)), 0.8
    )
    n = len(workload.jobs)
    times = []
    results = None
    for _ in range(rounds):
        configs = [  # fresh estimator + cluster state per round
            BatchConfig(
                cluster=paper_cluster(24.0),
                estimator=SuccessiveApproximation(
                    alpha=BATCHED_ALPHAS[i % len(BATCHED_ALPHAS)]
                ),
                seed=seed,
                collect_attempts=False,
            )
            for i in range(k)
        ]
        t0 = time.perf_counter()
        results = simulate_batch(workload, configs)
        times.append(time.perf_counter() - t0)
    best = min(times)
    amortized = k * n / best
    # Lane 0 runs the estimator default (alpha=2.0): its scalar twin is the
    # single-run configuration, and the fingerprints must agree.
    scalar_twin = scalar_run(
        workload, paper_cluster(24.0), SuccessiveApproximation(), seed
    )
    bit_identical = results[0].fingerprint() == scalar_twin.fingerprint()
    return {
        "k": k,
        "n_jobs": n,
        "rounds": rounds,
        "alphas": list(BATCHED_ALPHAS[:k]),
        "collect_attempts": False,
        "times_s": [round(t, 4) for t in times],
        "best_s": round(best, 4),
        "amortized_jobs_per_second": round(amortized, 1),
        "speedup_vs_single_run": (
            round(amortized / scalar_jobs_per_s, 2) if scalar_jobs_per_s else None
        ),
        "bit_identical": bit_identical,
    }


def bench_sweep(n_jobs: int, seed: int = 0) -> dict:
    mems = (16.0, 24.0, 32.0)
    specs = [
        RunSpec(
            workload=WorkloadSpec(n_jobs=n_jobs, seed=seed, load=0.8),
            cluster=ClusterSpec(second_tier_mem=m),
            estimator=est,
            seed=seed,
            label=f"{est.name}@tier2={m:g}MB",
        )
        for m in mems
        for est in (EstimatorSpec(name="none"), EstimatorSpec(name="successive"))
    ]
    host_cpus = os.cpu_count() or 1
    serial = run_sweep(specs, max_workers=1)
    doc = {
        "n_specs": len(specs),
        "n_jobs_each": n_jobs,
        "host_cpus": host_cpus,
        "serial_runs_per_second": round(serial.runs_per_second, 3),
        "serial_wall_s": round(serial.wall_time, 3),
    }
    if host_cpus > 1:
        workers = min(host_cpus, 4)
        pooled = run_sweep(specs, max_workers=workers)
        doc.update(
            {
                "pool_workers": pooled.max_workers,
                "pool_runs_per_second": round(pooled.runs_per_second, 3),
                "pool_wall_s": round(pooled.wall_time, 3),
                "pool_spinup_s": round(pooled.pool_spinup_time, 3),
            }
        )
    else:
        doc["pool"] = "skipped (single-CPU host; pool would serialize anyway)"
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=12_000)
    parser.add_argument("--sweep-jobs", type=int, default=2_000)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--batch-k", type=int, default=8,
        help="lane count for the batched measurement (default 8)",
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="re-pin the regression baseline to this run's jobs/s",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, no regression gate (CI pipeline check)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.jobs = min(args.jobs, 2_000)
        args.sweep_jobs = min(args.sweep_jobs, 1_000)
        args.rounds = min(args.rounds, 2)

    baseline = load_baseline()
    single = bench_single_run(args.jobs, args.rounds, args.seed)
    defaults = bench_simulate_defaults(args.jobs, args.rounds, args.seed)
    batched = bench_batched(
        args.jobs, args.batch_k, args.rounds, args.seed,
        scalar_jobs_per_s=single["jobs_per_second"],
    )
    sweep = bench_sweep(args.sweep_jobs, args.seed)

    if args.rebaseline:
        baseline = single["jobs_per_second"]
    floor = baseline * REGRESSION_FLOOR
    gated = not args.smoke
    single_ok = single["jobs_per_second"] >= floor
    batched_ok = (
        batched["bit_identical"]
        and (batched["speedup_vs_single_run"] or 0.0) >= BATCHED_SPEEDUP_FLOOR
    )
    doc = {
        "comment": (
            "machine-readable engine throughput gate; regenerate with "
            "`make engine-bench` (re-pin the baseline with --rebaseline)"
        ),
        "host_cpus": os.cpu_count() or 1,
        "single_run": single,
        "simulate_defaults": defaults,
        "batched": batched,
        "sweep": sweep,
        "baseline_jobs_per_second": baseline,
        "regression_floor_jobs_per_second": round(floor, 1),
        "batched_speedup_floor": BATCHED_SPEEDUP_FLOOR,
        "gated": gated,
        "passed": (not gated) or (single_ok and batched_ok),
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    print(
        f"engine : {single['jobs_per_second']:,.0f} jobs/s "
        f"({single['events_per_second']:,.0f} events/s; best of "
        f"{single['rounds']} x {single['n_jobs']} jobs, {single['best_s']}s)"
    )
    print(
        f"default: {defaults['jobs_per_second']:,.0f} jobs/s via simulate() "
        f"(median {defaults['median_s']}s, quartiles {defaults['q1_s']}-"
        f"{defaults['q3_s']}s over {defaults['rounds']} calls; "
        f"bit-identical: {defaults['bit_identical']})"
    )
    print(
        f"batched: {batched['amortized_jobs_per_second']:,.0f} jobs/s "
        f"amortized over K={batched['k']} lanes "
        f"({batched['speedup_vs_single_run']}x vs single run; "
        f"bit-identical: {batched['bit_identical']})"
    )
    print(
        f"sweep  : {sweep['serial_runs_per_second']:.2f} runs/s serial"
        + (
            f", {sweep['pool_runs_per_second']:.2f} runs/s with "
            f"{sweep['pool_workers']} workers "
            f"(spin-up {sweep['pool_spinup_s']}s)"
            if "pool_runs_per_second" in sweep
            else f" (host has {sweep['host_cpus']} CPU; pool skipped)"
        )
    )
    print(f"wrote  : {RESULTS_PATH}")
    if args.rebaseline:
        print(f"rebased: baseline re-pinned to {baseline:,.1f} jobs/s")
    if not gated:
        print("gate   : skipped (smoke mode)")
        return 0
    if not batched["bit_identical"]:
        print(
            "FAIL: batched lane 0 is no longer bit-identical to its scalar "
            "twin — the fast lane has diverged from the reference engine",
            file=sys.stderr,
        )
        return 1
    if not single_ok:
        print(
            f"FAIL: {single['jobs_per_second']:,.0f} jobs/s is below the "
            f"regression floor {floor:,.0f} jobs/s "
            f"({REGRESSION_FLOOR:.0%} of the recorded baseline "
            f"{baseline:,.0f})",
            file=sys.stderr,
        )
        return 1
    if not batched_ok:
        print(
            f"FAIL: batched speedup {batched['speedup_vs_single_run']}x at "
            f"K={batched['k']} is below the {BATCHED_SPEEDUP_FLOOR:g}x floor",
            file=sys.stderr,
        )
        return 1
    print(
        f"PASS: single run above the {REGRESSION_FLOOR:.0%} floor of the "
        f"recorded {baseline:,.0f} jobs/s baseline; batched "
        f"{batched['speedup_vs_single_run']}x >= "
        f"{BATCHED_SPEEDUP_FLOOR:g}x at K={batched['k']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
