"""Sweep throughput gate: end-to-end Figure 5 fan-out, fail on regression.

Run via ``make sweep-bench`` (or directly: ``PYTHONPATH=src python
benchmarks/sweep_bench.py``).  One measurement: the full Figure 5 sweep
(two estimator configurations x the ``ExperimentConfig`` load grid, 20k-job
synthetic LANL-CM5-like trace) executed through :func:`run_sweep` with a
forced process pool (``oversubscribe=True`` — the gate measures the
executor's data plane, not the host's core count), timed end to end
including pool spin-up and the parent's shared-memory publish.

Two baselines are recorded below:

* ``PRE_*`` — the executor before the columnar data plane (object-per-job
  parsing, per-worker trace generation, one future per spec), measured on
  the reference container.  Reported as ``speedup_vs_pre`` / RSS reduction;
  the PR's acceptance bar was >=1.5x throughput at 4 workers with lower
  per-worker RSS.
* ``BASELINE_RUNS_PER_S`` — the columnar executor itself.  This is the
  **gate**: the script exits non-zero when measured throughput drops more
  than 10% below it, so the data plane can never quietly sink back.

Results go to ``benchmarks/results/BENCH_sweep.json`` (machine-readable).
``--smoke`` runs a tiny grid and skips the gate — CI uses it to prove the
pipeline works without paying the full sweep or tripping on shared-runner
noise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    RunSpec,
    WorkloadSpec,
)

#: Pre-data-plane executor on the reference container (4 workers, 1 CPU,
#: oversubscribed): the numbers the PR's speedup/RSS claims compare against.
PRE_WALL_S = 22.59
PRE_RUNS_PER_S = 0.885
PRE_PEAK_WORKER_RSS_KB = 74_208

#: runs/s recorded for the columnar data plane with same-trace batching
#: (the batched engine running same-trace spec pairs in one call) on the
#: reference container — the regression baseline this gate enforces.
#: Typical measurements land at 5.7-6.1 runs/s with occasional ~4.6
#: outliers (single-CPU container noise), so the baseline is pinned
#: below the typical band; pre-batching the same configuration measured
#: 1.63 runs/s, far under the 90% floor either way.
BASELINE_RUNS_PER_S = 5.0

#: Fail the gate below this fraction of the baseline.
REGRESSION_FLOOR = 0.9

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_sweep.json"


def fig5_specs(cfg: ExperimentConfig, n_jobs: int, loads=None) -> list:
    """The Figure 5 grid: {no estimation, successive approximation} x loads."""
    loads = cfg.loads if loads is None else loads
    return [
        RunSpec(
            workload=WorkloadSpec(n_jobs=n_jobs, seed=cfg.seed, load=load),
            cluster=ClusterSpec(second_tier_mem=cfg.second_tier_mem),
            estimator=est,
            seed=cfg.seed,
            label=f"{est.name}@{load:g}",
        )
        for est in (
            EstimatorSpec(name="none"),
            EstimatorSpec.make("successive", alpha=cfg.alpha, beta=cfg.beta),
        )
        for load in loads
    ]


def bench_sweep(workers: int, n_jobs: int, loads=None) -> dict:
    cfg = ExperimentConfig()
    specs = fig5_specs(cfg, n_jobs, loads)
    t0 = time.perf_counter()
    report = run_sweep(specs, max_workers=workers, oversubscribe=True)
    wall = time.perf_counter() - t0
    report.points()  # raises with full tracebacks if any spec failed
    profile = report.profile()
    return {
        "n_specs": len(specs),
        "n_jobs_each": n_jobs,
        "workers": report.max_workers,
        "host_cpus": report.host_cpus,
        "wall_s": round(wall, 3),
        "pool_spinup_s": round(report.pool_spinup_time, 3),
        "runs_per_second": round(len(specs) / wall, 3),
        "peak_worker_rss_kb": report.peak_worker_rss_kb,
        "n_retries": report.n_retries,
        "n_pool_rebuilds": report.n_pool_rebuilds,
        "n_batched_runs": profile.n_batched,
        "mean_batch_width": round(profile.mean_batch_width, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--jobs", type=int, default=ExperimentConfig().n_jobs,
        help="trace size per spec (default: the Figure 5 configuration)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny grid, no regression gate (CI pipeline check)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sweep = bench_sweep(args.workers, n_jobs=min(args.jobs, 1500),
                            loads=(0.8, 1.0))
    else:
        sweep = bench_sweep(args.workers, n_jobs=args.jobs)

    floor = BASELINE_RUNS_PER_S * REGRESSION_FLOOR
    gated = not args.smoke and args.jobs == ExperimentConfig().n_jobs
    doc = {
        "comment": (
            "machine-readable sweep throughput gate; regenerate with "
            "`make sweep-bench`"
        ),
        "sweep": sweep,
        "pre_data_plane": {
            "wall_s": PRE_WALL_S,
            "runs_per_second": PRE_RUNS_PER_S,
            "peak_worker_rss_kb": PRE_PEAK_WORKER_RSS_KB,
        },
        "speedup_vs_pre": round(sweep["runs_per_second"] / PRE_RUNS_PER_S, 3),
        "worker_rss_reduction_vs_pre": round(
            1.0 - sweep["peak_worker_rss_kb"] / PRE_PEAK_WORKER_RSS_KB, 3
        ) if sweep["peak_worker_rss_kb"] else None,
        "baseline_runs_per_second": BASELINE_RUNS_PER_S,
        "regression_floor_runs_per_second": round(floor, 3),
        "gated": gated,
        "passed": (not gated) or sweep["runs_per_second"] >= floor,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    print(
        f"sweep  : {sweep['n_specs']} specs x {sweep['n_jobs_each']} jobs in "
        f"{sweep['wall_s']}s = {sweep['runs_per_second']:.3f} runs/s "
        f"({sweep['workers']} workers on {sweep['host_cpus']} CPU(s), "
        f"spin-up {sweep['pool_spinup_s']}s)"
    )
    print(
        f"batch  : {sweep['n_batched_runs']}/{sweep['n_specs']} runs in "
        f"same-trace batches (mean width {sweep['mean_batch_width']})"
    )
    print(
        f"memory : peak worker RSS {sweep['peak_worker_rss_kb']:,} KB "
        f"(pre-data-plane: {PRE_PEAK_WORKER_RSS_KB:,} KB)"
    )
    print(
        f"vs pre : {doc['speedup_vs_pre']:.2f}x throughput "
        f"({PRE_RUNS_PER_S} -> {sweep['runs_per_second']} runs/s)"
    )
    print(f"wrote  : {RESULTS_PATH}")
    if not gated:
        print("gate   : skipped (smoke mode or non-default trace size)")
        return 0
    if not doc["passed"]:
        print(
            f"FAIL: {sweep['runs_per_second']:.3f} runs/s is below the "
            f"regression floor {floor:.3f} runs/s "
            f"({REGRESSION_FLOOR:.0%} of the recorded baseline "
            f"{BASELINE_RUNS_PER_S})",
            file=sys.stderr,
        )
        return 1
    print(
        f"PASS: above the {REGRESSION_FLOOR:.0%} regression floor of the "
        f"recorded {BASELINE_RUNS_PER_S} runs/s baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
