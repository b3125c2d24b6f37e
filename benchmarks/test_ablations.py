"""Ablation benches for the design choices DESIGN.md calls out.

* **Allocation strategy** — the paper's benefit requires estimated-down jobs
  to actually land on the small machines; best-fit realizes this, worst-fit
  deliberately squanders it.
* **Algorithm 1 parameters** — §2.3's alpha discussion: too small an alpha
  cannot step over capacity gaps (the 16 MB wall moves up), larger alphas
  descend faster but overshoot more.
* **Engine throughput** — the simulator must stay fast enough that the full
  122k-job trace is an interactive experiment.
"""

import dataclasses

from conftest import run_once

from repro.cluster import paper_cluster, two_tier
from repro.core import NoEstimation, SuccessiveApproximation
from repro.experiments.render import format_table
from repro.sim.engine import simulate
from repro.sim.metrics import utilization
from repro.workload.transforms import scale_load


def _prepared(bench_config, n_jobs=None, load=0.8):
    cfg = bench_config if n_jobs is None else dataclasses.replace(bench_config, n_jobs=n_jobs)
    return scale_load(cfg.make_sim_workload(), load)


def test_ablation_allocation_strategy(benchmark, bench_config, save_artifact):
    trace = _prepared(bench_config, n_jobs=min(bench_config.n_jobs, 10_000))

    def run():
        rows = []
        for strategy in ("best_fit", "worst_fit", "first_fit"):
            cluster = two_tier(512, 32.0, 512, 24.0, strategy=strategy)
            result = simulate(trace, cluster, SuccessiveApproximation(), seed=0,
                              collect_attempts=False)
            rows.append((strategy, utilization(result), result.frac_failed_executions))
        return rows

    rows = run_once(benchmark, run)
    save_artifact(
        "ablation_allocation",
        format_table(
            ["strategy", "utilization", "failed exec"],
            [(s, f"{u:.3f}", f"{f:.3%}") for s, u, f in rows],
            title="Ablation: allocation strategy (with estimation, load 0.8)",
        ),
    )
    by_name = {s: u for s, u, _ in rows}
    # Best-fit must not lose to worst-fit: packing reduced jobs onto small
    # machines is the mechanism behind the paper's gain.
    assert by_name["best_fit"] >= by_name["worst_fit"] * 0.98


def test_ablation_alpha(benchmark, bench_config, save_artifact):
    trace = _prepared(bench_config, n_jobs=min(bench_config.n_jobs, 10_000))

    def run():
        rows = []
        base = simulate(trace, paper_cluster(24.0), NoEstimation(), seed=0,
                        collect_attempts=False)
        rows.append(("none", utilization(base), 0.0, 0.0))
        for alpha in (1.2, 1.5, 2.0, 4.0, 8.0):
            result = simulate(
                trace,
                paper_cluster(24.0),
                SuccessiveApproximation(alpha=alpha, beta=0.0),
                seed=0,
                collect_attempts=False,
            )
            rows.append(
                (
                    f"alpha={alpha}",
                    utilization(result),
                    result.frac_failed_executions,
                    result.frac_reduced_submissions,
                )
            )
        return rows

    rows = run_once(benchmark, run)
    save_artifact(
        "ablation_alpha",
        format_table(
            ["setting", "utilization", "failed exec", "reduced"],
            [(s, f"{u:.3f}", f"{f:.3%}", f"{r:.0%}") for s, u, f, r in rows],
            title="Ablation: Algorithm 1 alpha (512x32 + 512x24, load 0.8)",
        ),
    )
    util_by = {s: u for s, u, _, _ in rows}
    # §2.3/§3.2: alpha=1.2 cannot step from 32 down to the 24MB tier
    # (32/1.2 = 26.7 > 24), so it behaves like no estimation; alpha=2 gains.
    assert util_by["alpha=1.2"] <= util_by["none"] * 1.05
    assert util_by["alpha=2.0"] > util_by["none"] * 1.2


def test_ablation_beta(benchmark, bench_config, save_artifact):
    trace = _prepared(bench_config, n_jobs=min(bench_config.n_jobs, 10_000))
    # Beta matters on ladders with levels *below* the stable point, where
    # retrying smaller steps after failure can pay off.
    cluster_tiers = [(256, 32.0), (256, 24.0), (256, 12.0), (256, 6.0)]

    def run():
        rows = []
        for beta in (0.0, 0.5, 0.9):
            from repro.cluster.cluster import Cluster

            result = simulate(
                trace,
                Cluster(cluster_tiers, name="4tier"),
                SuccessiveApproximation(alpha=2.0, beta=beta),
                seed=0,
                collect_attempts=False,
            )
            rows.append(
                (beta, utilization(result), result.frac_failed_executions)
            )
        return rows

    rows = run_once(benchmark, run)
    save_artifact(
        "ablation_beta",
        format_table(
            ["beta", "utilization", "failed exec"],
            [(b, f"{u:.3f}", f"{f:.3%}") for b, u, f in rows],
            title="Ablation: Algorithm 1 beta (4-tier cluster, load 0.8)",
        ),
    )
    # §2.3: larger beta keeps probing after failures -> more failed
    # executions in exchange for (potentially) finer estimates.
    failures = [f for _, _, f in rows]
    assert failures[0] <= failures[-1] + 1e-9


def test_engine_throughput(benchmark, bench_config, save_artifact):
    """Raw simulator speed: jobs simulated per second of wall clock."""
    trace = _prepared(bench_config, n_jobs=min(bench_config.n_jobs, 20_000))
    cluster_factory = lambda: paper_cluster(24.0)

    def run():
        return simulate(trace, cluster_factory(), SuccessiveApproximation(),
                        seed=0, collect_attempts=False)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.n_completed == len(trace)
    jobs_per_sec = len(trace) / benchmark.stats.stats.mean
    save_artifact(
        "engine_throughput",
        f"engine throughput: {jobs_per_sec:,.0f} jobs/s "
        f"({len(trace)} jobs in {benchmark.stats.stats.mean:.2f}s mean)",
    )
    # The full 122k-job trace must stay interactive (paper-scale experiments
    # in minutes): demand at least 5k jobs/s here.
    assert jobs_per_sec > 5_000
