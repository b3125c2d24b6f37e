"""Fault-injection experiment at reduced scale."""

import math

import pytest

from repro.core import NoEstimation, SuccessiveApproximation
from repro.experiments import faults
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import simulate_spec
from repro.sim import (
    FailureModel,
    FaultConfig,
    NodeFaultInjector,
    Simulation,
    fault_rng,
    utilization,
)
from repro.sim.policies import Fcfs
from repro.workload.transforms import scale_load


@pytest.fixture(scope="module")
def result():
    return faults.run(
        ExperimentConfig(n_jobs=2_000),
        mtbfs=(math.inf, 2e7),
        node_mttr=2000.0,
        load=0.8,
    )


class TestFaultExperiment:
    def test_all_variants_present(self, result):
        assert set(result.variants) == {
            "implicit",
            "implicit-decay",
            "explicit-guard",
            "no-estimation",
        }

    def test_points_cover_grid(self, result):
        assert len(result.points) == 8  # 2 MTBFs x 4 variants

    def test_clean_runs_are_fault_free_and_identical_across_estimation(self, result):
        clean = [p for p in result.points if math.isinf(p.node_mtbf)]
        assert all(p.n_node_failures == 0 and p.n_fault_kills == 0 for p in clean)
        assert all(p.fault_rate == 0.0 for p in clean)

    def test_faulty_runs_record_failures(self, result):
        faulty = [p for p in result.points if math.isfinite(p.node_mtbf)]
        assert all(p.n_node_failures > 0 for p in faulty)
        assert any(p.n_fault_kills > 0 for p in faulty)

    def test_estimation_still_beats_baseline_under_faults(self, result):
        def util(variant, finite):
            return next(
                p.utilization
                for p in result.points
                if p.variant == variant and math.isfinite(p.node_mtbf) == finite
            )

        assert util("implicit", True) > util("no-estimation", True) * 1.15

    def test_guard_is_most_robust(self, result):
        # The §2.1 claim: explicit feedback shrugs off fault kills that
        # degrade the implicit variant.
        assert result.degradation("explicit-guard") <= result.degradation("implicit")
        assert result.reduction_lost("explicit-guard") <= result.reduction_lost(
            "implicit"
        ) + 0.01

    def test_formatting(self, result):
        table = result.format_table()
        assert "Fault-injection" in table
        assert "clean" in table
        assert "Utilization" in result.format_chart()


class TestCli:
    def test_experiment_subcommand(self, capsys):
        from repro.cli import main

        assert main(["experiment", "faults", "--jobs", "1000"]) == 0
        assert "Fault-injection" in capsys.readouterr().out

    def test_simulate_with_fault_flags(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "simulate", "--jobs", "600", "--load", "0.7",
                "--node-mtbf", "2e6", "--node-mttr", "1000",
            ]
        )
        assert rc == 0
        assert "node faults" in capsys.readouterr().out

    def test_simulate_with_spurious_flag(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--jobs", "600", "--spurious", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "spurious" in out

    def test_experiment_resilience_flags(self, monkeypatch, capsys):
        # The flags reach the experiment's own run_sweep call, per call
        # (fig5.run imports run_sweep from the executor when it runs).
        import repro.experiments.parallel as parallel
        from repro.cli import main

        calls = []
        real_run_sweep = parallel.run_sweep

        def recording_run_sweep(specs, **kwargs):
            calls.append(kwargs)
            return real_run_sweep(specs, **kwargs)

        monkeypatch.setattr(parallel, "run_sweep", recording_run_sweep)
        rc = main(
            [
                "experiment", "fig5", "--jobs", "800",
                "--max-retries", "1", "--run-timeout", "600", "--no-cache",
            ]
        )
        assert rc == 0
        assert "Figure 5" in capsys.readouterr().out
        assert len(calls) == 1
        assert calls[0]["timeout"] == 600.0
        assert calls[0]["max_retries"] == 1


def test_points_match_explicit_scalar_runs():
    """run() simulates through simulate(), so its faulted points take the
    fast lane; each must equal an explicit scalar Simulation of the same
    cell."""
    cfg = ExperimentConfig(n_jobs=600)
    mtbfs, mttr, load = (math.inf, 2e6), 1800.0, 0.9
    result = faults.run(cfg, mtbfs=mtbfs, node_mttr=mttr, load=load)
    workload = scale_load(cfg.make_sim_workload(), load)
    estimators = {
        "implicit": lambda: SuccessiveApproximation(alpha=cfg.alpha, beta=0.0),
        "implicit-decay": lambda: SuccessiveApproximation(
            alpha=cfg.alpha, beta=0.75
        ),
        "explicit-guard": lambda: SuccessiveApproximation(
            alpha=cfg.alpha, beta=0.0, explicit_guard=True
        ),
        "no-estimation": NoEstimation,
    }
    twins = []
    for mtbf in mtbfs:
        config = FaultConfig(node_mtbf=mtbf, node_mttr=mttr)
        for name, factory in estimators.items():
            twin = Simulation(
                workload,
                cfg.make_cluster(),
                estimator=factory(),
                policy=Fcfs(),
                failure_model=FailureModel(rng=cfg.seed),
                fault_injector=(
                    NodeFaultInjector(config, rng=fault_rng(cfg.seed))
                    if config.enabled else None
                ),
                collect_attempts=False,
            ).run()
            twins.append(faults.FaultPoint(
                node_mtbf=float(mtbf),
                variant=name,
                utilization=utilization(twin),
                frac_reduced=twin.frac_reduced_submissions,
                n_node_failures=twin.n_node_failures,
                n_fault_kills=twin.n_fault_kills,
            ))
    assert result.points == twins
    assert any(p.n_fault_kills > 0 for p in twins)


def test_cells_are_the_sweep_specs():
    """run() simulates the specs sweep_specs() gives the service: each
    cell equals the scalar sweep point of its spec."""
    cfg = ExperimentConfig(n_jobs=600)
    grid = dict(mtbfs=(math.inf, 2e6), node_mttr=1800.0, load=0.9)
    result = faults.run(cfg, **grid)
    specs = faults.sweep_specs(cfg, **grid)
    assert len(result.points) == len(specs) == 8
    for cell, spec in zip(result.points, specs):
        assert spec.label == f"{cell.variant}@mtbf={faults._mtbf_label(cell.node_mtbf)}"
        point = simulate_spec(spec)
        assert cell.utilization == point.utilization
        assert cell.frac_reduced == point.frac_reduced_submissions
