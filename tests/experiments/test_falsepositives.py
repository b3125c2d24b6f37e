"""False-positive experiment at reduced scale."""

import pytest

from repro.experiments import falsepositives
from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="module")
def result():
    return falsepositives.run(
        ExperimentConfig(n_jobs=2_500), spurious_probs=(0.0, 0.08), load=0.8
    )


class TestFalsePositives:
    def test_all_variants_present(self, result):
        assert set(result.variants) == {"implicit", "explicit-guard", "no-estimation"}

    def test_points_cover_grid(self, result):
        assert len(result.points) == 6  # 2 probs x 3 variants

    def test_clean_estimation_beats_baseline(self, result):
        def util(variant, prob):
            return next(
                p.utilization
                for p in result.points
                if p.variant == variant and p.spurious_prob == prob
            )

        assert util("implicit", 0.0) > util("no-estimation", 0.0) * 1.15

    def test_guard_retains_more_reduction_under_noise(self, result):
        def reduced(variant, prob):
            return next(
                p.frac_reduced
                for p in result.points
                if p.variant == variant and p.spurious_prob == prob
            )

        assert reduced("explicit-guard", 0.08) >= reduced("implicit", 0.08)

    def test_spurious_failures_observed(self, result):
        noisy = [p for p in result.points if p.spurious_prob > 0]
        assert all(p.n_spurious > 0 for p in noisy)

    def test_degradation_metric(self, result):
        assert result.degradation("implicit") >= result.degradation("explicit-guard") - 0.02

    def test_formatting(self, result):
        assert "False-positive" in result.format_table()
        assert "spurious" in result.format_chart() or "Utilization" in result.format_chart()


def test_points_equal_the_scalar_engine_with_a_failure_model():
    """Each point, simulated from its spec on the fast lane, equals a
    scalar ``Simulation`` whose ``FailureModel`` draws the spurious
    failures from the config's seed."""
    from repro.core import NoEstimation, SuccessiveApproximation
    from repro.sim import Simulation
    from repro.sim.failure import FailureModel
    from repro.sim.metrics import utilization
    from repro.sim.policies import Fcfs

    cfg = ExperimentConfig(n_jobs=800, seed=1)
    probs = (0.0, 0.05, 0.2)
    variants = {
        "implicit": lambda: SuccessiveApproximation(alpha=cfg.alpha, beta=cfg.beta),
        "explicit-guard": lambda: SuccessiveApproximation(
            alpha=cfg.alpha, beta=cfg.beta, explicit_guard=True
        ),
        "no-estimation": NoEstimation,
    }
    result = falsepositives.run(cfg, spurious_probs=probs, load=0.8)
    specs = falsepositives.sweep_specs(cfg, probs, load=0.8)
    assert len(result.points) == len(specs) == 9
    for point, spec in zip(result.points, specs):
        scalar = Simulation(
            spec.workload.materialize(),
            cfg.make_cluster(),
            estimator=variants[point.variant](),
            policy=Fcfs(),
            failure_model=FailureModel(
                rng=cfg.seed, spurious_failure_prob=point.spurious_prob
            ),
            collect_attempts=False,
        ).run()
        assert (point.utilization, point.frac_reduced, point.n_spurious) == (
            utilization(scalar),
            scalar.frac_reduced_submissions,
            scalar.n_spurious_failures,
        ), spec.label
    assert any(p.n_spurious > 0 for p in result.points)


class TestCli:
    def test_experiment_subcommand(self, capsys):
        from repro.cli import main

        assert main(["experiment", "falsepositives", "--jobs", "1000"]) == 0
        assert "False-positive" in capsys.readouterr().out

    def test_design_ladder_subcommand(self, capsys):
        from repro.cli import main

        rc = main(
            ["design", "--jobs", "1200", "--tiers", "2", "--candidates", "16", "24"]
        )
        assert rc == 0
        assert "sustainable load" in capsys.readouterr().out

    def test_hybrid_estimator_via_cli(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--jobs", "600", "--estimator", "hybrid"]) == 0
