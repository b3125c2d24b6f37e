"""Command-line interface."""

import logging
import re

import pytest

from repro.cli import _simulation_inputs, build_parser, main
from repro.core.reinforcement import ReinforcementLearning
from tests.experiments.test_spec_registry import BUILT_IN_ESTIMATORS, BUILT_IN_POLICIES


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_estimators_constructible(self):
        """Every built-in registry name is an ``--estimator`` value."""
        for name, cls in BUILT_IN_ESTIMATORS.items():
            args = build_parser().parse_args(
                ["simulate", "--jobs", "50", "--estimator", name]
            )
            assert type(_simulation_inputs(args)[2]) is cls, name

    def test_all_policies_constructible(self):
        """Every built-in registry name is a ``--policy`` value."""
        for name, cls in BUILT_IN_POLICIES.items():
            args = build_parser().parse_args(["stats", "--jobs", "50", "--policy", name])
            assert type(_simulation_inputs(args)[3]) is cls, name

    def test_rl_explores_from_the_seed(self):
        args = build_parser().parse_args(
            ["simulate", "--jobs", "50", "--estimator", "rl", "--seed", "7"]
        )
        state = _simulation_inputs(args)[2]._rng.bit_generator.state
        assert state == ReinforcementLearning(rng=7)._rng.bit_generator.state

    @pytest.mark.parametrize("flag, value", [
        ("--estimator", "nope"), ("--policy", "easy"),
    ])
    def test_unregistered_names_are_usage_errors(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", flag, value])
        assert exc.value.code == 2
        assert "pick from" in capsys.readouterr().err


class TestQuickstart:
    def test_runs(self, capsys):
        assert main(["quickstart", "--jobs", "800", "--load", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "utilization with estimation" in out


class TestGenerateAnalyze:
    def test_generate_then_analyze(self, tmp_path, capsys):
        swf = tmp_path / "t.swf"
        assert main(["generate", str(swf), "--jobs", "1000"]) == 0
        assert swf.exists()
        capsys.readouterr()
        assert main(["analyze", "--trace", str(swf)]) == 0
        out = capsys.readouterr().out
        assert "over-provisioning" in out
        assert "similarity" in out

    def test_analyze_synthetic(self, capsys):
        assert main(["analyze", "--jobs", "1000"]) == 0
        assert "Figure 1" in capsys.readouterr().out


class TestSimulate:
    @pytest.mark.parametrize("estimator", ["none", "successive", "oracle"])
    def test_estimators(self, estimator, capsys):
        rc = main(
            ["simulate", "--jobs", "800", "--estimator", estimator, "--load", "0.7"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "utilization:" in out

    def test_policy_option(self, capsys):
        assert main(["simulate", "--jobs", "500", "--policy", "sjf"]) == 0

    def test_tier2_option(self, capsys):
        assert main(["simulate", "--jobs", "500", "--tier2", "16"]) == 0
        assert "utilization" in capsys.readouterr().out

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        rc = main(["simulate", "--jobs", "500", "--trace-out", str(trace)])
        assert rc == 0
        assert trace.exists() and trace.read_text().startswith('{"v":1')

    def test_prometheus_to_file(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        assert main(["simulate", "--jobs", "500", "--prometheus", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE repro_utilization_effective gauge" in text

    def test_profile_prints_cumulative_top(self, capsys):
        assert main(["simulate", "--jobs", "500", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile (top 20 by cumulative time)" in out
        assert "cumulative" in out
        assert "utilization:" in out  # the run report still prints


class TestStatsAndTrace:
    def test_stats_prints_observability_report(self, capsys):
        rc = main(
            ["stats", "--jobs", "600", "--estimator", "successive",
             "--node-mtbf", "5e6", "--node-mttr", "2000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "event counters" in out
        assert "queue dynamics" in out
        assert "effective" in out and "raw" in out

    def test_trace_summarizes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["simulate", "--jobs", "500", "--estimator", "successive",
             "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "job_started" in out
        assert "group" in out

    def test_trace_missing_file_errors(self, capsys):
        assert main(["trace", "/nonexistent/nope.jsonl"]) == 1


class TestExperiment:
    @pytest.mark.parametrize("name", ["fig1", "fig7"])
    def test_cheap_experiments(self, name, capsys):
        assert main(["experiment", name, "--jobs", "1500"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig2"])

    def test_sweep_experiment_with_workers_and_cache(self, tmp_path, capsys):
        for name, title in (
            ("fig5", "Figure 5"),
            ("table1", "Table 1"),
            ("policies_exp", "Policy robustness"),
        ):
            cache_dir = tmp_path / name
            argv = [
                "experiment", name, "--jobs", "800",
                "--workers", "2", "--cache-dir", str(cache_dir),
            ]
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert title in first
            assert any(cache_dir.glob("*.json")), name
            # Second run is served from the cache and prints identical tables.
            assert main(argv) == 0
            out = capsys.readouterr()
            assert out.out == first
            runs, hits = re.search(
                r"sweep: (\d+) runs .* (\d+) cache hits", out.err
            ).groups()
            assert runs == hits, name

    @pytest.mark.parametrize("name, flag, value", [
        ("faults", "--workers", "2"),
        ("falsepositives", "--cache-dir", "CACHE"),
        ("fig1", "--run-timeout", "5"),
        ("fig3", "--max-retries", "1"),
        ("fig4", "--workers", "1"),
        ("fig7", "--cache-dir", "CACHE"),
    ])
    def test_executor_flags_refused_where_not_honoured(
        self, tmp_path, monkeypatch, capsys, name, flag, value
    ):
        import importlib

        module = importlib.import_module(f"repro.experiments.{name}")

        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran despite a refused flag")

        monkeypatch.setattr(module, "run", no_run)
        value = str(tmp_path / "cache") if value == "CACHE" else value
        assert main(["experiment", name, "--jobs", "800", flag, value]) == 2
        assert f"takes no {flag}" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_sweep_settings_are_restored_afterwards(self, capsys):
        """The stderr progress log holds for the experiment's own sweeps
        only, not for a later run_sweep in the same process."""
        logger = logging.getLogger("repro.sweep")
        before = (logger.level, list(logger.handlers))
        argv = [
            "experiment", "fig5", "--jobs", "800", "--no-cache",
            "--max-retries", "5", "--run-timeout", "60",
        ]
        assert main(argv) == 0
        after = (logger.level, list(logger.handlers))
        assert after == before

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-retries", "-1", "must be >= 0"),
        ("--max-retries", "two", "invalid _non_negative_int value"),
        ("--run-timeout", "0", "must be positive"),
        ("--run-timeout", "-5", "must be positive"),
        ("--run-timeout", "nan", "must be positive"),
    ])
    def test_bad_resilience_flags_are_usage_errors(
        self, monkeypatch, capsys, flag, value, message
    ):
        import repro.experiments.fig5 as fig5_mod

        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran despite a bad flag")

        monkeypatch.setattr(fig5_mod, "run", no_run)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig5", "--jobs", "800", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: {message}" in err

    def test_no_cache_flag_skips_cache_writes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert main(["experiment", "fig5", "--jobs", "800", "--no-cache"]) == 0
        assert not (tmp_path / "envcache").exists()


class TestDesign:
    def test_ranks_candidates(self, capsys):
        rc = main(["design", "--jobs", "1500", "--candidates", "8", "16", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "benefiting nodes" in out
        # All three candidates appear.
        for m in ("8", "16", "24"):
            assert m in out


class TestServe:
    def test_parser_accepts_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--host", "0.0.0.0", "--port", "0",
                "--workers", "2", "--max-sweeps", "3", "--no-cache",
            ]
        )
        assert args.host == "0.0.0.0"
        assert args.port == 0
        assert args.workers == 2
        assert args.max_sweeps == 3
        assert args.no_cache

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8765
        assert args.cache_dir is None
