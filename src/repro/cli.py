"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Subcommands
-----------
``quickstart``
    The headline with/without-estimation comparison on a small trace.
``generate``
    Write a calibrated synthetic LANL-CM5-like trace to an SWF file.
``analyze``
    The paper's trace analyses (Figures 1/3/4 statistics) for an SWF file
    or a synthetic trace.
``simulate``
    One simulation run: workload x cluster x estimator x policy -> report.
    ``--trace-out`` streams a JSONL event trace; ``--prometheus`` exports
    the run summary in the Prometheus text exposition format.
``stats``
    One instrumented run: counters, queue dynamics, and per-group
    estimator telemetry from the observability layer.
``trace``
    Summarize a JSONL event trace written by ``simulate --trace-out``
    (event counts and per-similarity-group convergence trajectories).
``experiment``
    Regenerate a paper artifact (fig1, fig3..fig8, table1).
``design``
    The Figure 8 cluster-design tool: rank second-tier memory sizes for a
    workload.
``serve``
    The sweep service: an HTTP API to submit sweeps, stream progress as
    JSONL, fetch results, and scrape Prometheus metrics.  Identical
    submissions are idempotent via the on-disk result cache.

Every subcommand accepts ``--jobs`` and ``--seed`` so results are exactly
reproducible from the shell.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    from repro.workload.job import Workload

EXPERIMENTS = (
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "falsepositives",
    "faults",
    "policies_exp",
    "replication",
)


def _load_workload(args: argparse.Namespace) -> Workload:
    """Workload from --trace (SWF) or the calibrated synthetic generator."""
    from repro.workload.lanl_cm5 import lanl_cm5_like
    from repro.workload.swf import read_swf

    if getattr(args, "trace", None):
        workload, report = read_swf(args.trace)
        print(report.summary(), file=sys.stderr)
        return workload
    return lanl_cm5_like(n_jobs=args.jobs, seed=args.seed)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=10_000, help="synthetic trace length"
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _registered(what: str) -> Callable[[str], str]:
    """An argparse type: a name in the spec registry of ``what``
    (``"estimator"`` or ``"policy"``), looked up only when a command runs
    so that ``repro --help`` imports no experiment module."""

    def check(name: str) -> str:
        from repro.experiments.specs import ESTIMATOR_REGISTRY, POLICY_REGISTRY

        registry = ESTIMATOR_REGISTRY if what == "estimator" else POLICY_REGISTRY
        if name not in registry:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r}; pick from {', '.join(sorted(registry))}"
            )
        return name

    return check


def cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import quickstart

    print(quickstart(n_jobs=args.jobs, load=args.load, seed=args.seed))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.workload.lanl_cm5 import lanl_cm5_like
    from repro.workload.swf import write_swf

    workload = lanl_cm5_like(n_jobs=args.jobs, seed=args.seed)
    write_swf(
        workload,
        args.output,
        header_comments=[
            f"synthetic LANL CM5 stand-in: {args.jobs} jobs, seed {args.seed}"
        ],
    )
    print(f"wrote {len(workload)} jobs to {args.output}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.similarity.analysis import similarity_report
    from repro.workload.report import characterize
    from repro.workload.stats import overprovisioning_stats

    workload = _load_workload(args)
    print("== trace characterization ==")
    print(characterize(workload).format_report())
    print()
    print("== over-provisioning (Figure 1) ==")
    print(overprovisioning_stats(workload).format_report())
    print()
    print("== similarity structure (Figures 3/4) ==")
    print(similarity_report(workload).format_report())
    return 0


def _simulation_inputs(args: argparse.Namespace):
    """Shared ``simulate``/``stats`` setup: workload, cluster, estimator,
    fault config — all from the common CLI flags."""
    from repro.cluster.builder import paper_cluster
    from repro.experiments.specs import EstimatorSpec, PolicySpec
    from repro.sim.faults import FaultConfig
    from repro.workload.transforms import drop_full_machine_jobs, scale_load

    workload = drop_full_machine_jobs(_load_workload(args))
    workload = scale_load(workload, args.load)
    cluster = paper_cluster(args.tier2)
    # The RL agent's exploration draws from --seed, like every other stream.
    seeded = {"rng": args.seed} if args.estimator == "rl" else {}
    estimator = EstimatorSpec.make(args.estimator, **seeded).materialize()
    policy = PolicySpec(name=args.policy).materialize()
    fault_config = None
    if args.node_mtbf > 0:
        fault_config = FaultConfig(
            node_mtbf=args.node_mtbf, node_mttr=args.node_mttr
        )
    return workload, cluster, estimator, policy, fault_config


def _write_prometheus(destination: str, text: str) -> None:
    if destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote Prometheus export to {destination}", file=sys.stderr)


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.obs.export import prometheus_text
    from repro.obs.trace import JsonlTraceObserver
    from repro.sim.engine import simulate
    from repro.sim.metrics import mean_slowdown, utilization

    workload, cluster, estimator, policy, fault_config = _simulation_inputs(args)
    observer = None
    if args.trace_out:
        observer = JsonlTraceObserver(args.trace_out)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        # simulate() picks the engine: the fast lane when the config is
        # eligible, else the scalar engine — bit-identical either way.
        result = simulate(
            workload,
            cluster,
            estimator=estimator,
            policy=policy,
            seed=args.seed,
            spurious_failure_prob=args.spurious,
            fault_config=fault_config,
            observer=observer,
        )
    finally:
        if profiler is not None:
            profiler.disable()
        if observer is not None:
            observer.close()
    if profiler is not None:
        import pstats

        print("== profile (top 20 by cumulative time) ==")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    print(result.summary_table())
    print(f"utilization: {utilization(result):.3f}")
    print(f"mean slowdown: {mean_slowdown(result):.1f}")
    if args.trace_out:
        print(f"wrote JSONL trace to {args.trace_out}", file=sys.stderr)
    if args.prometheus:
        _write_prometheus(args.prometheus, prometheus_text(result))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.base import CompositeObserver
    from repro.obs.counters import CounterObserver
    from repro.obs.export import prometheus_text
    from repro.obs.sampler import TimelineSampler
    from repro.obs.telemetry import EstimatorTelemetryObserver
    from repro.sim.analysis import capacity_decomposition, queue_stats
    from repro.sim.engine import simulate
    from repro.sim.metrics import mean_slowdown, utilization

    workload, cluster, estimator, policy, fault_config = _simulation_inputs(args)
    counters = CounterObserver()
    telemetry = EstimatorTelemetryObserver()
    sampler = TimelineSampler()
    result = simulate(
        workload,
        cluster,
        estimator=estimator,
        policy=policy,
        seed=args.seed,
        spurious_failure_prob=args.spurious,
        fault_config=fault_config,
        observer=CompositeObserver([counters, telemetry, sampler]),
    )
    print("== run summary ==")
    print(result.summary_table())
    print(f"utilization (effective): {utilization(result):.3f}")
    print(f"utilization (raw hw)   : {utilization(result, effective=False):.3f}")
    print(f"mean slowdown: {mean_slowdown(result):.1f}")
    print()
    print("== event counters ==")
    print(counters.format_report())
    print()
    print("== capacity ==")
    print(capacity_decomposition(result).format_report())
    if result.timeline:
        stats = queue_stats(result, total_nodes=result.total_nodes)
        print()
        print("== queue dynamics ==")
        print(
            f"mean queue {stats.mean_queue_length:.1f} "
            f"(max {stats.max_queue_length}), "
            f"mean busy nodes {stats.mean_busy_nodes:.1f}, "
            f"mean down nodes {stats.mean_down_nodes:.1f}, "
            f"blocked-with-free-nodes {stats.frac_blocked_with_free_nodes:.1%}"
        )
    print()
    print("== estimator telemetry ==")
    print(telemetry.format_report(top=args.groups))
    if args.prometheus:
        _write_prometheus(
            args.prometheus, prometheus_text(result, counters=counters.snapshot())
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import group_trajectories, read_trace, trace_counts

    try:
        events = list(read_trace(args.file))
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    if not events:
        print(f"no trace events in {args.file}", file=sys.stderr)
        return 1
    counts = trace_counts(events)
    print(f"{len(events)} events in {args.file}")
    for kind in sorted(counts):
        print(f"  {counts[kind]:>8d}  {kind}")
    trajectories = group_trajectories(events)
    if trajectories:
        print()
        print(f"per-group requirement trajectories (top {args.groups} "
              f"of {len(trajectories)} groups by submissions):")
        ranked = sorted(
            trajectories.items(), key=lambda kv: len(kv[1]), reverse=True
        )
        for key, values in ranked[: args.groups]:
            shown = ", ".join(f"{v:g}" for v in values[:12])
            if len(values) > 12:
                shown += ", ..."
            print(f"  {key}: {shown}  ({len(values)} submissions)")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    import importlib
    import inspect
    import logging

    from repro.experiments.cache import resolve_cache
    from repro.experiments.config import ExperimentConfig

    module = importlib.import_module(f"repro.experiments.{args.name}")
    sweeps = "max_workers" in inspect.signature(module.run).parameters
    executor_flags = {
        "--workers": args.workers,
        "--cache-dir": args.cache_dir,
        "--run-timeout": args.run_timeout,
        "--max-retries": args.max_retries,
    }
    refused = [flag for flag, value in executor_flags.items() if value is not None]
    if refused and not sweeps:
        print(
            f"repro experiment {args.name}: {args.name} does not run on the "
            f"sweep executor, so it takes no {', '.join(refused)}",
            file=sys.stderr,
        )
        return 2
    config = ExperimentConfig(n_jobs=args.jobs, seed=args.seed)
    kwargs = {}
    sweep_logger = logging.getLogger("repro.sweep")
    saved_level, saved_handlers = sweep_logger.level, list(sweep_logger.handlers)
    try:
        if sweeps:
            # Sweep-capable experiment: wire up the pool, cache and timeout,
            # and surface the executor's runs/s + cache-hit accounting on
            # stderr.  The logger is process-wide, so it is restored for a
            # caller's next sweep.
            kwargs["max_workers"] = args.workers or 1
            kwargs["timeout"] = args.run_timeout
            kwargs["max_retries"] = args.max_retries or 0
            kwargs["cache"] = resolve_cache(
                enabled=not args.no_cache, directory=args.cache_dir
            )
            if not sweep_logger.handlers:
                handler = logging.StreamHandler(sys.stderr)
                handler.setFormatter(logging.Formatter("%(message)s"))
                sweep_logger.addHandler(handler)
            sweep_logger.setLevel(logging.INFO)
        result = module.run(config, **kwargs)
    finally:
        sweep_logger.setLevel(saved_level)
        sweep_logger.handlers[:] = saved_handlers
    print(result.format_table())
    if hasattr(result, "format_chart"):
        print()
        print(result.format_chart())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.cache import resolve_cache
    from repro.service.app import ServiceConfig, serve

    serve(
        ServiceConfig(
            host=args.host,
            port=args.port,
            sweep_workers=args.workers,
            max_concurrent_sweeps=args.max_sweeps,
            cache=resolve_cache(
                enabled=not args.no_cache, directory=args.cache_dir
            ),
        )
    )
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    from repro.cluster.builder import design_ladder, design_second_tier
    from repro.workload.transforms import drop_full_machine_jobs

    workload = drop_full_machine_jobs(_load_workload(args))
    candidates = [float(m) for m in args.candidates]
    if args.tiers > 1:
        designs = design_ladder(
            workload,
            candidate_levels=candidates + [32.0],
            n_tiers=args.tiers,
            total_nodes=1024,
            alpha=args.alpha,
        )
        print(f"{'ladder (MB)':>24s}{'sustainable load':>18s}")
        for d in designs[:10]:
            levels = "+".join(f"{l:g}" for l in d.levels)
            print(f"{levels:>24s}{d.sustainable_load:>18.2f}")
        return 0
    choices = design_second_tier(workload, candidates, alpha=args.alpha)
    print(f"{'tier-2 MB':>10s}{'benefiting jobs':>17s}{'benefiting nodes':>18s}")
    for c in sorted(choices, key=lambda c: -c.benefiting_node_count):
        print(f"{c.second_tier_mem:>10.0f}{c.benefiting_jobs:>17d}{c.benefiting_node_count:>18d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Estimation of actual job requirements for heterogeneous "
            "clusters (Yom-Tov & Aridor, HPDC 2006)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quickstart", help="with/without-estimation comparison")
    _add_common(p)
    p.add_argument("--load", type=float, default=0.8)
    p.set_defaults(fn=cmd_quickstart)

    p = sub.add_parser("generate", help="write a synthetic trace as SWF")
    _add_common(p)
    p.add_argument("output", help="output .swf path")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("analyze", help="Figure 1/3/4 trace analyses")
    _add_common(p)
    p.add_argument("--trace", help="SWF file (default: synthetic)")
    p.set_defaults(fn=cmd_analyze)

    def _add_run_flags(p: argparse.ArgumentParser) -> None:
        _add_common(p)
        p.add_argument("--trace", help="SWF file (default: synthetic)")
        p.add_argument("--load", type=float, default=0.8, help="offered load")
        p.add_argument(
            "--tier2", type=float, default=24.0, help="second-tier memory MB"
        )
        p.add_argument(
            "--estimator",
            type=_registered("estimator"),
            default="successive",
            help="estimator by spec-registry name, e.g. none, successive, "
            "last-instance, rl, regression, oracle (default: successive)",
        )
        p.add_argument(
            "--policy",
            type=_registered("policy"),
            default="fcfs",
            help="scheduling policy by spec-registry name: fcfs, sjf or "
            "easy-backfilling (default: fcfs)",
        )
        p.add_argument(
            "--spurious",
            type=float,
            default=0.0,
            help="per-attempt spurious-failure probability (§2.1 false positives)",
        )
        p.add_argument(
            "--node-mtbf",
            type=float,
            default=0.0,
            help="per-node mean time between failures, seconds (0 = no faults)",
        )
        p.add_argument(
            "--node-mttr",
            type=float,
            default=3600.0,
            help="mean node repair time, seconds (with --node-mtbf)",
        )
        p.add_argument(
            "--prometheus",
            metavar="PATH",
            help="write the run summary in Prometheus text format ('-' = stdout)",
        )

    p = sub.add_parser("simulate", help="one simulation run")
    _add_run_flags(p)
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="stream a JSONL event trace of the run to PATH",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top 20 cumulative-time entries",
    )
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "stats", help="one instrumented run: counters, queue dynamics, telemetry"
    )
    _add_run_flags(p)
    p.add_argument(
        "--groups",
        type=int,
        default=10,
        help="similarity groups to show in the telemetry report",
    )
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "trace", help="summarize a JSONL event trace (simulate --trace-out)"
    )
    p.add_argument("file", help="JSONL trace path")
    p.add_argument(
        "--groups",
        type=int,
        default=10,
        help="similarity groups to show in the trajectory report",
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    _add_common(p)
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for sweep experiments (default 1: in-process serial)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk sweep result cache",
    )
    p.add_argument(
        "--cache-dir",
        help="sweep cache directory (default: $REPRO_CACHE_DIR, unset = off)",
    )
    p.add_argument(
        "--run-timeout",
        type=_positive_float,
        default=None,
        help="per-run wall-clock timeout in seconds (default: none)",
    )
    p.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=None,
        help="resubmissions per timed-out run, default 0 "
        "(a run that raises is not retried)",
    )
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("serve", help="run the sweep service (HTTP API)")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8765, help="bind port (0 = OS-assigned)"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per executing sweep",
    )
    p.add_argument(
        "--max-sweeps",
        type=int,
        default=2,
        help="sweeps executing concurrently; the rest queue as pending",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (disables cross-restart idempotency)",
    )
    p.add_argument(
        "--cache-dir",
        help="sweep cache directory (default: $REPRO_CACHE_DIR, unset = off)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("design", help="rank second-tier memory sizes (Fig 8 tool)")
    _add_common(p)
    p.add_argument("--trace", help="SWF file (default: synthetic)")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument(
        "--candidates",
        nargs="+",
        default=["8", "16", "20", "24", "28"],
        help="candidate second-tier memory sizes (MB)",
    )
    p.add_argument(
        "--tiers",
        type=int,
        default=1,
        help="tiers to design beside 32MB; >1 searches full ladders",
    )
    p.set_defaults(fn=cmd_design)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
