"""End-to-end benchmark of the simulator, the sweep executor and the service.

All four workloads, each in a fresh subprocess, with every metric printed
by name (unit, value, median, quartiles, sample count)::

    PYTHONPATH=src python benchmarks/e2e/bench.py [--seed S] [--trace] [--out DIR]

One workload in this process; the last line of standard output is one JSON
object with the metrics ``BENCHMARK.json`` names (end-to-end ones, or the
per-layer ones with ``--trace 1``)::

    python3 benchmarks/e2e/bench.py --workload fig5-sweep --seed 0 --seconds 12 --trace 0

``--seconds`` fixes how many iterations a run times (see
``workloads.op_count``), so two commits given the same value do the same
work.  ``--trace`` runs the same workload with span timers installed around the
public functions at each layer boundary (see ``tracing.py``) and reports
the per-layer breakdown.  ``--out DIR`` keeps the result documents (and
spans) there; ``compare.py`` compares two sets of them.  Scratch files go
to ``.bench_run/`` at the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from summary import describe, load_benchmark, percentile
from workloads import WORKLOADS, ServiceMixed, no_span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"
DIGESTS = HERE / "digests.json"

#: Fresh-process set-up samples per run, after one discarded sample that
#: pays for cold file caches and bytecode compilation.
SETUP_SAMPLES = 7


def _checkout_problem() -> str:
    """Why this directory cannot run the benchmark ('' when it can)."""
    for needed in (SRC / "repro" / "__init__.py", ROOT / "benchmarks" / "sweep_bench.py"):
        if not needed.is_file():
            return f"missing {needed.relative_to(ROOT)}: run from a full checkout"
    return ""


def _bootstrap(run_dir: Path) -> None:
    """Import repro from this checkout; keep temporary files inside it."""
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks"), str(HERE)]
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase on the reference host; fixes the iteration "
                             "count (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="span-traced run reporting per-layer metrics")
    parser.add_argument("--out", type=Path, help="directory for result documents and spans")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (harness tests); skips the digest check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    return args


def make_workload(name: str, seed: int, smoke: bool, run_dir: Path):
    cls = WORKLOADS[name]
    if issubclass(cls, ServiceMixed):
        return cls(seed, smoke, cache_dir=run_dir / "cache")
    return cls(seed, smoke)


# ---------------------------------------------------------------- set-up
def setup_probe(args: argparse.Namespace, run_dir: Path) -> int:
    """Child side of a set-up sample: set up, say so, tear down."""
    workload = make_workload(args.workload, args.seed, args.smoke, run_dir)
    workload.setup()
    print("ready", flush=True)
    workload.close()
    return 0


def measure_setup(args: argparse.Namespace, run_dir: Path) -> list:
    """(seconds, host slowdown) of each set-up sample: seconds from spawning
    a fresh process to the workload being ready (importing repro,
    generating its base traces, booting its server), and the slowdown the
    host-speed kernel measured right before it.  A probe lasts about as
    long as one kernel sample, so each is scaled by its own sample rather
    than by the run's mean.  The first probe is discarded."""
    samples = []
    with HostSpeed() as host:
        for k in range(SETUP_SAMPLES + 1):
            slowdown = host.sample(force=True)
            samples.append((_setup_probe_s(args, run_dir, k), slowdown))
    return samples[1:]


def _setup_probe_s(args: argparse.Namespace, run_dir: Path, k: int) -> float:
    """Seconds until set-up probe ``k``, a fresh process, says it is ready."""
    probe_dir = run_dir / f"probe-{k}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(probe_dir)] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {' '.join(cmd)}")
    shutil.rmtree(probe_dir, ignore_errors=True)
    return elapsed


# --------------------------------------------------------------- metrics
def end_to_end(m, setup_samples: list) -> dict:
    """Every end-to-end metric the measurement supports, described.

    ``setup_samples`` holds ``measure_setup``'s (seconds, slowdown) pairs.
    ``BENCHMARK.json`` gates ``setup_s``, ``jobs_per_s`` and ``peak_rss_mb``.
    The two times are scaled to the reference host's speed by the slowdown
    measured beside them (see ``hostspeed.py``); their wall-clock values,
    the slowdowns, the service's latencies and submission rate, and
    ``failed_frac`` are printed beside them (a failed op also fails the
    run)."""
    out = {}
    if setup_samples:
        walls = [s for s, _ in setup_samples]
        slowdowns = [x for _, x in setup_samples]
        scaled = [s / x for s, x in setup_samples]
        out["setup_s"] = describe(statistics.median(scaled), "s", scaled)
        out["wall_setup_s"] = describe(statistics.median(walls), "s", walls)
        out["setup_host_slowdown"] = describe(statistics.median(slowdowns), "x", slowdowns)
    # Jobs over the summed op time, not the median op: the host switches
    # between a fast and a slow state, and a median flips between them
    # where a total moves in step with the kernel's mean time.  A run whose
    # ops all broke has no op times; it reports 0 and fails.
    walls = m.op_walls
    rate = m.jobs_per_op * len(walls) / sum(walls) if walls else 0.0
    per_op = [m.jobs_per_op / w for w in walls] or [0.0]
    slowdown = m.host.slowdown()
    out["jobs_per_s"] = describe(rate * slowdown, "jobs/s", [r * slowdown for r in per_op])
    out["wall_jobs_per_s"] = describe(rate, "jobs/s", per_op)
    out["host_slowdown"] = describe(slowdown, "x", [slowdown])
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss = max(self_kb, m.peak_worker_rss_kb) / 1024
    out["peak_rss_mb"] = describe(rss, "MB", [rss])
    for prefix, walls in (("result", m.cold_walls), ("cached_result", m.warm_walls)):
        if walls:
            ms = [w * 1e3 for w in walls]
            out[f"{prefix}_p50_ms"] = describe(statistics.median(ms), "ms", ms)
            out[f"{prefix}_p90_ms"] = describe(percentile(ms, 90), "ms", ms)
    if m.cold_walls or m.warm_walls:
        rate = (len(m.cold_walls) + len(m.warm_walls)) / m.timed_s if m.timed_s else 0.0
        out["submissions_per_s"] = describe(rate, "1/s", [rate])
    frac = m.failed / m.attempted if m.attempted else 1.0
    out["failed_frac"] = describe(frac, "fraction", [frac])
    return out


def check_digest(name: str, args: argparse.Namespace, m) -> str:
    """The recorded seed-0 digest of this workload ('' when none applies);
    a mismatch fails every op the digest covers."""
    if args.seed != 0 or args.smoke or not DIGESTS.is_file():
        return ""
    expected = json.loads(DIGESTS.read_text()).get(name, "")
    if expected and m.digest != expected:
        m.fail(m.digest_ops, f"seed-0 output digest {m.digest} != recorded {expected}")
    return expected


def host_info() -> dict:
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
    }


# ------------------------------------------------------------ one workload
def run_one(args: argparse.Namespace, run_dir: Path) -> int:
    bench = load_benchmark()
    tracer = None
    if args.trace:
        from tracing import Tracer

        spans_dir = (args.out or run_dir) / "spans" / args.workload
        shutil.rmtree(spans_dir, ignore_errors=True)
        tracer = Tracer(spans_dir).install()
        setup_samples = []
    else:
        setup_samples = measure_setup(args, run_dir)

    workload = make_workload(args.workload, args.seed, args.smoke, run_dir)
    try:
        m = workload.measure(args.seconds, tracer.span if tracer else no_span)
    finally:
        workload.close()
    expected = check_digest(args.workload, args, m)

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_info(),
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems,
        "iterations": m.n_iterations,
        "op_walls_s": m.op_walls,
        "kernel_walls_s": m.host.samples,
        "digest": m.digest,
        "digest_expected": expected or None,
        "metrics": end_to_end(m, setup_samples),
    }
    if tracer is not None:
        from tracing import per_layer

        layers = per_layer(tracer.collect(), m.window, m.n_iterations, m.status_docs)
        units = {e["name"]: e["unit"] for e in bench["per_layer"]}
        doc["per_layer"] = {
            name: {"value": layers[name], "unit": units[name]} for name in units
        }
        tracer.uninstall()
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}{'-trace' if args.trace else ''}-seed{args.seed}.json"
        (args.out / name).write_text(json.dumps(doc, indent=1) + "\n")

    print(format_run(doc))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = doc["per_layer"] if args.trace else doc["metrics"]
    line = {
        "correct": doc["correct"],
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            e["name"]: {"value": source[e["name"]]["value"], "unit": e["unit"]}
            for e in wanted
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if doc["correct"] else 1


# ---------------------------------------------------------- all workloads
def run_all(args: argparse.Namespace, run_dir: Path) -> int:
    """Each workload in a fresh subprocess, untraced then (with --trace)
    traced; prints one combined table and the tracing overhead."""
    out = args.out or run_dir / "results"
    code = 0
    combined = {False: {}, True: {}}
    for name in WORKLOADS:
        for traced in ((False, True) if args.trace else (False,)):
            sub = out / ("traced" if traced else "untraced")
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(int(traced)), "--out", str(sub)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                code = 1
                sys.stdout.write(proc.stdout)
            path = sub / f"{name}{'-trace' if traced else ''}-seed{args.seed}.json"
            if path.is_file():
                combined[traced][name] = json.loads(path.read_text())
            else:
                print(f"{name}: no result ({' '.join(cmd)} exited {proc.returncode})")

    for traced in (False, True):
        for doc in combined[traced].values():
            print(format_run(doc))
    overhead = {}
    for name, doc in combined[True].items():
        plain = combined[False].get(name)
        if plain is not None:
            base = plain["metrics"]["jobs_per_s"]["value"]
            traced = doc["metrics"]["jobs_per_s"]["value"]
            overhead[name] = {
                "jobs_per_s_untraced": base,
                "jobs_per_s_traced": traced,
                "overhead_frac": 1.0 - traced / base,
            }
    if overhead:
        print("== tracing overhead (share of untraced jobs_per_s lost) ==")
        for name, row in overhead.items():
            print(f"{name:<16} {row['overhead_frac']:+.2%}")
    if args.out:
        header = {"seed": args.seed, "seconds": args.seconds, "host": host_info()}
        (out / "bench.json").write_text(
            json.dumps({**header, "workloads": combined[False]}, indent=1) + "\n")
        if args.trace:
            (out / "bench_trace.json").write_text(json.dumps(
                {**header, "workloads": combined[True], "tracing_overhead": overhead},
                indent=1) + "\n")
    return code


def format_run(doc: dict) -> str:
    """One run as a table: every metric with unit, value, quartiles, n."""
    title = (f"== {doc['workload']}{' (traced)' if doc['trace'] else ''}: seed "
             f"{doc['seed']}, {doc['iterations']} timed iterations (--seconds "
             f"{doc['seconds']:g}), {doc['failed']}/{doc['attempted']} ops failed ==")
    lines = [title, f"{'metric':<28}{'unit':<10}{'value':>14}{'median':>14}"
                    f"{'q1':>14}{'q3':>14}{'n':>6}"]
    for name, d in doc["metrics"].items():
        lines.append(f"{name:<28}{d['unit']:<10}{d['value']:>14.6g}{d['median']:>14.6g}"
                     f"{d['q1']:>14.6g}{d['q3']:>14.6g}{d['n']:>6}")
    for name, d in doc.get("per_layer", {}).items():
        lines.append(f"{name:<28}{d['unit']:<10}{d['value']:>14.6g}")
    lines.append(f"output digest {doc['digest']}"
                 + (" (matches the record)" if doc["digest_expected"] == doc["digest"] else ""))
    lines.extend(f"FAILED: {p}" for p in doc["problems"])
    return "\n".join(lines)


def _stuck_threads() -> list:
    """Non-daemon threads still alive after a grace period (a sweep thread
    behind a timed-out request), which would block interpreter exit.  The
    wait also lets each process pool's manager thread reap the workers that
    ``run_sweep`` shut down without waiting for."""
    others = [t for t in threading.enumerate()
              if t is not threading.current_thread() and not t.daemon]
    for thread in others:
        thread.join(timeout=5)
    return [t for t in others if t.is_alive()]


def _stop_children(grace: float = 10.0) -> None:
    """End every process this one started, so none outlives the run: pool
    workers still alive after ``grace`` seconds are killed, and the
    shared-memory resource tracker, which Python otherwise leaves to exit
    on its own after the interpreter, is stopped and waited for."""
    import multiprocessing
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + grace
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            try:
                child.kill()
            except ProcessLookupError:
                pass
            child.join(grace)
    # Closes this process's end of the tracker's pipe and waits for it.
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    problem = _checkout_problem()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    run_dir = RUN_ROOT / f"run-{os.getpid()}"
    _bootstrap(run_dir)
    args = parse_args(argv)
    code = 1  # what an exception below exits with
    try:
        if args.setup_probe:
            code = setup_probe(args, args.out or run_dir)
        elif args.workload is None:
            code = run_all(args, run_dir)
        else:
            code = run_one(args, run_dir)
    finally:
        stuck = _stuck_threads()
        _stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass
        if stuck:
            # A stuck thread would block interpreter exit for good.
            if sys.exc_info()[0] is not None:
                traceback.print_exc()
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
