"""Harness tests for the end-to-end benchmark, at smoke size.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent)]

import bench  # noqa: E402
from hostspeed import CALLS_PER_SAMPLE, REFERENCE_KERNEL_S, HostSpeed  # noqa: E402
from summary import ROOT, load_benchmark, verdict  # noqa: E402
from tracing import Tracer, per_layer, roots, self_times  # noqa: E402
from workloads import WORKLOADS, Fig5Sweep, Measurement, ServiceMixed, SingleRun  # noqa: E402

BENCH = load_benchmark()


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert set(line["metrics"]) == {e["name"] for e in wanted}
    for entry in wanted:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
        if trace == "0":
            assert metric["value"] > 0, entry["name"]


def test_times_are_scaled_by_the_measured_slowdown():
    # Totals and means, not medians: 3000 jobs in 6 s, mean slowdown 2.
    m = Measurement(op_walls=[1.0, 1.0, 4.0], jobs_per_op=1000)
    m.host.samples = [1.5 * REFERENCE_KERNEL_S, 3 * REFERENCE_KERNEL_S, 1.5 * REFERENCE_KERNEL_S]
    # Each set-up sample is scaled by its own slowdown: 0.6, 0.8 and 0.2 s.
    out = bench.end_to_end(m, [(0.3, 0.5), (0.2, 0.25), (0.4, 2.0)])
    assert out["wall_jobs_per_s"]["value"] == 500.0
    assert out["jobs_per_s"]["value"] == pytest.approx(1000.0)
    assert out["wall_setup_s"]["value"] == 0.3
    assert out["setup_s"]["value"] == 0.6
    assert out["setup_host_slowdown"]["value"] == 0.5


def test_host_speed_helper_samples_and_stops():
    host = HostSpeed()
    with host:
        assert host.sample(force=True) > 0
        assert host.sample() is None  # too soon after the first: skipped
        helper = host._helper
    assert len(host.samples) == CALLS_PER_SAMPLE
    assert all(t > 0 for t in host.samples) and host.slowdown() > 0
    assert helper.poll() is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "single-run", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


#: Runs a command as a child subreaper, so every process the command leaves
#: behind becomes this script's child; prints the exit code and what
#: ``waitpid`` finds right after: null when no process is left.
LEFTOVER_CHECK = """
import ctypes, json, os, subprocess, sys
PR_SET_CHILD_SUBREAPER = 36
ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)
try:
    left = os.waitpid(-1, os.WNOHANG)  # (0, 0): one still runs
except ChildProcessError:
    left = None
print(json.dumps([code, left]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
@pytest.mark.parametrize("workload", ["fig5-sweep", "service-mixed"])
def test_no_process_outlives_a_run(workload):
    """Pool workers and the shared-memory resource tracker are waited for."""
    proc = subprocess.run(
        [sys.executable, "-c", LEFTOVER_CHECK, sys.executable, "benchmarks/e2e/bench.py",
         "--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", "0",
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert json.loads(proc.stdout) == [0, None], proc.stderr


def test_planted_sweep_mismatch_is_counted(monkeypatch):
    """A scalar re-run disagreeing with the sweep fails its op."""
    import os

    from repro.experiments import parallel

    parent = os.getpid()
    original = parallel.simulate_spec

    def planted(spec):
        point = original(spec)
        if os.getpid() == parent:
            point = replace(point, utilization=point.utilization + 1e-12)
        return point

    monkeypatch.setattr(parallel, "simulate_spec", planted)
    m = Fig5Sweep(seed=1, smoke=True).measure(0.1)
    assert m.failed == 2 and m.attempted > m.failed
    assert bench.end_to_end(m, [])["failed_frac"]["value"] == m.failed / m.attempted


def test_planted_invariant_violation_is_counted(monkeypatch):
    """useful node-seconds off by more than 1e-9 breaks §3.1."""
    from repro.sim import engine

    original = engine.simulate
    calls = []

    def planted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 4:
            result.useful_node_seconds *= 1 + 1e-6
        return result

    monkeypatch.setattr(engine, "simulate", planted)
    m = SingleRun(seed=1, smoke=True).measure(0.1)
    assert m.failed == 1
    assert "useful node-seconds" in m.problems[0]


def _traced(tmp_path, workload):
    tracer = Tracer(tmp_path / "spans").install()
    try:
        m = workload.measure(0.2, tracer.span)
    finally:
        tracer.uninstall()
        workload.close()
    return m, tracer.collect()


@pytest.mark.parametrize("make", [
    lambda tmp: Fig5Sweep(seed=2, smoke=True),
    lambda tmp: ServiceMixed(seed=2, smoke=True, cache_dir=tmp / "cache"),
], ids=["fig5-sweep", "service-mixed"])
def test_spans_nest_and_self_times_sum_to_roots(tmp_path, make):
    m, spans = _traced(tmp_path, make(tmp_path))
    assert m.failed == 0
    by_id = {s["span_id"]: s for s in spans}
    assert len(by_id) == len(spans)
    for s in spans:
        assert s["start_ns"] <= s["end_ns"]
        parent = by_id.get(s["parent_id"])
        if parent is not None and parent["pid"] == s["pid"]:
            assert parent["start_ns"] <= s["start_ns"] and s["end_ns"] <= parent["end_ns"]
    selfs = self_times(spans)
    assert all(v >= 0 for v in selfs.values())
    total_self, total_roots = defaultdict(int), defaultdict(int)
    for s in spans:
        total_self[s["pid"]] += selfs[s["span_id"]]
    for s in roots(spans):
        total_roots[s["pid"]] += s["end_ns"] - s["start_ns"]
    assert total_self == total_roots
    layers = per_layer(spans, m.window, m.n_iterations, m.status_docs)
    assert {e["name"] for e in BENCH["per_layer"]} <= set(layers)


def test_fig5_workers_report_their_spans(tmp_path):
    m, spans = _traced(tmp_path, Fig5Sweep(seed=2, smoke=True))
    main = {s["pid"] for s in spans if s["name"] == "bench.op"}
    workers = {s["pid"] for s in spans if s["name"] == "parallel.unit"}
    assert workers and not workers & main
    layers = per_layer(spans, m.window, m.n_iterations)
    assert layers["parallel.unit_s"] > 0 and layers["batch.fast_lane_frac"] == 1.0


# Stopping the server drops handlers still waiting on a run, which the
# stopped loop reports as unraisable "Event loop is closed" errors.
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_timed_out_request_is_a_failed_op_and_does_not_hang(tmp_path, monkeypatch):
    from repro.service import registry

    release = threading.Event()
    original = registry.run_sweep

    def stuck(*args, **kwargs):
        release.wait(60)
        return original(*args, **kwargs)

    monkeypatch.setattr(registry, "run_sweep", stuck)
    service = ServiceMixed(seed=4, smoke=True, cache_dir=tmp_path, request_timeout=0.2)
    t0 = time.perf_counter()
    try:
        m = service.measure(0.1)
    finally:
        release.set()
        service.close()
    assert time.perf_counter() - t0 < 30
    assert m.attempted >= 4 and m.failed == m.attempted
    assert any("timed out" in p for p in m.problems)
    # The queued sweeps finish once released; leave no thread behind.
    sweeps = [t for t in threading.enumerate() if t.name.startswith("sweep")]
    for thread in sweeps:
        thread.join(timeout=30)
    assert not any(t.is_alive() for t in sweeps)
    gc.collect()  # reap the dropped handlers under this test's filter


def test_verdict_rules():
    base = [100.0 + i for i in range(10)]
    assert verdict(base, list(base), "higher", 0.1) == "unchanged"
    assert verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "worse"
    assert verdict(base, [v * 1.5 for v in base], "higher", 0.1) == "better"
    assert verdict(base, [v * 1.5 for v in base[:3]], "higher", 0.1) == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, "higher", 0.1) == "unresolved"
    assert verdict([0.0], [0.01], "lower", 0.0) == "worse"
