"""EXT bench: observer overhead — the null path must be free.

Times the same ``simulate()`` call three ways: no observer at all, a
:class:`NullObserver`, and a :class:`JsonlTraceObserver` writing the full
event stream.  The acceptance bar from the observability tentpole: the
null observer may cost at most ``REPRO_OBS_TOLERANCE`` (default 5%) over
the bare run.  Both ride the fast lane (a NullObserver is no observation),
so anything more means the null observer knocked the run off it or the
hook sites grew beyond one ``is None`` branch.  An attached observer runs
on the scalar engine, so the JSONL writer's cost is measured against a
bare scalar ``Simulation`` run.

Timing protocol: best-of-N wall clock per variant (default 5 repeats,
``REPRO_OBS_REPEATS``), interleaved so ambient load hits all variants
alike.  Best-of is the right statistic for an overhead *bound*: it strips
scheduler noise, which only ever inflates a measurement.  The default
trace (``REPRO_OBS_JOBS``, 32000 jobs) keeps each bare fast-lane run at
about 110 ms on a 2-vCPU host, so a few milliseconds of noise stay well
inside the 5% tolerance.

Run via ``make obs-bench`` (plain pytest: these tests assert a ratio, so
they run with or without ``--benchmark-only``'s machinery).
"""

import io
import os
import time

from repro.cluster import paper_cluster
from repro.core import SuccessiveApproximation
from repro.obs import JsonlTraceObserver, NullObserver
from repro.sim import simulate
from repro.sim.engine import Simulation
from repro.workload import drop_full_machine_jobs
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace

N_JOBS = int(os.environ.get("REPRO_OBS_JOBS", "32000"))
REPEATS = int(os.environ.get("REPRO_OBS_REPEATS", "5"))
TOLERANCE = float(os.environ.get("REPRO_OBS_TOLERANCE", "0.05"))


def _workload():
    return drop_full_machine_jobs(
        generate_trace(SyntheticTraceConfig.lanl_cm5(N_JOBS), rng=0)
    )


def _time_once(workload, observer) -> float:
    t0 = time.perf_counter()
    simulate(
        workload,
        paper_cluster(24.0),
        estimator=SuccessiveApproximation(),
        seed=0,
        observer=observer,
    )
    return time.perf_counter() - t0


def _time_scalar(workload) -> float:
    t0 = time.perf_counter()
    Simulation(
        workload, paper_cluster(24.0), SuccessiveApproximation(), seed=0
    ).run()
    return time.perf_counter() - t0


def test_null_observer_overhead_bounded(save_artifact):
    workload = _workload()
    variants = {
        "bare": lambda: _time_once(workload, None),
        "null": lambda: _time_once(workload, NullObserver()),
        "scalar": lambda: _time_scalar(workload),
        "jsonl": lambda: _time_once(
            workload, JsonlTraceObserver(io.StringIO())
        ),
    }
    best = {name: float("inf") for name in variants}
    for _ in range(REPEATS):  # interleaved: ambient load hits all alike
        for name, timed in variants.items():
            best[name] = min(best[name], timed())

    null_ratio = best["null"] / best["bare"]
    jsonl_ratio = best["jsonl"] / best["scalar"]
    report = "\n".join(
        [
            f"observer overhead ({N_JOBS} jobs, best of {REPEATS}):",
            f"  bare run  : {best['bare']:.3f}s",
            f"  null obs  : {best['null']:.3f}s  ({null_ratio - 1:+.1%})",
            f"  scalar run: {best['scalar']:.3f}s",
            f"  jsonl obs : {best['jsonl']:.3f}s  "
            f"({jsonl_ratio - 1:+.1%} over the scalar run)",
        ]
    )
    print("\n" + report)
    save_artifact("obs_overhead", report)

    assert null_ratio <= 1.0 + TOLERANCE, (
        f"null observer costs {null_ratio - 1:.1%} over the bare run "
        f"(tolerance {TOLERANCE:.0%}) — hook sites are no longer free"
    )
    # The JSONL writer does real work; no hard bar, but it must finish and
    # stay within an order of magnitude of the bare run on its engine.
    assert jsonl_ratio < 10.0
