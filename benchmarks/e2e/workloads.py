"""The four benchmark workloads, driven only through public entry points.

Each workload builds its inputs from the seed alone, runs one untimed
warm-up iteration, then times a fixed number of iterations and checks every
output it times.  Why each workload exists is in ``README.md`` next to this
file.

A workload's ``measure(seconds, span)`` returns a :class:`Measurement`;
``span(name, op_id=None)`` is a context manager that opens a tracing span
(a no-op in the untraced run).  ``seconds`` sets the iteration count, not a
deadline: see :func:`op_count`.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hostspeed import HostSpeed

#: Fewest timed iterations a run makes, so every run has quartiles.
MIN_ITERATIONS = 3


def op_count(seconds: float, op_seconds: float) -> int:
    """Timed iterations of a run asked to last ``seconds``: fixed by the
    iteration's duration on the 2-CPU reference host (``op_seconds``), not
    by the clock, so two commits given the same ``seconds`` do the same
    work however fast each one is."""
    return max(MIN_ITERATIONS, round(seconds / op_seconds))


def no_span(name: str, op_id: Optional[str] = None):
    return nullcontext()


@dataclass
class Measurement:
    """What one workload run measured and checked."""

    #: Wall seconds of each timed op: a sweep, a simulate() call, or one
    #: lock-step round of service submissions.
    op_walls: List[float] = field(default_factory=list)
    #: Jobs simulated or answered in one timed op.
    jobs_per_op: int = 0
    #: Submit-to-result seconds of each timed cold (simulated) and warm
    #: (cache-served) service submission.
    cold_walls: List[float] = field(default_factory=list)
    warm_walls: List[float] = field(default_factory=list)
    #: Wall seconds of the whole timed phase.
    timed_s: float = 0.0
    #: perf_counter_ns at the start and end of the timed phase.
    window: Tuple[int, int] = (0, 0)
    #: Timed iterations (sweeps, calls, submissions).
    n_iterations: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    peak_worker_rss_kb: int = 0
    #: SHA-256 over the warm-up iteration's outputs.
    digest: str = ""
    #: Ops the digest covers (all fail if it does not match the record).
    digest_ops: int = 0
    #: Timestamps from the status documents of the timed service submissions.
    status_docs: List[dict] = field(default_factory=list)
    #: Reference-kernel timings taken between the timed ops.
    host: HostSpeed = field(default_factory=HostSpeed)

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)


def _point_json(point: dict) -> str:
    return json.dumps(point, sort_keys=True)


def _digest(items: Sequence[str]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()


def _timed_loop(
    n_ops: int,
    span,
    run_op: Callable[[int], object],
    verify: Callable[[int, object], None],
    m: Measurement,
) -> None:
    """Time ``run_op(i)`` for ``i < n_ops``; ``verify`` checks each output
    and the host's speed is sampled between ops, both untimed."""
    with m.host:
        m.host.sample(force=True)
        start = time.perf_counter()
        m.window = (time.perf_counter_ns(), 0)
        for i in range(n_ops):
            with span("bench.op", op_id=str(i)):
                t0 = time.perf_counter()
                output = run_op(i)
                m.op_walls.append(time.perf_counter() - t0)
            verify(i, output)
            m.host.sample()
        m.timed_s = time.perf_counter() - start
        m.window = (m.window[0], time.perf_counter_ns())
    m.n_iterations = n_ops


# ------------------------------------------------------------------ sweeps
class _Sweep:
    """A spec grid run through ``run_sweep`` on a 2-worker pool."""

    name = ""
    #: Seconds one iteration takes on the reference host (see op_count).
    op_seconds: float

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.specs = self.build_specs()

    def build_specs(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        # Generate the shared base trace into this process's memo, so every
        # sweep publishes it to its workers without re-generating it.
        base = replace(self.specs[0].workload, load=None).materialize()
        self.n_jobs = len(base)

    def close(self) -> None:
        pass

    def _sweep(self):
        from repro.experiments import parallel

        return parallel.run_sweep(
            self.specs, max_workers=2, oversubscribe=True, cache=None
        )

    def _points(self, report) -> List[Optional[str]]:
        return [
            _point_json(asdict(o.point)) if o.ok else None for o in report.outcomes
        ]

    def measure(self, seconds: float, span=no_span) -> Measurement:
        m = Measurement()
        with span("bench.setup", op_id="setup"):
            self.setup()
        with span("bench.warmup", op_id="warmup"):
            warm = self._sweep()
        reference = self._points(warm)
        m.digest = _digest([p or "error" for p in reference])
        m.digest_ops = len(self.specs)
        m.jobs_per_op = self.n_jobs * len(self.specs)
        m.attempted += len(self.specs)
        for spec, outcome in zip(self.specs, warm.outcomes):
            if not outcome.ok:
                m.fail(1, f"warm-up sweep spec {spec.label}: {outcome.error}")

        def verify(i: int, report) -> None:
            m.attempted += len(self.specs)
            m.peak_worker_rss_kb = max(m.peak_worker_rss_kb, report.peak_worker_rss_kb)
            for j, (point, ref) in enumerate(zip(self._points(report), reference)):
                if point is None:
                    m.fail(1, f"sweep {i} spec {self.specs[j].label}: "
                              f"{report.outcomes[j].error}")
                elif point != ref:
                    m.fail(1, f"sweep {i} spec {self.specs[j].label}: "
                              "point differs from the first sweep")

        _timed_loop(op_count(seconds, self.op_seconds), span,
                    lambda i: self._sweep(), verify, m)
        self._cross_check(reference, m, span)
        return m

    def _cross_check(self, reference: List[Optional[str]], m: Measurement, span) -> None:
        """Re-run two seed-sampled specs on the unbatched scalar path."""
        from repro.experiments.parallel import simulate_spec

        with span("bench.check", op_id="check"):
            for j in random.Random(self.seed).sample(range(len(self.specs)), 2):
                m.attempted += 1
                point = _point_json(asdict(simulate_spec(self.specs[j])))
                if point != reference[j]:
                    m.fail(1, f"spec {self.specs[j].label}: sweep point differs "
                              "from the scalar simulate_spec point")


class Fig5Sweep(_Sweep):
    """The Figure 5 grid: {none, successive} x 10 loads on one trace."""

    name = "fig5-sweep"
    op_seconds = 1.3

    def build_specs(self) -> list:
        from repro.experiments.config import ExperimentConfig
        from sweep_bench import fig5_specs

        cfg = ExperimentConfig(seed=self.seed)
        if self.smoke:
            return fig5_specs(cfg, 1500, loads=(0.8, 1.0))
        return fig5_specs(cfg, cfg.n_jobs)


#: Estimators outside the fast lane, each run at every engine-grid load.
ENGINE_ESTIMATORS = ("last-instance", "rl", "regression", "line-search", "online", "hybrid")
ENGINE_LOADS = (0.6, 0.9)
#: Node MTBF of the faulted successive-approximation specs: 90 days.  At
#: 30 days a long wide job can be killed thousands of times on some seeds
#: (seed 36: 15.6k attempts for 5k jobs, ten times the usual work), which
#: made one spec, and so the sweep, cost a seed-dependent multiple.
ENGINE_MTBF_S = 90 * 86400.0


class EngineGrid(_Sweep):
    """Specs no fast lane covers, on one trace: the scalar engine's work."""

    name = "engine-grid"
    op_seconds = 1.35

    def build_specs(self) -> list:
        from repro.experiments.specs import EstimatorSpec, FaultSpec, RunSpec, WorkloadSpec

        # 5000 jobs keep a sweep near 1.35 s, so a 12 s run times nine.
        n_jobs = 800 if self.smoke else 5000
        loads = [WorkloadSpec(n_jobs=n_jobs, seed=self.seed, load=load) for load in ENGINE_LOADS]
        specs = [
            RunSpec(workload=w, estimator=EstimatorSpec(name=name),
                    seed=self.seed, label=f"{name}@{w.load:g}")
            for name in ENGINE_ESTIMATORS
            for w in loads
        ]
        specs += [
            RunSpec(
                workload=w,
                estimator=EstimatorSpec.make("successive", alpha=2.0, beta=0.0),
                faults=FaultSpec(node_mtbf=ENGINE_MTBF_S, spurious=0.01),
                seed=self.seed,
                label=f"successive+faults@{w.load:g}",
            )
            for w in loads
        ]
        return specs


# -------------------------------------------------------------- single run
SINGLE_LOADS = (0.8, 1.0)


class SingleRun:
    """``repro.sim.engine.simulate`` in this process, Figure 5's config."""

    name = "single-run"
    op_seconds = 0.55

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.n_jobs = 1500 if smoke else 20_000

    def setup(self) -> None:
        import numpy as np
        import repro.workload as workload
        from repro.cluster import paper_cluster

        base = workload.drop_full_machine_jobs(
            workload.lanl_cm5_like(n_jobs=self.n_jobs, seed=self.seed)
        )
        self.workloads = {load: workload.scale_load(base, load) for load in SINGLE_LOADS}
        self.cluster = paper_cluster(24.0)
        cols = base.as_columns()
        # §3.1: every job eventually runs once to completion, so useful
        # node-seconds are the trace's total run_time x procs.
        self.useful = float(np.sum(cols.run_time * cols.procs))

    def close(self) -> None:
        pass

    def _simulate(self, i: int):
        from repro.core import SuccessiveApproximation
        from repro.sim import engine

        return engine.simulate(
            self.workloads[SINGLE_LOADS[i % 2]],
            self.cluster,
            estimator=SuccessiveApproximation(alpha=2.0, beta=0.0),
            seed=self.seed,
        )

    @staticmethod
    def _outline(result) -> str:
        return json.dumps([
            result.n_attempts, result.n_resource_failures, result.t_last_end,
            result.useful_node_seconds, result.wasted_node_seconds,
            result.n_reduced_submissions,
        ])

    def _invariant_problem(self, i: int, result) -> str:
        """What breaks the paper's §3.1 model invariants ('' if nothing)."""
        n = len(self.workloads[SINGLE_LOADS[i % 2]])
        if result.n_jobs != n or result.n_completed != n or result.rejected_jobs:
            return (f"{result.n_completed}/{n} jobs completed, "
                    f"{len(result.rejected_jobs)} rejected")
        # The engine sums in completion order, so the last bits differ.
        if abs(result.useful_node_seconds - self.useful) > 1e-9 * self.useful:
            return f"useful node-seconds {result.useful_node_seconds!r} != {self.useful!r}"
        return ""

    def measure(self, seconds: float, span=no_span) -> Measurement:
        m = Measurement()
        with span("bench.setup", op_id="setup"):
            self.setup()
        m.jobs_per_op = len(self.workloads[SINGLE_LOADS[0]])
        with span("bench.warmup", op_id="warmup"):
            warm = [self._simulate(k) for k in range(len(SINGLE_LOADS))]
        m.digest = _digest([r.fingerprint() for r in warm])
        m.digest_ops = len(warm)
        m.attempted += len(warm)
        for k, result in enumerate(warm):
            problem = self._invariant_problem(k, result)
            if problem:
                m.fail(1, f"warm-up call {k}: {problem}")
        outlines = [self._outline(r) for r in warm]
        del warm

        def verify(i: int, result) -> None:
            m.attempted += 1
            problem = self._invariant_problem(i, result)
            if not problem and self._outline(result) != outlines[i % 2]:
                problem = "result differs from the first call at its load"
            if problem:
                m.fail(1, f"call {i}: {problem}")

        _timed_loop(op_count(seconds, self.op_seconds), span, self._simulate, verify, m)
        return m


# ----------------------------------------------------------------- service
SERVICE_ESTIMATORS = (
    {"name": "none"},
    {"name": "successive", "kwargs": {"alpha": 2.0, "beta": 0.0}},
)
SERVICE_LOADS = (0.6, 0.9)
SPECS_PER_SUBMISSION = len(SERVICE_ESTIMATORS) * len(SERVICE_LOADS)
#: Status-document fields the traced run's service metrics read; only these
#: are kept, so the benchmark's own memory does not grow with the results.
STATUS_TIMES = ("created_at", "started_at", "finished_at")


def http_request(address, method: str, path: str, body=None, timeout: float = 60.0):
    """One request on a fresh connection; returns (status, parsed JSON)."""
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class _Client:
    """One closed-loop client's state: the specs it has completed, their
    cold points, and every spec sequence it has submitted."""

    def __init__(self, service: "ServiceMixed", c: int) -> None:
        self.service = service
        self.c = c
        self.rng = random.Random(f"{service.seed}/{c}")
        self.completed: Dict[str, dict] = {}  # spec label -> spec
        self.cold_points: Dict[str, str] = {}  # spec label -> point JSON
        self.submitted = set()
        self.n_traces = 0

    def next_specs(self, i: int) -> Tuple[bool, List[dict]]:
        """(warm, specs) of submission ``i``.  A warm one is a never-submitted
        sequence of specs this client completed (a new run, served from the
        cache); a cold one gets a fresh trace."""
        labels = sorted(self.completed)
        # The two clients alternate out of step: one cold, one warm a round.
        warm = (i + self.c) % 2 == 1 and len(labels) >= SPECS_PER_SUBMISSION
        if warm:
            if len(self.submitted) >= math.perm(len(labels), SPECS_PER_SUBMISSION):
                raise RuntimeError(f"client {self.c} has no unsubmitted spec sequence left")
            picked = tuple(self.rng.sample(labels, SPECS_PER_SUBMISSION))
            while picked in self.submitted:
                picked = tuple(self.rng.sample(labels, SPECS_PER_SUBMISSION))
            specs = [self.completed[label] for label in picked]
        else:
            service = self.service
            trace_seed = (service.seed * service.n_clients + self.c) * 100_000 + self.n_traces
            self.n_traces += 1
            specs = service.cold_specs(trace_seed)
        self.submitted.add(tuple(s["label"] for s in specs))
        return warm, specs

    def check(self, doc: Optional[dict], error: str, specs: List[dict], warm: bool):
        """The submission's point JSONs, or a message saying what is wrong."""
        if doc is None:
            return error
        result = doc["result"]
        if result["n_errors"] != 0:
            return f"{result['n_errors']} point errors"
        if doc["n_specs"] != len(specs) or len(result["outcomes"]) != len(specs):
            return f"{len(result['outcomes'])} outcomes for {len(specs)} specs"
        points = [_point_json(o["point"]) for o in result["outcomes"]]
        if warm:
            if doc["n_cache_hits"] != doc["n_specs"]:
                return f"warm run hit the cache {doc['n_cache_hits']}/{doc['n_specs']} times"
            for spec, point in zip(specs, points):
                if point != self.cold_points[spec["label"]]:
                    return f"cached point of {spec['label']} differs from its cold point"
        else:
            for spec, point in zip(specs, points):
                self.completed[spec["label"]] = spec
                self.cold_points[spec["label"]] = point
        return points

    def submit(self, i: int, timed: bool, span, m: Measurement, lock: threading.Lock):
        """Run submission ``i``; returns its points, or None if it failed."""
        warm, specs = self.next_specs(i)
        with span("bench.submission", op_id=f"{self.c}/{i}" if timed else "warmup"):
            wall, doc, error = self.service.submit(specs, span)
        points = self.check(doc, error, specs, warm)
        with lock:
            m.attempted += 1
            if timed:
                (m.warm_walls if warm else m.cold_walls).append(wall)
                if doc is not None:
                    m.status_docs.append({key: doc[key] for key in STATUS_TIMES})
            if isinstance(points, str):
                m.fail(1, f"client {self.c} submission {i}: {points}")
                return None
        return points

    def run(self, rounds: "_Rounds", span, m: Measurement, lock: threading.Lock,
            warmup_points: List[str]) -> None:
        """One submission per round until the rounds stop; a client that
        breaks reports it as a failure and releases the others."""
        i = 0
        try:
            while rounds.go:
                timed = i >= self.service.warmup_rounds
                points = self.submit(i, timed, span, m, lock)
                if not timed:
                    warmup_points.extend(points or ["error"])
                i += 1
                rounds.barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except Exception:
            with lock:
                m.attempted += 1
                m.fail(1, f"client {self.c} stopped: {traceback.format_exc()}")
            rounds.barrier.abort()


class _Rounds:
    """Lock-step rounds: every client submits once per round, and the last
    to finish closes the round.  A timed round is one op: its wall time,
    barrier to barrier, is what ``jobs_per_s`` divides by.  Rounds keep the
    mix of a round the same in every run; free-running clients drift in and
    out of phase, which moved service-mixed's median by up to 30% between
    runs of one seed."""

    def __init__(self, n_clients: int, warmup: int, n_timed: int, m: Measurement) -> None:
        self.warmup = warmup
        self.n_timed = n_timed
        self.m = m
        self.done = 0
        self.go = True
        self.start = self.last = 0.0
        self.barrier = threading.Barrier(n_clients, action=self._end_of_round)

    def _end_of_round(self) -> None:
        """Runs while every client waits: record the round, then sample the
        host's speed before the next round starts."""
        now = time.perf_counter()
        self.done += 1
        timed = self.done - self.warmup
        if timed == 0:
            self.m.host.sample(force=True)
            self.start = time.perf_counter()
            self.m.window = (time.perf_counter_ns(), 0)
        elif timed > 0:
            self.m.op_walls.append(now - self.last)
            if timed == self.n_timed:
                self.go = False
                self.m.timed_s = now - self.start
                self.m.window = (self.m.window[0], time.perf_counter_ns())
            self.m.host.sample()
        self.last = time.perf_counter()


class ServiceMixed:
    """2 closed-loop clients in lock-step rounds against an in-process
    ``ServiceThread``; in each round one client submits cold (a fresh trace,
    simulated and cached) and the other warm (a new sequence of specs it
    already completed), so every round serves a cache read beside a
    simulating sweep."""

    name = "service-mixed"
    n_clients = 2
    op_seconds = 0.065
    #: Untimed rounds: both clients cold, then one warm and one cold, so each
    #: client has completed specs to resubmit.
    warmup_rounds = 2

    def __init__(
        self,
        seed: int,
        smoke: bool = False,
        cache_dir: Optional[Path] = None,
        request_timeout: float = 60.0,
    ) -> None:
        self.seed = seed
        self.n_jobs = 300 if smoke else 2000
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.request_timeout = request_timeout
        self.server = None

    def setup(self) -> None:
        from repro.experiments.cache import SweepCache
        from repro.service.app import ServiceConfig, ServiceThread

        self.server = ServiceThread(ServiceConfig(
            port=0, sweep_workers=1, max_concurrent_sweeps=2,
            cache=SweepCache(self.cache_dir),
        )).start()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def cold_specs(self, trace_seed: int) -> List[dict]:
        return [
            {
                "workload": {"n_jobs": self.n_jobs, "seed": trace_seed, "load": load},
                "estimator": est,
                "seed": trace_seed,
                "label": f"{est['name']}@{load:g}/trace{trace_seed}",
            }
            for est in SERVICE_ESTIMATORS
            for load in SERVICE_LOADS
        ]

    def submit(self, specs: List[dict], span) -> Tuple[float, Optional[dict], str]:
        """POST then wait for the result: (seconds, result doc, error)."""
        address = self.server.address
        t0 = time.perf_counter()
        try:
            with span("service.post"):
                status, doc = http_request(
                    address, "POST", "/runs", {"specs": specs}, self.request_timeout)
            if status not in (200, 201):
                return time.perf_counter() - t0, None, f"POST returned {status}: {doc}"
            with span("service.result"):
                status, doc = http_request(
                    address, "GET", f"/runs/{doc['run_id']}/result?wait=1",
                    timeout=self.request_timeout)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if status != 200:
            return wall, None, f"result returned {status}"
        return wall, doc, ""

    def measure(self, seconds: float, span=no_span) -> Measurement:
        m = Measurement()
        with span("bench.setup", op_id="setup"):
            self.setup()
        m.jobs_per_op = self.n_clients * SPECS_PER_SUBMISSION * self.n_jobs
        lock = threading.Lock()
        rounds = _Rounds(self.n_clients, self.warmup_rounds,
                         op_count(seconds, self.op_seconds), m)
        clients = [_Client(self, c) for c in range(self.n_clients)]
        warmup_points: List[List[str]] = [[] for _ in clients]
        threads = [
            threading.Thread(target=client.run, name=f"bench-client-{client.c}",
                             args=(rounds, span, m, lock, warmup_points[client.c]))
            for client in clients
        ]
        with m.host:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if rounds.go and rounds.start:  # a client broke the rounds off
            m.timed_s = time.perf_counter() - rounds.start
            m.window = (m.window[0], time.perf_counter_ns())
        m.digest = _digest([p for points in warmup_points for p in points])
        m.digest_ops = self.warmup_rounds * self.n_clients
        m.n_iterations = len(m.op_walls)
        return m


WORKLOADS = {cls.name: cls for cls in (Fig5Sweep, EngineGrid, SingleRun, ServiceMixed)}
