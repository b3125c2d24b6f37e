"""Span timers around the public functions at each layer boundary of repro.

The traced benchmark run installs these wrappers from benchmark code; the
untraced run never imports this module, so its numbers carry no tracing
cost.  Each wrapped call records one span::

    {name, span_id, parent_id, op_id, pid, start_ns, end_ns[, attrs]}

``attrs`` holds counts taken at the same boundary (jobs simulated, bytes
published, cache hits), computed after the span has closed.  Spans stay in
memory.  Wrappers are installed before any process pool forks, so pool
workers inherit them, together with the parent's open span stack: a
worker's spans name the parent's ``run_sweep`` span as their parent and
carry its op id.  Pool workers have no reliable exit hook, so each worker
appends its own spans to ``<out>/spans-<pid>.jsonl`` after every execution
unit.

A name is patched where it is looked up: ``run_sweep`` in both
``repro.experiments.parallel`` and ``repro.service.registry``,
``simulate_batch`` in both ``repro.sim.batch`` and
``repro.experiments.parallel``, and so on.  No span sits inside a per-event
loop: the finest boundary is one simulation run or one lane.

Self time is a span's duration minus the durations of its children in the
same process; a worker's spans are never subtracted from the parent's
``run_sweep`` span, which waits on them concurrently.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[tuple] = []

    # ------------------------------------------------------------- spans
    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op_id: Optional[str] = None) -> Iterator[dict]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        pid = os.getpid()
        record = {
            "name": name,
            "span_id": f"{pid}:{next(self._ids)}",
            "parent_id": parent["span_id"] if parent else None,
            "op_id": op_id if op_id is not None else (parent["op_id"] if parent else None),
            "pid": pid,
            "start_ns": 0,
            "end_ns": 0,
        }
        stack.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(record)

    def _outermost_local(self) -> bool:
        """No span of this process is open on this thread's stack."""
        pid = os.getpid()
        return not any(r["pid"] == pid for r in self._stack())

    def flush_worker(self) -> None:
        """Append this worker's spans to its file; drop the ones inherited
        from the parent at fork (they are the parent's to report)."""
        pid = os.getpid()
        mine = [r for r in self.spans if r["pid"] == pid]
        self.spans = []
        with open(self.out_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(r) + "\n" for r in mine))

    def collect(self) -> List[dict]:
        """This process's spans plus every span a pool worker wrote."""
        spans = [r for r in self.spans if r["pid"] == self.pid]
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans

    # ---------------------------------------------------------- wrappers
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Optional[Callable[[tuple, object], dict]] = None,
        unit: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, result)`` adds counts to the span.  ``unit`` marks an
        executor scheduling unit: its span records the materialization-cache
        counters before and after, and a pool worker flushes its spans when
        its outermost unit returns.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        if unit:
            from repro.experiments.specs import materialization_cache_info

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = materialization_cache_info() if unit else None
            flush = unit and os.getpid() != tracer.pid and tracer._outermost_local()
            try:
                with tracer.span(name) as record:
                    result = original(*args, **kwargs)
                extra = attrs(args, result) if attrs is not None else {}
                if unit:
                    after = materialization_cache_info()
                    for key in ("base_workload_hits", "base_workload_misses"):
                        extra[key + "_before"] = before[key]
                        extra[key + "_after"] = after[key]
                if extra:
                    record["attrs"] = extra
                return result
            finally:
                if flush:
                    tracer.flush_worker()

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        for owner, attr, name, attrs, unit in _boundaries():
            self.wrap(owner, attr, name, attrs, unit)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------ boundaries
def _report_attrs(args: tuple, report) -> dict:
    profile = report.profile()
    return {
        "spinup_s": report.pool_spinup_time,
        "workers": report.max_workers,
        "executed": profile.n_executed,
        "width_sum": profile.mean_batch_width * profile.n_executed,
        "retries": report.n_retries,
        "pool_rebuilds": report.n_pool_rebuilds,
    }


def _batch_attrs(args: tuple, results) -> dict:
    from repro.sim.batch import fast_lane_eligible

    configs = args[1]
    return {
        "lanes": len(configs),
        "fast_lanes": sum(1 for config in configs if fast_lane_eligible(config)),
        "jobs": sum(len(result.summaries) for result in results),
    }


def _events_attrs(args: tuple, result) -> dict:
    return {"events": len(result.summaries) + result.n_attempts}


def _publish_attrs(args: tuple, handle) -> dict:
    return {"bytes": args[2].as_columns().nbytes}


def _boundaries() -> list:
    """(owner, attribute, span name, attrs function, unit) per boundary."""
    import repro.workload as workload
    from repro.experiments import cache, parallel, shm, specs
    from repro.service import app, registry
    from repro.sim import batch, engine

    return [
        (workload, "lanl_cm5_like", "workload.generate", None, False),
        (specs, "lanl_cm5_like", "workload.generate", None, False),
        (workload, "drop_full_machine_jobs", "workload.drop_full", None, False),
        (specs, "drop_full_machine_jobs", "workload.drop_full", None, False),
        (workload, "scale_load", "workload.scale_load", None, False),
        (specs, "scale_load", "workload.scale_load", None, False),
        (specs.WorkloadSpec, "materialize", "specs.materialize", None, False),
        (specs.ClusterSpec, "materialize", "specs.materialize", None, False),
        (specs.EstimatorSpec, "materialize", "specs.materialize", None, False),
        (parallel, "materialize_base_workload", "specs.materialize", None, False),
        (shm.SharedBaseStore, "publish", "shm.publish", _publish_attrs, False),
        (shm.ColumnsHandle, "attach", "shm.attach", None, False),
        (parallel, "run_sweep", "parallel.run_sweep", _report_attrs, False),
        (registry, "run_sweep", "parallel.run_sweep", _report_attrs, False),
        (parallel, "execute_batch", "parallel.unit", None, True),
        (parallel, "execute_spec", "parallel.unit", None, True),
        (parallel, "simulate_batch", "batch.simulate_batch", _batch_attrs, False),
        (batch, "simulate_batch", "batch.simulate_batch", _batch_attrs, False),
        (batch, "seed_group_arrays", "batch.seed", None, False),
        (batch, "seed_arrival_caches", "batch.seed", None, False),
        # The engine lane replays the scalar engine's event loop for configs
        # the fast lane does not cover; its loop is the engine's run time.
        (batch._EngineLane, "run", "engine.run", None, False),
        (engine.Simulation, "run", "engine.run", _events_attrs, False),
        (engine.Simulation, "end_stream", "engine.result_build", _events_attrs, False),
        (cache.SweepCache, "get", "cache.get", lambda a, r: {"hit": r is not None}, False),
        (cache.SweepCache, "put", "cache.put", None, False),
        (specs.RunSpec, "cache_key", "cache.key", None, False),
        (app, "parse_submission", "service.parse", None, False),
        (registry, "sweep_key", "service.sweep_key", None, False),
    ]


# --------------------------------------------------------------- rollup
def self_times(spans: Sequence[dict]) -> Dict[str, int]:
    """span_id -> self time (ns): duration minus same-process children."""
    by_id = {s["span_id"]: s for s in spans}
    covered: Dict[str, int] = defaultdict(int)
    for s in spans:
        parent = by_id.get(s["parent_id"])
        if parent is not None and parent["pid"] == s["pid"]:
            covered[parent["span_id"]] += s["end_ns"] - s["start_ns"]
    return {
        s["span_id"]: s["end_ns"] - s["start_ns"] - covered[s["span_id"]]
        for s in spans
    }


def roots(spans: Sequence[dict]) -> List[dict]:
    """Spans with no parent in their own process."""
    by_id = {s["span_id"]: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s["parent_id"])
        if parent is None or parent["pid"] != s["pid"]:
            out.append(s)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    spans: Sequence[dict],
    window: Sequence[int],
    n_ops: int,
    status_docs: Iterable[dict] = (),
) -> Dict[str, float]:
    """Roll spans up into the per-layer metrics of ``BENCHMARK.json``.

    Time metrics ending in ``_s`` are seconds per timed op (one sweep, one
    ``simulate()`` call, or one round of service submissions), except
    ``workload.generate_s``, which is seconds per generated trace over the
    whole run (set-up included).  Metrics ending in ``_ms`` are the mean per
    call.  Only spans inside the timed ``window`` (ns) count, except for
    generation.
    """
    selfs = self_times(spans)
    t0, t1 = window
    timed = [s for s in spans if s["start_ns"] >= t0 and s["end_ns"] <= t1]
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for s in timed:
        by_name[s["name"]].append(s)

    def self_s(*names: str) -> float:
        return sum(selfs[s["span_id"]] for n in names for s in by_name[n]) / 1e9

    def per_op(*names: str) -> float:
        return _ratio(self_s(*names), n_ops)

    def mean_ms(name: str) -> float:
        return _ratio(self_s(name) * 1e3, len(by_name[name]))

    def attr_sum(name: str, key: str) -> float:
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name[name])

    m: Dict[str, float] = {}
    generated = [s for s in spans if s["name"] == "workload.generate"]
    m["workload.generate_s"] = _ratio(
        sum(selfs[s["span_id"]] for s in spans
            if s["name"] in ("workload.generate", "workload.drop_full")) / 1e9,
        len(generated),
    )
    m["workload.scale_load_s"] = per_op("workload.scale_load")
    m["specs.materialize_s"] = per_op("specs.materialize")

    # Base-workload memo hits over the units' own processes: counters only
    # grow between a worker's init and exit, so max(after) - min(before)
    # per process is what its units saw, even with units on two threads.
    hits = misses = 0
    units_by_pid: Dict[int, List[dict]] = defaultdict(list)
    for s in by_name["parallel.unit"]:
        units_by_pid[s["pid"]].append(s.get("attrs", {}))
    for attrs in units_by_pid.values():
        hits += max(a["base_workload_hits_after"] for a in attrs) - min(
            a["base_workload_hits_before"] for a in attrs)
        misses += max(a["base_workload_misses_after"] for a in attrs) - min(
            a["base_workload_misses_before"] for a in attrs)
    m["specs.base_hit_frac"] = _ratio(hits, hits + misses)

    m["shm.publish_s"] = per_op("shm.publish")
    m["shm.attach_s"] = per_op("shm.attach")
    m["shm.bytes"] = _ratio(attr_sum("shm.publish", "bytes"), n_ops)

    sweeps = by_name["parallel.run_sweep"]
    units_of: Dict[str, List[dict]] = defaultdict(list)
    for s in by_name["parallel.unit"]:
        units_of[s["parent_id"]].append(s)
    spinup = overhead = busy = capacity = 0.0
    for s in sweeps:
        attrs = s.get("attrs", {})
        workers = max(1, attrs.get("workers", 1))
        wall = (s["end_ns"] - s["start_ns"]) / 1e9 - attrs.get("spinup_s", 0.0)
        unit_s = sum(u["end_ns"] - u["start_ns"] for u in units_of[s["span_id"]]) / 1e9
        spinup += attrs.get("spinup_s", 0.0)
        overhead += wall - unit_s / workers
        busy += unit_s
        capacity += workers * wall
    m["parallel.spinup_s"] = _ratio(spinup, n_ops)
    m["parallel.unit_s"] = per_op("parallel.unit")
    m["parallel.overhead_s"] = _ratio(overhead, n_ops)
    m["parallel.worker_busy_frac"] = _ratio(busy, capacity)
    m["parallel.batch_width_mean"] = _ratio(
        attr_sum("parallel.run_sweep", "width_sum"),
        attr_sum("parallel.run_sweep", "executed"),
    )
    m["parallel.retries"] = attr_sum("parallel.run_sweep", "retries")
    m["parallel.pool_rebuilds"] = attr_sum("parallel.run_sweep", "pool_rebuilds")

    batches = by_name["batch.simulate_batch"]
    m["batch.simulate_batch_s"] = per_op("batch.simulate_batch")
    m["batch.seed_s"] = per_op("batch.seed")
    m["batch.lane_jobs_per_s"] = _ratio(
        attr_sum("batch.simulate_batch", "jobs"),
        sum(s["end_ns"] - s["start_ns"] for s in batches) / 1e9,
    )
    m["batch.fast_lane_frac"] = _ratio(
        attr_sum("batch.simulate_batch", "fast_lanes"),
        attr_sum("batch.simulate_batch", "lanes"),
    )

    m["engine.run_s"] = per_op("engine.run")
    m["engine.events_per_s"] = _ratio(
        attr_sum("engine.run", "events") + attr_sum("engine.result_build", "events"),
        self_s("engine.run"),
    )
    m["engine.result_build_s"] = per_op("engine.result_build")

    m["cache.get_ms"] = mean_ms("cache.get")
    m["cache.put_ms"] = mean_ms("cache.put")
    m["cache.key_ms"] = mean_ms("cache.key")
    m["cache.hit_frac"] = _ratio(attr_sum("cache.get", "hit"), len(by_name["cache.get"]))

    docs = list(status_docs)
    m["service.post_ms"] = mean_ms("service.post")
    m["service.queue_ms"] = _ratio(
        sum(d["started_at"] - d["created_at"] for d in docs) * 1e3, len(docs))
    m["service.exec_ms"] = _ratio(
        sum(d["finished_at"] - d["started_at"] for d in docs) * 1e3, len(docs))
    m["service.parse_ms"] = mean_ms("service.parse")
    m["service.sweep_key_ms"] = mean_ms("service.sweep_key")
    return m
