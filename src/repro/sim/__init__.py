"""Trace-driven discrete-event simulator of the paper's scheduling model.

§3.1 defines the simulation rules this package implements:

* jobs arrive at their trace submission times and wait in a queue,
* FCFS scheduling, no preemption (SJF and EASY backfilling are provided as
  the extensions the paper defers to future work),
* the matcher allocates ``procs`` nodes each with capacity >= the (possibly
  estimated) per-node requirement,
* a job granted insufficient resources "fails after a random time, drawn
  uniformly between zero and the execution run-time of that job" and
  "returns to the head of the queue",
* after every execution attempt the estimator receives feedback.

The package has two engines: the scalar reference engine
(:class:`repro.sim.engine.Simulation`, one run) and the fast lane
(:mod:`repro.sim.batch`), which :func:`repro.sim.engine.simulate` picks for
every eligible configuration and which matches the reference bit for bit.
Both model a node by its memory capacity alone; §2.3's multi-resource
generalization lives as an estimator only (:mod:`repro.core.multi_resource`).
Metrics are in :mod:`repro.sim.metrics`.

Exports load on first access (:func:`repro._lazy.lazy_exports`): ``from
repro.sim import utilization`` imports :mod:`repro.sim.metrics` and what it
needs, not the whole package. Library code imports a name from the submodule
that defines it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "analysis": (
        "CapacityDecomposition",
        "QueueStats",
        "capacity_decomposition",
        "estimation_unlock_report",
        "queue_stats",
        "tier_utilization",
    ),
    "batch": ("BatchConfig", "simulate_batch"),
    "engine": ("Simulation", "simulate"),
    "events": ("EventKind", "EventQueue"),
    "failure": ("ExecutionOutcome", "FailureModel"),
    "faults": ("FaultConfig", "FaultStats", "NodeFaultInjector", "fault_rng"),
    "metrics": (
        "SaturationPoint",
        "bounded_slowdown",
        "capacity_node_seconds",
        "mean_slowdown",
        "mean_wait_time",
        "saturation_point",
        "saturation_utilization",
        "slowdown_percentile",
        "utilization",
        "wait_time_percentile",
        "wasted_fraction",
    ),
    "policies": ("EasyBackfilling", "Fcfs", "Policy", "ShortestJobFirst"),
    "records": ("AttemptRecord", "JobSummary", "SimResult", "TimelineSample"),
})

__all__ = [
    "AttemptRecord",
    "CapacityDecomposition",
    "EasyBackfilling",
    "EventKind",
    "EventQueue",
    "ExecutionOutcome",
    "FailureModel",
    "FaultConfig",
    "FaultStats",
    "Fcfs",
    "JobSummary",
    "NodeFaultInjector",
    "Policy",
    "QueueStats",
    "SaturationPoint",
    "ShortestJobFirst",
    "SimResult",
    "Simulation",
    "TimelineSample",
    "bounded_slowdown",
    "capacity_decomposition",
    "capacity_node_seconds",
    "estimation_unlock_report",
    "fault_rng",
    "mean_slowdown",
    "mean_wait_time",
    "queue_stats",
    "saturation_point",
    "saturation_utilization",
    "simulate",
    "slowdown_percentile",
    "tier_utilization",
    "utilization",
    "wait_time_percentile",
    "wasted_fraction",
]
