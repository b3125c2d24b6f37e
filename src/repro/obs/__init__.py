"""Observability for the simulator and sweep executor.

The engine (:class:`repro.sim.engine.Simulation`) accepts an optional
:class:`SimObserver`; when attached it is notified of every job transition
(enqueued / started / completed / failed / killed), every node fault and
repair, and every scheduling pass.  With no observer the engine's behaviour
and output are bit-for-bit identical to the bare event loop.

Built-in observers:

* :class:`CounterObserver` — structured counters and high-water gauges,
* :class:`JsonlTraceObserver` — a versioned JSONL event trace
  (read back with :func:`read_trace`; per-group convergence via
  :func:`group_trajectories`),
* :class:`EstimatorTelemetryObserver` — per-similarity-group estimate
  trajectories and backoff events, sampled from
  :meth:`~repro.core.base.Estimator.telemetry`,
* :class:`TimelineSampler` — the queue/utilization time series, set on
  the result as ``result.timeline`` for
  :func:`repro.sim.analysis.queue_stats`,
* :class:`RecordingObserver` — full hook transcript (tests, debugging),
* :class:`CompositeObserver` — fan out to several of the above.

:func:`prometheus_text` renders a finished run in the Prometheus text
exposition format; the ``repro trace`` / ``repro stats`` CLI wraps all of
this for the shell.

Exports load on first access (:func:`repro._lazy.lazy_exports`): ``from
repro.obs import CounterObserver`` imports :mod:`repro.obs.counters` and
what it needs, not the whole package. Library code imports a name from the
submodule that defines it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "base": (
        "CompositeObserver",
        "NullObserver",
        "RecordingObserver",
        "RunMeta",
        "SimObserver",
    ),
    "counters": ("CounterObserver",),
    "export": ("exposition", "prometheus_text"),
    "sampler": ("TimelineSampler",),
    "telemetry": ("BackoffEvent", "EstimatorTelemetryObserver", "GroupTelemetry"),
    "trace": (
        "JsonlTraceObserver",
        "TRACE_SCHEMA_VERSION",
        "group_trajectories",
        "read_trace",
        "trace_counts",
        "trace_line",
    ),
})

__all__ = [
    "BackoffEvent",
    "CompositeObserver",
    "CounterObserver",
    "EstimatorTelemetryObserver",
    "GroupTelemetry",
    "JsonlTraceObserver",
    "NullObserver",
    "RecordingObserver",
    "RunMeta",
    "SimObserver",
    "TRACE_SCHEMA_VERSION",
    "TimelineSampler",
    "exposition",
    "group_trajectories",
    "prometheus_text",
    "read_trace",
    "trace_counts",
    "trace_line",
]
