"""Prometheus-style text export of run summaries.

Renders a :class:`~repro.sim.records.SimResult` (and, optionally, a
:class:`~repro.obs.counters.CounterObserver` snapshot) in the Prometheus
text exposition format — ``# HELP`` / ``# TYPE`` comments followed by
``metric{labels} value`` lines — so a run summary can be dropped into any
Prometheus-compatible scrape pipeline or diffed as plain text.

The format machinery is generic: :func:`exposition` renders any sequence
of metric families (name, help text, labelled samples) — the sweep
service's ``/metrics`` endpoint (:mod:`repro.service`) is built on it.
:func:`prometheus_text` remains the one-finished-run snapshot (everything
a gauge); there is no HTTP server in this module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.sim.records import SimResult

_PREFIX = "repro"

#: One metric family: (name, help text, samples); each sample is a
#: (labels, value) pair.  ``name`` is prefixed with ``repro_`` on render.
MetricFamily = Tuple[
    str, str, Sequence[Tuple[Mapping[str, str], Union[int, float]]]
]


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", " ")


# Backwards-compatible private alias (pre-service name).
_sanitize_label = escape_label_value


def format_metric_value(value: Union[int, float]) -> str:
    """Render a sample value (``NaN``/``+Inf``/``-Inf`` spelled Prometheus-style)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


_format_value = format_metric_value


def format_labels(labels: Mapping[str, object]) -> str:
    """``key="value"`` pairs joined for a sample line (no surrounding braces)."""
    return ",".join(
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in labels.items()
    )


def exposition(families: Sequence[MetricFamily], kind: str = "gauge") -> str:
    """Render metric families in the Prometheus text exposition format.

    Every family gets its ``# HELP``/``# TYPE`` header once, followed by one
    line per sample.  Families with no samples are omitted entirely (a
    header without samples is legal but noise).
    """
    lines: List[str] = []
    for name, help_text, samples in families:
        if not samples:
            continue
        full = f"{_PREFIX}_{name}"
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        for labels, value in samples:
            label_str = format_labels(labels)
            braces = f"{{{label_str}}}" if label_str else ""
            lines.append(f"{full}{braces} {format_metric_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def prometheus_text(
    result: SimResult,
    counters: Optional[Mapping[str, Union[int, float]]] = None,
    extra_labels: Optional[Mapping[str, str]] = None,
) -> str:
    """One run's summary in the Prometheus text exposition format.

    Every sample carries the run's identity as labels (workload, cluster,
    estimator, policy, plus ``extra_labels``).  ``counters`` — e.g.
    ``CounterObserver.snapshot()`` — is appended under
    ``repro_event_total{kind=...}`` / ``repro_gauge{name=...}``.
    """
    from repro.sim.metrics import utilization, wasted_fraction

    labels: Dict[str, str] = {
        "workload": result.workload_name,
        "cluster": result.cluster_name,
        "estimator": result.estimator_name,
        "policy": result.policy_name,
    }
    if extra_labels:
        labels.update(extra_labels)

    metrics: List[tuple] = [
        ("jobs_total", "Jobs in the workload", result.n_jobs),
        ("jobs_completed_total", "Jobs that completed", result.n_completed),
        ("jobs_rejected_total", "Jobs rejected as infeasible", len(result.rejected_jobs)),
        ("attempts_total", "Execution attempts", result.n_attempts),
        (
            "resource_failures_total",
            "Attempts failed by under-allocation",
            result.n_resource_failures,
        ),
        (
            "spurious_failures_total",
            "Attempts failed for non-resource reasons",
            result.n_spurious_failures,
        ),
        (
            "fault_kills_total",
            "Attempts killed by injected node faults",
            result.n_fault_kills,
        ),
        ("node_failures_total", "Nodes taken down by fault injection", result.n_node_failures),
        (
            "node_downtime_seconds",
            "Node-seconds out of service (clamped to the observed trace)",
            result.node_downtime_seconds,
        ),
        (
            "reduced_submissions_total",
            "Submissions below the user's request",
            result.n_reduced_submissions,
        ),
        ("useful_node_seconds", "Node-seconds of successful execution", result.useful_node_seconds),
        ("wasted_node_seconds", "Node-seconds burnt by failed attempts", result.wasted_node_seconds),
        ("makespan_seconds", "First submission to last completion", result.makespan),
        (
            "utilization_effective",
            "Useful node-seconds over in-service capacity",
            utilization(result),
        ),
        (
            "utilization_raw",
            "Useful node-seconds over raw hardware capacity",
            utilization(result, effective=False),
        ),
        (
            "wasted_fraction_effective",
            "Wasted node-seconds over in-service capacity",
            wasted_fraction(result),
        ),
    ]

    families: List[MetricFamily] = [
        (name, help_text, [(labels, value)]) for name, help_text, value in metrics
    ]
    if counters:
        families.append(
            (
                "observer_value",
                "Observer counter/gauge snapshot",
                [({**labels, "name": key}, counters[key]) for key in sorted(counters)],
            )
        )
    return exposition(families)
