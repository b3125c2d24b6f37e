"""Wire schemas of the sweep service: JSON <-> spec, submissions, results.

The service speaks plain JSON over HTTP; this module is the (stdlib-only)
translation layer between those documents and the sweep subsystem's frozen
dataclasses:

* :func:`spec_from_dict` / :func:`spec_to_dict` round-trip a
  :class:`~repro.experiments.specs.RunSpec` through the shape
  :meth:`RunSpec.canonical` already defines (plus the presentation-only
  ``label``), validating every field and resolving estimator/policy names
  against the registries *at submission time* — a bad spec is a 400, never
  a worker traceback.
* :func:`parse_submission` accepts either an explicit ``{"specs": [...]}``
  list or a named experiment ``{"experiment": "fig5", "config": {...}}``
  (fig5/fig6/fig8/table1/policies_exp/faults/falsepositives — the grids
  the experiments run, built by the experiment modules' own
  ``sweep_specs`` helpers).
* :func:`sweep_key` derives the submission's idempotency key: the SHA-256
  of the ordered spec cache keys, so byte-identical sweeps — and only
  those — collapse onto one run.
* ``*_to_dict`` render outcomes, reports, and profiles for responses.

Parsing imports no engine and no experiment grid: each named experiment's
module is imported the first time its grid is built, and the executor's
result types are imported for type checking only.

Everything raises :class:`SchemaError` on malformed input; the HTTP layer
maps that to a 400 with the message as the body.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.specs import (
    ESTIMATOR_REGISTRY,
    POLICY_REGISTRY,
    ClusterSpec,
    EstimatorSpec,
    FaultSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
)

if TYPE_CHECKING:
    from repro.experiments.parallel import RunOutcome, SweepProfile, SweepReport


class SchemaError(ValueError):
    """A request document that cannot be turned into specs (HTTP 400)."""


#: Hard cap on specs per submission: one sweep is a paper grid (tens of
#: points), not a bulk import — a runaway client cannot queue a year of work.
MAX_SPECS_PER_SUBMISSION = 4096


def _require_mapping(doc: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _scalar_fields(
    doc: Mapping[str, Any], what: str, allowed: Mapping[str, type]
) -> Dict[str, Any]:
    """Validate ``doc`` against ``allowed`` field names (types checked by the
    dataclass constructors); unknown keys are errors, not silent drops."""
    unknown = set(doc) - set(allowed)
    if unknown:
        raise SchemaError(
            f"unknown {what} field(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return dict(doc)


def _frozen_kwargs(raw: Any, what: str) -> Tuple[Tuple[str, Any], ...]:
    """Kwargs from either ``{"k": v}`` or canonical ``[["k", v], ...]``."""
    if raw is None:
        return ()
    if isinstance(raw, Mapping):
        pairs = list(raw.items())
    elif isinstance(raw, Sequence) and not isinstance(raw, (str, bytes)):
        pairs = []
        for item in raw:
            if (
                not isinstance(item, Sequence)
                or isinstance(item, (str, bytes))
                or len(item) != 2
            ):
                raise SchemaError(f"{what} kwargs entries must be [name, value] pairs")
            pairs.append((item[0], item[1]))
    else:
        raise SchemaError(f"{what} kwargs must be an object or a list of pairs")
    for key, value in pairs:
        if not isinstance(key, str):
            raise SchemaError(f"{what} kwarg names must be strings, got {key!r}")
        if not isinstance(value, (int, float, str, bool, type(None))):
            raise SchemaError(
                f"{what} kwarg {key}={value!r} is not a JSON-able scalar"
            )
    return tuple(sorted(pairs))


def spec_from_dict(doc: Any) -> RunSpec:
    """Build a validated :class:`RunSpec` from its JSON form.

    Accepts exactly the :meth:`RunSpec.canonical` shape plus ``label``;
    every sub-document is optional and defaults like the dataclasses do.
    """
    doc = _require_mapping(doc, "spec")
    doc = _scalar_fields(
        doc,
        "spec",
        {
            "workload": dict, "cluster": dict, "estimator": dict,
            "policy": dict, "faults": dict, "seed": int, "label": str,
        },
    )
    try:
        workload = WorkloadSpec(
            **_scalar_fields(
                _require_mapping(doc.get("workload", {}), "workload"),
                "workload",
                {
                    "n_jobs": int, "seed": int, "source": str,
                    "trace_path": str, "drop_full_machine": bool, "load": float,
                },
            )
        )
        cluster = ClusterSpec(
            **_scalar_fields(
                _require_mapping(doc.get("cluster", {}), "cluster"),
                "cluster",
                {"second_tier_mem": float, "strategy": str},
            )
        )
        est_doc = _scalar_fields(
            _require_mapping(doc.get("estimator", {}), "estimator"),
            "estimator",
            {"name": str, "kwargs": object},
        )
        estimator = EstimatorSpec(
            name=est_doc.get("name", "none"),
            kwargs=_frozen_kwargs(est_doc.get("kwargs"), "estimator"),
        )
        pol_doc = _scalar_fields(
            _require_mapping(doc.get("policy", {}), "policy"),
            "policy",
            {"name": str, "kwargs": object},
        )
        policy = PolicySpec(
            name=pol_doc.get("name", "fcfs"),
            kwargs=_frozen_kwargs(pol_doc.get("kwargs"), "policy"),
        )
        faults = FaultSpec(
            **_scalar_fields(
                _require_mapping(doc.get("faults", {}), "faults"),
                "faults",
                {"node_mtbf": float, "node_mttr": float, "spurious": float},
            )
        )
        spec = RunSpec(
            workload=workload,
            cluster=cluster,
            estimator=estimator,
            policy=policy,
            seed=int(doc.get("seed", 0)),
            label=str(doc.get("label", "")),
            faults=faults,
        )
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid spec: {exc}") from None
    if estimator.name not in ESTIMATOR_REGISTRY:
        raise SchemaError(
            f"unknown estimator {estimator.name!r}; registered: "
            f"{sorted(ESTIMATOR_REGISTRY)}"
        )
    if policy.name not in POLICY_REGISTRY:
        raise SchemaError(
            f"unknown policy {policy.name!r}; registered: {sorted(POLICY_REGISTRY)}"
        )
    if spec.workload.source == "swf":
        # The service materializes traces server-side; a client must not be
        # able to point workers at arbitrary server paths.
        raise SchemaError(
            "SWF trace specs are not accepted over the API; "
            "submit synthetic workloads or run locally"
        )
    return spec


def spec_to_dict(spec: RunSpec) -> Dict[str, Any]:
    """``spec`` as the JSON document :func:`spec_from_dict` round-trips."""
    doc = spec.canonical()
    doc["label"] = spec.label
    return doc


# ------------------------------------------------------------- experiments
def _config_from(params: Mapping[str, Any]) -> ExperimentConfig:
    fields = _scalar_fields(
        params,
        "experiment config",
        {
            "n_jobs": int, "seed": int, "loads": list, "alpha": float,
            "beta": float, "second_tier_mem": float,
        },
    )
    if "loads" in fields:
        loads = fields["loads"]
        if not isinstance(loads, Sequence) or isinstance(loads, (str, bytes)):
            raise SchemaError("loads must be a list of numbers")
        fields["loads"] = tuple(float(x) for x in loads)
    try:
        return ExperimentConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid experiment config: {exc}") from None


def _fig5_specs(params: Mapping[str, Any]) -> List[RunSpec]:
    from repro.experiments import fig5 as fig5_exp

    params = dict(params)
    policy = params.pop("policy", "fcfs")
    return fig5_exp.grid_specs(_config_from(params), policy)


def _fig8_specs(params: Mapping[str, Any]) -> List[RunSpec]:
    from repro.experiments import fig8 as fig8_exp

    params = dict(params)
    mems = params.pop("mems", None)
    load = float(params.pop("load", 0.8))
    cfg = _config_from(params)
    if mems is not None:
        if not isinstance(mems, Sequence) or isinstance(mems, (str, bytes)):
            raise SchemaError("mems must be a list of numbers")
        mems = [float(m) for m in mems]
    return fig8_exp.sweep_specs(cfg, mems, load)


def _faults_specs(params: Mapping[str, Any]) -> List[RunSpec]:
    from repro.experiments import faults as faults_exp

    params = dict(params)
    mtbfs = params.pop("mtbfs", None)
    node_mttr = float(params.pop("node_mttr", 3600.0))
    load = float(params.pop("load", 0.8))
    cfg = _config_from(params)
    if mtbfs is None:
        mtbfs = (math.inf, 2e8, 5e7, 2e7)
    else:
        if not isinstance(mtbfs, Sequence) or isinstance(mtbfs, (str, bytes)):
            raise SchemaError("mtbfs must be a list of numbers (0 or null = clean)")
        # JSON has no Infinity: 0/null mean "no faults" on the wire.
        mtbfs = tuple(
            math.inf if m is None or float(m) <= 0 else float(m) for m in mtbfs
        )
    return faults_exp.sweep_specs(cfg, mtbfs, node_mttr=node_mttr, load=load)


def _load_only_specs(module: str) -> Callable[[Mapping[str, Any]], List[RunSpec]]:
    """The builder of an experiment whose grid takes a ``load`` and the
    config alone (Table 1, the policy study)."""

    def build(params: Mapping[str, Any]) -> List[RunSpec]:
        experiment = importlib.import_module(f"repro.experiments.{module}")
        params = dict(params)
        load = float(params.pop("load", 0.8))
        return experiment.sweep_specs(_config_from(params), load=load)

    return build


def _falsepositives_specs(params: Mapping[str, Any]) -> List[RunSpec]:
    from repro.experiments import falsepositives as falsepositives_exp

    params = dict(params)
    probs = params.pop("spurious_probs", (0.0, 0.02, 0.05, 0.10))
    load = float(params.pop("load", 0.8))
    if not isinstance(probs, Sequence) or isinstance(probs, (str, bytes)):
        raise SchemaError("spurious_probs must be a list of numbers")
    probs = [float(p) for p in probs]
    return falsepositives_exp.sweep_specs(_config_from(params), probs, load=load)


#: Named experiments a client may submit without spelling out every spec.
#: fig6 shares fig5's simulations (the slowdown series reads the same runs).
EXPERIMENT_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], List[RunSpec]]] = {
    "fig5": _fig5_specs,
    "fig6": _fig5_specs,
    "fig8": _fig8_specs,
    "faults": _faults_specs,
    "falsepositives": _falsepositives_specs,
    "policies_exp": _load_only_specs("policies_exp"),
    "table1": _load_only_specs("table1"),
}


def experiment_specs(name: str, params: Optional[Mapping[str, Any]]) -> List[RunSpec]:
    """The spec grid of the named experiment, built from JSON parameters."""
    try:
        builder = EXPERIMENT_BUILDERS[name]
    except KeyError:
        raise SchemaError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENT_BUILDERS)}"
        ) from None
    params = _require_mapping(params if params is not None else {}, "config")
    try:
        return builder(params)
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:  # a spec refusing a field
        raise SchemaError(f"invalid {name} config: {exc}") from None


def parse_submission(doc: Any) -> Tuple[List[RunSpec], Optional[str]]:
    """Specs (and the experiment name, if any) of one ``POST /runs`` body."""
    doc = _require_mapping(doc, "submission")
    has_specs = "specs" in doc
    has_experiment = "experiment" in doc
    if has_specs == has_experiment:
        raise SchemaError("submission needs exactly one of 'specs' or 'experiment'")
    if has_specs:
        raw = doc["specs"]
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise SchemaError("'specs' must be a list of spec objects")
        if not raw:
            raise SchemaError("'specs' must not be empty")
        if len(raw) > MAX_SPECS_PER_SUBMISSION:
            raise SchemaError(
                f"too many specs in one submission "
                f"({len(raw)} > {MAX_SPECS_PER_SUBMISSION})"
            )
        unknown = set(doc) - {"specs"}
        if unknown:
            raise SchemaError(f"unknown submission field(s) {sorted(unknown)}")
        return [spec_from_dict(d) for d in raw], None
    name = doc["experiment"]
    if not isinstance(name, str):
        raise SchemaError("'experiment' must be a string")
    unknown = set(doc) - {"experiment", "config"}
    if unknown:
        raise SchemaError(f"unknown submission field(s) {sorted(unknown)}")
    specs = experiment_specs(name, doc.get("config"))
    if len(specs) > MAX_SPECS_PER_SUBMISSION:
        raise SchemaError("experiment config expands to too many specs")
    return specs, name


def sweep_key(specs: Sequence[RunSpec]) -> str:
    """Idempotency key of a submission: SHA-256 over the *ordered* spec
    cache keys.  Order matters because results come back in spec order —
    the same grid submitted in a different order is a different run."""
    h = hashlib.sha256()
    for spec in specs:
        h.update(spec.cache_key().encode())
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------- results
def outcome_to_dict(index: int, outcome: RunOutcome) -> Dict[str, Any]:
    """One outcome as a progress-event / result-list entry."""
    doc: Dict[str, Any] = {
        "index": index,
        "label": outcome.spec.label,
        "ok": outcome.ok,
        "cached": outcome.cached,
        "retries": outcome.retries,
        "wall_time": outcome.wall_time,
    }
    if outcome.point is not None:
        doc["point"] = asdict(outcome.point)
    if outcome.error is not None:
        doc["error"] = outcome.error
    return doc


def profile_to_dict(profile: SweepProfile) -> Dict[str, Any]:
    doc = asdict(profile)
    doc["slowest"] = [[label, seconds] for label, seconds in profile.slowest]
    doc["cache_hit_rate"] = profile.cache_hit_rate
    return doc


def report_to_dict(report: SweepReport, include_outcomes: bool = True) -> Dict[str, Any]:
    """A finished sweep's results + accounting as one JSON document."""
    doc: Dict[str, Any] = {
        "n_runs": report.n_runs,
        "n_cache_hits": report.n_cache_hits,
        "n_errors": report.n_errors,
        "n_retries": report.n_retries,
        "n_timeouts": report.n_timeouts,
        "n_pool_rebuilds": report.n_pool_rebuilds,
        "wall_time": report.wall_time,
        # inf (an all-cached sweep finishing in ~0s) is not JSON; null it.
        "runs_per_second": (
            report.runs_per_second
            if math.isfinite(report.runs_per_second)
            else None
        ),
        "max_workers": report.max_workers,
        "peak_worker_rss_kb": report.peak_worker_rss_kb,
        "profile": profile_to_dict(report.profile()),
    }
    if include_outcomes:
        doc["outcomes"] = [
            outcome_to_dict(i, o) for i, o in enumerate(report.outcomes)
        ]
    return doc
