"""Persistence of learned estimator state.

A production deployment of the paper's estimator survives scheduler
restarts: the per-group experience (Algorithm 1's ``(E_i, alpha_i)`` pairs,
the regression weights, the RL Q-table) is checkpointed and reloaded.  This
module serializes estimator state to a JSON-compatible dict (and text),
keyed by estimator type and a schema version.

Only learned state travels; construction parameters (alpha, beta, key
function, ...) stay with the code — the caller re-creates the estimator
with its configuration and then restores the experience into it.  Group
keys are serialized as JSON arrays (the built-in key functions produce
tuples of numbers); custom key functions must produce JSON-representable
keys to be persistable.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.core.last_instance import LastInstance, _LastInstanceGroup
from repro.core.regression import RegressionEstimator, _RlsState
from repro.core.successive import GroupState, SuccessiveApproximation

#: Format version; bump on breaking layout changes.
SCHEMA_VERSION = 1


def _key_to_wire(key: Any) -> Any:
    if isinstance(key, tuple):
        return list(key)
    return key


def _key_from_wire(key: Any) -> Any:
    if isinstance(key, list):
        return tuple(key)
    return key


# --------------------------------------------------------------- successive
def _dump_successive(est: SuccessiveApproximation) -> Dict[str, Any]:
    groups = []
    for key, state in est._groups.items():
        groups.append(
            {
                "key": _key_to_wire(key),
                "estimate": state.estimate,
                "alpha": state.alpha,
                "request": state.request,
                "last_safe": state.last_safe,
                "successes": state.successes,
                "failures": state.failures,
            }
        )
    return {"groups": groups}


def _load_successive(est: SuccessiveApproximation, payload: Dict[str, Any]) -> None:
    est.reset()
    for g in payload["groups"]:
        est._groups[_key_from_wire(g["key"])] = GroupState(
            estimate=float(g["estimate"]),
            alpha=float(g["alpha"]),
            request=float(g["request"]),
            last_safe=None if g["last_safe"] is None else float(g["last_safe"]),
            successes=int(g["successes"]),
            failures=int(g["failures"]),
        )


# ------------------------------------------------------------ last-instance
def _dump_last_instance(est: LastInstance) -> Dict[str, Any]:
    groups = []
    for key, group in est._groups.items():
        groups.append(
            {
                "key": _key_to_wire(key),
                "recent_usage": list(group.recent_usage),
                "escalated": group.escalated,
            }
        )
    return {"groups": groups}


def _load_last_instance(est: LastInstance, payload: Dict[str, Any]) -> None:
    from collections import deque

    est.reset()
    for g in payload["groups"]:
        est._groups[_key_from_wire(g["key"])] = _LastInstanceGroup(
            recent_usage=deque(
                (float(v) for v in g["recent_usage"]), maxlen=est.window
            ),
            escalated=bool(g["escalated"]),
        )


# ---------------------------------------------------------------- regression
def _dump_regression(est: RegressionEstimator) -> Dict[str, Any]:
    state = est._state
    if state is None:
        return {"state": None}
    return {
        "state": {
            "p_matrix": state.p_matrix.tolist(),
            "weights": state.weights.tolist(),
            "n_samples": state.n_samples,
            "residual_sq_sum": state.residual_sq_sum,
        }
    }


def _load_regression(est: RegressionEstimator, payload: Dict[str, Any]) -> None:
    import numpy as np

    est.reset()
    raw = payload["state"]
    if raw is None:
        return
    est._state = _RlsState(
        p_matrix=np.array(raw["p_matrix"], dtype=float),
        weights=np.array(raw["weights"], dtype=float),
        n_samples=int(raw["n_samples"]),
        residual_sq_sum=float(raw["residual_sq_sum"]),
    )


_HANDLERS = {
    "SuccessiveApproximation": (_dump_successive, _load_successive),
    "LastInstance": (_dump_last_instance, _load_last_instance),
    "RegressionEstimator": (_dump_regression, _load_regression),
}


def dump_state(estimator: Any) -> Dict[str, Any]:
    """Serialize an estimator's learned state to a JSON-compatible dict."""
    type_name = type(estimator).__name__
    if type_name not in _HANDLERS:
        raise TypeError(
            f"no persistence handler for {type_name}; persistable estimators: "
            f"{sorted(_HANDLERS)}"
        )
    dump, _ = _HANDLERS[type_name]
    return {
        "schema": SCHEMA_VERSION,
        "estimator": type_name,
        "state": dump(estimator),
    }


def load_state(estimator: Any, blob: Dict[str, Any]) -> None:
    """Restore learned state into a freshly configured estimator.

    The blob's estimator type must match; the schema version must be known.
    """
    if blob.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported state schema {blob.get('schema')!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    type_name = type(estimator).__name__
    if blob.get("estimator") != type_name:
        raise ValueError(
            f"state was saved from {blob.get('estimator')!r}, cannot load into "
            f"{type_name}"
        )
    _, load = _HANDLERS[type_name]
    load(estimator, blob["state"])


def dumps(estimator: Any) -> str:
    """Serialize to JSON text."""
    return json.dumps(dump_state(estimator))


def loads(estimator: Any, text: str) -> None:
    """Restore from JSON text produced by :func:`dumps`."""
    load_state(estimator, json.loads(text))
