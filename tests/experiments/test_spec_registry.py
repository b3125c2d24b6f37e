"""The estimator and policy registries behind ``EstimatorSpec``/``PolicySpec``.

Built-in entries name their factory as ``"module:attr"`` and import it on
first ``materialize()``; ``register_estimator``/``register_policy`` take a
callable.  Either way a name resolves to the same object, and spec keys do
not depend on how a factory is held.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.baselines import NoEstimation, OracleEstimator
from repro.core.hybrid import HybridEstimator
from repro.core.last_instance import LastInstance
from repro.core.linesearch import RobustLineSearch
from repro.core.online import OnlineSimilarityEstimator
from repro.core.regression import RegressionEstimator
from repro.core.reinforcement import ReinforcementLearning
from repro.core.successive import SuccessiveApproximation
from repro.experiments import specs
from repro.experiments.specs import (
    ESTIMATOR_REGISTRY,
    POLICY_REGISTRY,
    EstimatorSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
    register_estimator,
    register_policy,
)
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst

BUILT_IN_ESTIMATORS = {
    "none": NoEstimation,
    "successive": SuccessiveApproximation,
    "last-instance": LastInstance,
    "rl": ReinforcementLearning,
    "regression": RegressionEstimator,
    "line-search": RobustLineSearch,
    "online": OnlineSimilarityEstimator,
    "hybrid": HybridEstimator,
    "oracle": OracleEstimator,
}

BUILT_IN_POLICIES = {
    "fcfs": Fcfs,
    "sjf": ShortestJobFirst,
    "easy-backfilling": EasyBackfilling,
}


def _named(factory) -> str:
    """A callable's ``"module:attr"`` registry name."""
    return f"{factory.__module__}:{factory.__qualname__}"


@pytest.fixture(scope="module")
def shipped():
    """The registries as a fresh interpreter holds them: importing the
    sweep executor (as this test session has) resolves every entry."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import json\n"
         "from repro.experiments import specs\n"
         "print(json.dumps([specs.ESTIMATOR_REGISTRY, specs.POLICY_REGISTRY]))\n"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    estimators, policies = json.loads(out.stdout)
    return {"estimator": estimators, "policy": policies}


@pytest.mark.parametrize("name", sorted(BUILT_IN_ESTIMATORS))
def test_built_in_estimator_materializes_to_its_class(name, shipped, monkeypatch):
    expected = BUILT_IN_ESTIMATORS[name]
    assert shipped["estimator"][name] == _named(expected)
    monkeypatch.setitem(ESTIMATOR_REGISTRY, name, shipped["estimator"][name])
    assert type(EstimatorSpec(name=name).materialize()) is expected
    assert ESTIMATOR_REGISTRY[name] is expected  # resolved once, then kept


@pytest.mark.parametrize("name", sorted(BUILT_IN_POLICIES))
def test_built_in_policy_materializes_to_its_class(name, shipped, monkeypatch):
    expected = BUILT_IN_POLICIES[name]
    assert shipped["policy"][name] == _named(expected)
    monkeypatch.setitem(POLICY_REGISTRY, name, shipped["policy"][name])
    assert type(PolicySpec(name=name).materialize()) is expected
    assert POLICY_REGISTRY[name] is expected


def test_built_in_names_are_exactly_these(shipped):
    assert set(shipped["estimator"]) == set(BUILT_IN_ESTIMATORS)
    assert set(shipped["policy"]) == set(BUILT_IN_POLICIES)


def test_registering_overrides_a_lazily_named_built_in(monkeypatch):
    monkeypatch.setitem(ESTIMATOR_REGISTRY, "successive", _named(SuccessiveApproximation))
    made = []

    def factory(**kwargs):
        made.append(kwargs)
        return NoEstimation()

    register_estimator("successive", factory)
    estimator = EstimatorSpec.make("successive", alpha=3.0).materialize()
    assert type(estimator) is NoEstimation
    assert made == [{"alpha": 3.0}]


def test_registering_a_policy_overrides_a_built_in(monkeypatch):
    monkeypatch.setitem(POLICY_REGISTRY, "fcfs", _named(Fcfs))
    register_policy("fcfs", ShortestJobFirst)
    assert type(PolicySpec(name="fcfs").materialize()) is ShortestJobFirst


def test_load_registered_factories_resolves_every_named_entry(monkeypatch):
    for name, cls in BUILT_IN_ESTIMATORS.items():
        monkeypatch.setitem(ESTIMATOR_REGISTRY, name, _named(cls))
    for name, cls in BUILT_IN_POLICIES.items():
        monkeypatch.setitem(POLICY_REGISTRY, name, _named(cls))
    specs.load_registered_factories()
    for name, cls in BUILT_IN_ESTIMATORS.items():
        assert ESTIMATOR_REGISTRY[name] is cls
    for name, cls in BUILT_IN_POLICIES.items():
        assert POLICY_REGISTRY[name] is cls


class TestCacheKeysArePinned:
    """Literal keys recorded before the registries turned lazy: how a
    factory is held must never move a cached result."""

    def test_default_spec(self):
        assert RunSpec(workload=WorkloadSpec()).cache_key() == (
            "a9e56bc523fd00651104be3a95af7fd392319214ce52d198ab38507d131403ad"
        )

    def test_estimator_kwargs_and_policy(self):
        spec = RunSpec(
            workload=WorkloadSpec(n_jobs=2000, seed=3, load=0.9),
            estimator=EstimatorSpec.make("successive", alpha=2.0, beta=0.0),
            policy=PolicySpec(name="easy-backfilling"),
            seed=3,
        )
        assert spec.cache_key() == (
            "9e8795d3f9d0dc18cb8c6a339aff7869972bf6cd0f416577b45641027993f936"
        )
