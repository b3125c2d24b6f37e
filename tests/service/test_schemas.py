"""Wire-schema layer: spec round-trips, validation, keys, result docs."""

import math

import pytest

from repro.experiments.parallel import RunOutcome, SweepReport, run_sweep
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    FaultSpec,
    RunSpec,
    WorkloadSpec,
)
from repro.service.schemas import (
    MAX_SPECS_PER_SUBMISSION,
    SchemaError,
    experiment_specs,
    outcome_to_dict,
    parse_submission,
    report_to_dict,
    spec_from_dict,
    spec_to_dict,
    sweep_key,
)


def sample_spec(**overrides):
    fields = dict(
        workload=WorkloadSpec(n_jobs=500, load=0.7),
        cluster=ClusterSpec(second_tier_mem=24.0),
        estimator=EstimatorSpec.make("successive", alpha=2.0, beta=0.5),
        seed=3,
        label="round/trip",
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestSpecRoundTrip:
    def test_round_trip_preserves_spec(self):
        spec = sample_spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_round_trip_preserves_cache_key(self):
        spec = sample_spec()
        assert spec_from_dict(spec_to_dict(spec)).cache_key() == spec.cache_key()

    def test_round_trip_with_faults(self):
        spec = sample_spec(faults=FaultSpec(node_mtbf=5e7, spurious=0.05))
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored == spec
        assert restored.faults.enabled

    def test_empty_document_is_all_defaults(self):
        assert spec_from_dict({}) == RunSpec(workload=WorkloadSpec())

    def test_kwargs_accepted_as_mapping_or_pairs(self):
        as_map = spec_from_dict(
            {"estimator": {"name": "successive", "kwargs": {"alpha": 2.0}}}
        )
        as_pairs = spec_from_dict(
            {"estimator": {"name": "successive", "kwargs": [["alpha", 2.0]]}}
        )
        assert as_map == as_pairs

    @pytest.mark.parametrize(
        "doc",
        [
            "not an object",
            {"bogus": 1},
            {"workload": {"bogus": 1}},
            {"workload": "nope"},
            {"estimator": {"name": "no-such-estimator"}},
            {"policy": {"name": "no-such-policy"}},
            {"estimator": {"name": "successive", "kwargs": {"alpha": [1, 2]}}},
            {"estimator": {"name": "successive", "kwargs": [["alpha"]]}},
            {"faults": {"node_mtbf": -5.0}},
            {"workload": {"source": "swf", "trace_path": "/etc/passwd"}},
        ],
    )
    def test_rejects_bad_documents(self, doc):
        with pytest.raises(SchemaError):
            spec_from_dict(doc)


class TestSubmission:
    def test_explicit_specs(self):
        specs, experiment = parse_submission(
            {"specs": [spec_to_dict(sample_spec())]}
        )
        assert specs == [sample_spec()]
        assert experiment is None

    def test_named_experiment(self):
        specs, experiment = parse_submission(
            {"experiment": "fig8", "config": {"n_jobs": 200, "mems": [8, 24]}}
        )
        assert experiment == "fig8"
        # Two estimator variants (none / successive) per memory size.
        assert len(specs) == 4
        assert {s.cluster.second_tier_mem for s in specs} == {8.0, 24.0}

    def test_faults_experiment_wire_mtbfs(self):
        # 0 / null mean "clean" on the wire (JSON has no Infinity).
        specs, _ = parse_submission(
            {"experiment": "faults", "config": {"n_jobs": 200, "mtbfs": [0, 2e7]}}
        )
        assert len(specs) == 8
        assert sum(1 for s in specs if not s.faults.enabled) == 4

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"specs": [], "experiment": "fig5"},
            {"specs": []},
            {"specs": "nope"},
            {"specs": [{}], "extra": 1},
            {"experiment": "nope"},
            {"experiment": 7},
            {"experiment": "fig5", "config": {"bogus": 1}},
            {"experiment": "fig5", "config": {"policy": "sjf"}},
            {"experiment": "faults", "config": {"load": -1}},
            {"experiment": "table1", "config": {"load": "high"}},
            {"experiment": "falsepositives", "config": {"spurious_probs": [2.0]}},
        ],
    )
    def test_rejects_bad_submissions(self, doc):
        with pytest.raises(SchemaError):
            parse_submission(doc)

    def test_spec_count_cap(self):
        doc = {"specs": [{}] * (MAX_SPECS_PER_SUBMISSION + 1)}
        with pytest.raises(SchemaError, match="too many"):
            parse_submission(doc)

    def test_unknown_experiment_lists_known(self):
        with pytest.raises(SchemaError, match="fig5"):
            experiment_specs("fig99", {})


class TestSweepKey:
    def test_deterministic(self):
        specs = [sample_spec(seed=s) for s in (0, 1)]
        assert sweep_key(specs) == sweep_key(list(specs))

    def test_order_sensitive(self):
        a, b = sample_spec(seed=0), sample_spec(seed=1)
        assert sweep_key([a, b]) != sweep_key([b, a])

    def test_differs_across_grids(self):
        assert sweep_key([sample_spec()]) != sweep_key(
            [sample_spec(), sample_spec(seed=9)]
        )


class TestResultDocuments:
    def test_report_round_trips_through_json(self):
        import json

        spec = RunSpec(workload=WorkloadSpec(n_jobs=200, load=0.5))
        report = run_sweep([spec])
        doc = json.loads(json.dumps(report_to_dict(report)))
        assert doc["n_runs"] == 1
        assert doc["outcomes"][0]["point"]["utilization"] > 0
        assert doc["profile"]["n_executed"] == 1

    def test_infinite_runs_per_second_is_null(self):
        spec = RunSpec(workload=WorkloadSpec(n_jobs=200, load=0.5))
        outcome = RunOutcome(spec=spec, point=None, cached=True)
        report = SweepReport(outcomes=[outcome], wall_time=0.0, max_workers=1)
        assert math.isinf(report.runs_per_second)
        assert report_to_dict(report)["runs_per_second"] is None

    def test_outcome_error_and_flags_serialized(self):
        spec = RunSpec(workload=WorkloadSpec(n_jobs=200))
        doc = outcome_to_dict(
            4, RunOutcome(spec=spec, point=None, error="boom", retries=2)
        )
        assert doc["index"] == 4
        assert doc["error"] == "boom"
        assert doc["retries"] == 2 and not doc["cached"]
        assert "resumed" not in doc
        assert not doc["ok"]
        assert "point" not in doc
