"""The sweep executor's unit of work: one spec, one ``simulate()`` call.

Covers point-for-point agreement of serial and pooled sweeps with the
scalar oracle (:func:`simulate_spec`) over a grid mixing fast-lane and
scalar-engine configurations, the routing of each spec (one one-lane
:func:`repro.sim.batch.simulate_batch` call per eligible spec, none for
the rest), per-spec error isolation between specs over one trace, and the
cache keys of default specs.
"""

import pytest

import repro.sim.batch as batch_mod
from repro.experiments.parallel import (
    SweepError,
    execute_spec,
    run_sweep,
    simulate_spec,
)
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    FaultSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
)

N_JOBS = 500
LOADS = (0.6, 0.9)

#: (label, spec fields) per configuration; every one runs at each load.
CONFIGS = (
    ("none", {}),
    ("successive", {"estimator": EstimatorSpec(name="successive")}),
    # Protocol mode: an estimator outside the inlined Algorithm 1 path.
    ("last-instance", {"estimator": EstimatorSpec(name="last-instance")}),
    ("sjf", {
        "estimator": EstimatorSpec(name="successive"),
        "policy": PolicySpec(name="sjf"),
    }),
    ("easy", {
        "estimator": EstimatorSpec(name="successive"),
        "policy": PolicySpec(name="easy-backfilling"),
    }),
    ("faulted", {
        "estimator": EstimatorSpec(name="successive"),
        "faults": FaultSpec(node_mtbf=2.0e6, node_mttr=3600.0),
    }),
    # No fast lane covers worst-fit: the scalar engine runs.
    ("worst-fit", {
        "estimator": EstimatorSpec(name="successive"),
        "cluster": ClusterSpec(strategy="worst_fit"),
    }),
)

SCALAR_ONLY = {"worst-fit"}


def grid(configs=CONFIGS, loads=LOADS):
    """Every configuration at every load, all over one base trace."""
    return [
        RunSpec(
            workload=WorkloadSpec(n_jobs=N_JOBS, seed=3, load=load),
            seed=3,
            label=f"{name}@{load:g}",
            **fields,
        )
        for load in loads
        for name, fields in configs
    ]


@pytest.fixture(scope="module")
def specs():
    specs = grid()
    assert len({spec.workload.base_key() for spec in specs}) == 1
    return specs


@pytest.fixture(scope="module")
def oracle(specs):
    return [simulate_spec(spec) for spec in specs]


class TestOracleMatch:
    @pytest.mark.parametrize("workers, timeout", [
        (1, None),
        (2, None),
        (2, 120.0),
    ], ids=["serial", "pool", "pool-timeout"])
    def test_sweep_points_equal_scalar_oracle(self, specs, oracle, workers, timeout):
        report = run_sweep(
            specs, max_workers=workers, oversubscribe=True, timeout=timeout
        )
        assert report.max_workers == workers  # no fallback to the serial path
        assert report.n_errors == 0
        assert report.points() == oracle
        assert report.profile().mean_batch_width == 1.0

    def test_simulate_spec_runs_the_scalar_engine(self, specs, monkeypatch):
        # The oracle must never take the fast lane, or the checks above
        # would compare the fast lane with itself.
        calls = []
        monkeypatch.setattr(
            batch_mod, "simulate_batch",
            lambda *args, **kwargs: calls.append(args),
        )
        simulate_spec(specs[1])
        assert calls == []

    def test_faulted_point_reflects_the_faults(self, specs, oracle):
        # Guards the grid itself: the faulted spec must differ from its
        # fault-free twin, or the faulted row would prove nothing.
        labels = [spec.label for spec in specs]
        assert oracle[labels.index("faulted@0.9")] != oracle[
            labels.index("successive@0.9")
        ]


class TestRouting:
    def _spy(self, monkeypatch):
        calls = []
        original = batch_mod.simulate_batch

        def spy(workload, configs):
            calls.append(len(configs))
            return original(workload, configs)

        monkeypatch.setattr(batch_mod, "simulate_batch", spy)
        return calls

    def test_each_spec_takes_the_lane_simulate_picks(self, specs, monkeypatch):
        calls = self._spy(monkeypatch)
        for spec in specs:
            before = len(calls)
            outcome = execute_spec(spec)
            assert outcome.ok, outcome.error
            made = calls[before:]
            if spec.label.split("@")[0] in SCALAR_ONLY:
                assert made == [], spec.label
            else:
                assert made == [1], spec.label

    def test_serial_sweep_makes_one_call_per_eligible_spec(self, specs, monkeypatch):
        calls = self._spy(monkeypatch)
        report = run_sweep(specs, max_workers=1)
        assert report.n_errors == 0
        eligible = [
            spec for spec in specs
            if spec.label.split("@")[0] not in SCALAR_ONLY
        ]
        assert calls == [1] * len(eligible)


class TestErrorIsolation:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_raising_spec_fails_alone(self, workers):
        neighbours = grid(configs=CONFIGS[:2], loads=(0.8,))
        doomed = RunSpec(
            workload=neighbours[0].workload,
            estimator=EstimatorSpec(name="no-such-estimator"),
            seed=3,
            label="doomed",
        )
        report = run_sweep(
            neighbours[:1] + [doomed] + neighbours[1:],
            max_workers=workers,
            oversubscribe=True,
        )
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert "no-such-estimator" in report.outcomes[1].error
        with pytest.raises(SweepError, match="doomed"):
            report.points()
        good = [o.point for o in report.outcomes if o.ok]
        assert good == [simulate_spec(spec) for spec in neighbours]


class TestSpecKeys:
    def test_default_spec_key_is_unchanged(self):
        # Literals recorded before RunSpec lost its collect_attempts field:
        # cache entries written by earlier versions must still hit.
        spec = RunSpec(workload=WorkloadSpec(n_jobs=600, seed=1, load=0.8))
        assert "collect_attempts" not in spec.canonical()
        assert spec.cache_key() == (
            "df11be501368f527d654bbad1368b54276144f2389da9f9041dc88133f944c7c"
        )
        tuned = RunSpec(
            workload=WorkloadSpec(n_jobs=600, seed=1, load=0.8),
            estimator=EstimatorSpec(name="successive"),
            seed=3,
            label="labels are not keyed",
        )
        assert tuned.cache_key() == (
            "aeb9452506073b8f9e872e94a630d877ffd04843ac9e7180a3d57b197308e56b"
        )

    def test_collect_attempts_is_not_a_spec_field(self):
        with pytest.raises(TypeError):
            RunSpec(
                workload=WorkloadSpec(n_jobs=600, seed=1, load=0.8),
                collect_attempts=True,
            )

