"""Public API surface: __all__ consistency and import hygiene."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.service.schemas import EXPERIMENT_BUILDERS

PACKAGES = [
    "repro",
    "repro.core",
    "repro.workload",
    "repro.similarity",
    "repro.cluster",
    "repro.sim",
    "repro.util",
]

#: Packages whose ``__init__`` exports lazily (:mod:`repro._lazy`).
LAZY_PACKAGES = [
    "repro",
    "repro.sim",
    "repro.core",
    "repro.workload",
    "repro.obs",
    "repro.similarity",
    "repro.cluster",
    "repro.experiments",
    "repro.util",
]

SRC = str(Path(repro.__file__).resolve().parent.parent)


@pytest.mark.parametrize("name", PACKAGES)
class TestPublicSurface:
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_all_is_sorted(self, name):
        module = importlib.import_module(name)
        exported = [s for s in module.__all__ if s != "__version__"]
        assert exported == sorted(exported), f"{name}.__all__ unsorted"

    def test_module_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__) > 40


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_keep_the_public_api(name):
    package = importlib.import_module(name)
    listed = dir(package)
    star = {}
    exec(f"from {name} import *", star)
    for symbol in package.__all__:
        assert symbol in listed, f"dir({name}) omits {symbol}"
        assert star[symbol] is getattr(package, symbol)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    # Not imported as a submodule: repro/__main__.py would run the CLI.
    assert not hasattr(package, "__main__")


def fresh_modules(code: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after running ``code``,
    plus ``"numpy"`` if it was imported."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('repro') or m == 'numpy')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestImportFootprint:
    """Fresh interpreters: this process has long since imported everything."""

    def test_simulate_run_imports_only_its_path(self):
        modules = fresh_modules(
            "from repro.cluster import Cluster\n"
            "from repro.core import SuccessiveApproximation\n"
            "from repro.sim import simulate\n"
            "from repro.workload import drop_full_machine_jobs, lanl_cm5_like, scale_load\n"
            "trace = drop_full_machine_jobs(lanl_cm5_like(n_jobs=300, seed=0))\n"
            "trace = scale_load(trace, 0.8)\n"
            "result = simulate(trace, Cluster([(512, 32.0), (512, 24.0)]),\n"
            "                  estimator=SuccessiveApproximation(), seed=0)\n"
            "assert result.n_completed == len(trace)\n"
        )
        assert "repro.sim.engine" in modules
        unused = {
            "repro.sim.analysis",
            "repro.similarity.analysis",
            "repro.core.multi_resource",
            "repro.cluster.builder",
            "repro.obs.trace",
        }
        assert not unused & set(modules)
        assert not [m for m in modules if m.startswith(("repro.experiments", "repro.service"))]

    def test_workload_package_imports_no_simulator(self):
        modules = fresh_modules("import repro.workload")
        assert not [m for m in modules if m.startswith("repro.sim")]

    def test_submodule_resolves_as_attribute(self):
        modules = fresh_modules(
            "import repro.sim\n"
            "assert callable(repro.sim.analysis.queue_stats)\n"
            "import repro\n"
            "assert repro.sim.engine.simulate is repro.simulate\n"
        )
        assert "repro.sim.analysis" in modules

    def test_service_boot_imports_only_its_parse_path(self):
        """Parsing, registering and answering a request need no executor,
        engine or experiment grid."""
        modules = fresh_modules("import repro.service")
        assert "repro.service.app" in modules
        executor_stack = {
            "repro.experiments.parallel",
            "repro.sim.engine",
            "repro.sim.batch",
            "repro.sim.records",
            "repro.experiments.fig5",
            "repro.experiments.fig8",
            "repro.experiments.faults",
            "repro.experiments.shm",
        }
        assert not executor_stack & set(modules)

    def test_service_boot_imports_no_numpy_estimator_workload_or_engine(self):
        modules = fresh_modules("import repro.service")
        assert "numpy" not in modules
        assert not [
            m for m in modules
            if m.startswith(("repro.core.", "repro.workload.", "repro.sim."))
        ]

    def test_parsing_and_keying_a_sweep_imports_no_numpy(self):
        """A Figure 5 grid as an explicit spec list: parsed, validated and
        keyed without one array."""
        modules = fresh_modules(
            "from repro.experiments.specs import EstimatorSpec, RunSpec, WorkloadSpec\n"
            "from repro.service.schemas import parse_submission, sweep_key\n"
            "spec = RunSpec(workload=WorkloadSpec(n_jobs=2000, load=0.9),\n"
            "               estimator=EstimatorSpec.make('successive', alpha=2.0, beta=0.0))\n"
            "assert spec.canonical()['estimator']['name'] == 'successive'\n"
            "assert len(spec.cache_key()) == 64\n"
            "body = {'specs': [\n"
            "    {'workload': {'n_jobs': 2000, 'seed': 0, 'load': load},\n"
            "     'cluster': {'second_tier_mem': 24.0},\n"
            "     'estimator': est, 'policy': {'name': 'fcfs'}, 'seed': 0}\n"
            "    for est in ({'name': 'none'},\n"
            "                {'name': 'successive', 'kwargs': {'alpha': 2.0, 'beta': 0.0}})\n"
            "    for load in (0.3, 0.6, 0.9, 1.2)]}\n"
            "specs, experiment = parse_submission(body)\n"
            "assert experiment is None and len(specs) == 8\n"
            "assert len(sweep_key(specs)) == 64\n"
        )
        assert "repro.service.schemas" in modules
        assert "numpy" not in modules

    @pytest.mark.parametrize("name", sorted(EXPERIMENT_BUILDERS))
    def test_named_grid_parses_without_numpy_or_executor(self, name):
        """The service builds a named experiment's grid on its event loop:
        that takes the experiment module, not numpy or the executor."""
        modules = fresh_modules(
            "from repro.service.schemas import experiment_specs\n"
            f"assert experiment_specs({name!r}, {{'n_jobs': 2000}})\n"
        )
        assert f"repro.experiments.{'fig5' if name == 'fig6' else name}" in modules
        assert "numpy" not in modules
        assert "repro.experiments.parallel" not in modules

    def test_executor_imports_what_its_workers_run(self):
        """A forked pool worker inherits, compiled, every module behind a
        built-in registry entry, both lanes ``repro.sim.batch`` imports on
        first use and the workload builders a spec calls."""
        modules = fresh_modules(
            "import sys\n"
            "from repro.experiments import specs\n"
            "named = {factory.partition(':')[0]\n"
            "         for registry in (specs.ESTIMATOR_REGISTRY, specs.POLICY_REGISTRY)\n"
            "         for factory in registry.values()}\n"
            "assert not named & set(sys.modules), named & set(sys.modules)\n"
            "import repro.experiments.parallel\n"
            "assert not named - set(sys.modules), named - set(sys.modules)\n"
        )
        expected = {
            "repro.core.baselines",
            "repro.core.hybrid",
            "repro.core.last_instance",
            "repro.core.linesearch",
            "repro.core.online",
            "repro.core.regression",
            "repro.core.reinforcement",
            "repro.core.successive",
            "repro.sim.policies",
            "repro.sim.protocol_lane",
            "repro.sim.fault_lane",
            "repro.workload.lanl_cm5",
            "repro.workload.synthetic",
            "repro.workload.swf",
            "repro.workload.transforms",
        }
        assert expected <= set(modules)

    def test_started_service_loads_the_executor_unasked(self):
        """Once listening, the service imports the executor in the
        background, so the first submission does not pay for it."""
        modules = fresh_modules(
            "import sys, time\n"
            "from repro.service import ServiceConfig, ServiceThread\n"
            "with ServiceThread(ServiceConfig(port=0)):\n"
            "    deadline = time.monotonic() + 10\n"
            "    while ('repro.experiments.parallel' not in sys.modules\n"
            "           and time.monotonic() < deadline):\n"
            "        time.sleep(0.01)\n"
        )
        assert "repro.experiments.parallel" in modules

    def test_cli_help_imports_no_subcommand(self):
        modules = fresh_modules(
            "from repro.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
        )
        assert "repro.cli" in modules
        assert not [
            m for m in modules
            if m.startswith(("repro.experiments", "repro.service"))
            or m == "repro.cluster.builder"
        ]


class TestVersion:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestExperimentModulesAreUniform:
    @pytest.mark.parametrize(
        "name",
        ["fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1",
         "falsepositives", "policies_exp", "replication"],
    )
    def test_run_and_main_exist(self, name):
        """Each experiment has ``run()`` and one command line: the CLI's
        ``main`` serves it as ``repro experiment NAME``; the module keeps
        no ``main`` of its own."""
        from repro.cli import EXPERIMENTS, main

        module = importlib.import_module(f"repro.experiments.{name}")
        assert callable(module.run)
        assert callable(main) and name in EXPERIMENTS
        assert not hasattr(module, "main")

    def test_cli_experiment_list_matches_modules(self):
        from repro.cli import EXPERIMENTS

        for name in EXPERIMENTS:
            importlib.import_module(f"repro.experiments.{name}")


class TestDocCoverage:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_public_callable_documented(self, name):
        module = importlib.import_module(name)
        undocumented = []
        for symbol in module.__all__:
            obj = getattr(module, symbol, None)
            if obj is None or isinstance(obj, (int, float, str, tuple, dict)):
                continue
            if type(obj).__module__ == "typing":
                continue  # type aliases carry no docstrings
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{name}.{symbol}")
        assert not undocumented, f"missing docstrings: {undocumented}"
