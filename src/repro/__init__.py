"""repro: estimation of actual job requirements for heterogeneous clusters.

A production-grade reproduction of Yom-Tov & Aridor, *Improving Resource
Matching Through Estimation of Actual Job Requirements* (HPDC 2006): machine
learning estimators that let a scheduler match jobs to machines with **less**
capacity than requested, a trace-driven discrete-event simulator of the
paper's heterogeneous-cluster scheduling model, a calibrated synthetic LANL
CM5 workload, and the full experiment harness regenerating every figure and
table in the paper.

Quick start
-----------
>>> from repro import quickstart
>>> print(quickstart())           # doctest: +SKIP

or, the pieces individually::

    from repro.workload import lanl_cm5_like, drop_full_machine_jobs, scale_load
    from repro.cluster import paper_cluster
    from repro.core import SuccessiveApproximation, NoEstimation
    from repro.sim import simulate, utilization

    trace = scale_load(drop_full_machine_jobs(lanl_cm5_like(n_jobs=20_000)), 0.8)
    base = simulate(trace, paper_cluster(24.0), estimator=NoEstimation())
    est = simulate(trace, paper_cluster(24.0), estimator=SuccessiveApproximation())
    print(utilization(est) / utilization(base))   # ~1.5x

Package map
-----------
- :mod:`repro.core` -- the estimators (Algorithm 1 and the Table 1 taxonomy)
- :mod:`repro.workload` -- job records, SWF I/O, the calibrated synthetic trace
- :mod:`repro.similarity` -- similarity groups and their quality analyses
- :mod:`repro.cluster` -- heterogeneous cluster model and capacity ladders
- :mod:`repro.sim` -- the discrete-event scheduler simulator and metrics
- :mod:`repro.experiments` -- one module per paper figure/table

Exports load on first access (:func:`repro._lazy.lazy_exports`): ``from
repro import simulate`` imports :mod:`repro.sim.engine` and what it needs,
not the whole package. Library code imports a name from the submodule that
defines it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "cluster.builder": ("paper_cluster",),
    "cluster.cluster": ("Cluster",),
    "cluster.ladder": ("CapacityLadder",),
    "core.base": ("Estimator", "Feedback"),
    "core.baselines": ("NoEstimation", "OracleEstimator"),
    "core.last_instance": ("LastInstance",),
    "core.linesearch": ("RobustLineSearch",),
    "core.regression": ("RegressionEstimator",),
    "core.reinforcement": ("ReinforcementLearning",),
    "core.successive": ("SuccessiveApproximation",),
    "sim.engine": ("Simulation", "simulate"),
    "sim.metrics": ("mean_slowdown", "utilization"),
    "workload.job": ("Job", "Workload"),
    "workload.lanl_cm5": ("lanl_cm5_like",),
})

__version__ = "1.0.0"

__all__ = [
    "CapacityLadder",
    "Cluster",
    "Estimator",
    "Feedback",
    "Job",
    "LastInstance",
    "NoEstimation",
    "OracleEstimator",
    "RegressionEstimator",
    "ReinforcementLearning",
    "RobustLineSearch",
    "Simulation",
    "SuccessiveApproximation",
    "Workload",
    "lanl_cm5_like",
    "mean_slowdown",
    "paper_cluster",
    "quickstart",
    "simulate",
    "utilization",
    "__version__",
]


def quickstart(n_jobs: int = 5000, load: float = 0.8, seed: int = 0) -> str:
    """Run a miniature end-to-end comparison and return a report string."""
    from repro.cluster.builder import paper_cluster
    from repro.core.baselines import NoEstimation
    from repro.core.successive import SuccessiveApproximation
    from repro.sim.engine import simulate
    from repro.sim.metrics import mean_slowdown, utilization
    from repro.workload.lanl_cm5 import lanl_cm5_like
    from repro.workload.transforms import drop_full_machine_jobs, scale_load

    trace = scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=n_jobs, seed=seed)), load
    )
    cluster = paper_cluster(24.0)
    base = simulate(trace, paper_cluster(24.0), estimator=NoEstimation(), seed=seed)
    est = simulate(trace, paper_cluster(24.0), estimator=SuccessiveApproximation(), seed=seed)
    u0, u1 = utilization(base), utilization(est)
    return (
        f"{n_jobs} jobs @ load {load:g} on {cluster!r}\n"
        f"utilization without estimation: {u0:.3f}\n"
        f"utilization with estimation   : {u1:.3f}  ({u1 / u0 - 1:+.1%} vs baseline)\n"
        f"slowdown ratio (base/est)     : {mean_slowdown(base) / mean_slowdown(est):.2f}"
    )
