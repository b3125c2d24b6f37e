"""Workload substrate: job records, trace I/O, synthetic generation, analysis.

The paper's experiments are driven by the LANL CM5 trace from the Parallel
Workloads Archive.  This package provides

* :class:`repro.workload.job.Job` — an SWF-compatible job record carrying both
  *requested* and *actually used* resources (the pair at the heart of the
  over-provisioning problem),
* :mod:`repro.workload.swf` — a Standard Workload Format v2 reader/writer so a
  real archive trace can be dropped in,
* :mod:`repro.workload.synthetic` — a generator statistically calibrated to
  the published LANL CM5 numbers (used because this environment has no network
  access; see DESIGN.md §2); its diurnal warp is the package's one arrival
  model,
* :mod:`repro.workload.transforms` — load rescaling, filtering, subsampling,
* :mod:`repro.workload.report` — a trace characterization report,
* :mod:`repro.workload.stats` — the over-provisioning analyses behind
  Figure 1.

Archive-log cleaning (flurry removal), re-timing and train/test splits are
not here: no experiment needs them.

Exports load on first access (:func:`repro._lazy.lazy_exports`): ``from
repro.workload import scale_load`` imports :mod:`repro.workload.transforms`
and what it needs, not the whole package. Library code imports a name from
the submodule that defines it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "columns": ("COLUMN_FIELDS", "JobColumns"),
    "job": ("Job", "LazyJobs", "Workload"),
    "lanl_cm5": ("LANL_CM5", "TraceProfile", "lanl_cm5_like"),
    "report": ("TraceReport", "characterize"),
    "stats": (
        "OverprovisioningStats",
        "RegressionFit",
        "log_linear_fit",
        "overprovisioning_histogram",
        "overprovisioning_stats",
        "ratio_at_least",
    ),
    "swf": ("read_swf", "read_swf_text", "write_swf", "write_swf_text"),
    "synthetic": ("SyntheticTraceConfig", "generate_trace"),
    "transforms": (
        "drop_full_machine_jobs",
        "head",
        "offered_load",
        "scale_load",
        "shift_to_zero",
    ),
})

__all__ = [
    "COLUMN_FIELDS",
    "Job",
    "JobColumns",
    "LANL_CM5",
    "LazyJobs",
    "OverprovisioningStats",
    "RegressionFit",
    "SyntheticTraceConfig",
    "TraceProfile",
    "TraceReport",
    "Workload",
    "characterize",
    "drop_full_machine_jobs",
    "generate_trace",
    "head",
    "lanl_cm5_like",
    "log_linear_fit",
    "offered_load",
    "overprovisioning_histogram",
    "overprovisioning_stats",
    "ratio_at_least",
    "read_swf",
    "read_swf_text",
    "scale_load",
    "shift_to_zero",
    "write_swf",
    "write_swf_text",
]
