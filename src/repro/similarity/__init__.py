"""Similarity engine: identifying groups of jobs with similar resource usage.

The paper's estimators learn per *similarity group* — disjoint sets of job
submissions expected to use similar amounts of resources (§2.1-2.2).  This
package provides

* :mod:`repro.similarity.keys` — pluggable group-key functions.  The paper's
  LANL CM5 key is ``(user ID, application number, requested memory)``;
  repeated-submission job IDs and custom callables are also supported,
* :mod:`repro.similarity.groups` — :class:`SimilarityIndex`, the online
  structure the scheduler queries ("find this job's group, or open a new
  one"), plus offline group construction from a full trace,
* :mod:`repro.similarity.analysis` — the group-quality measurements of
  Figures 3 (group-size distribution) and 4 (gain vs. similarity range).

Exports load on first access (:func:`repro._lazy.lazy_exports`): ``from
repro.similarity import AdaptiveKey`` imports :mod:`repro.similarity.online`
and what it needs, not the whole package. Library code imports a name from
the submodule that defines it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "analysis": (
        "GainRangePoint",
        "GroupSizeDistribution",
        "SimilarityReport",
        "gain_vs_range",
        "group_size_distribution",
        "similarity_report",
    ),
    "groups": ("GroupStats", "SimilarityIndex", "build_groups"),
    "keys": (
        "GroupKey",
        "KeyFunction",
        "by_job_id",
        "by_user_app",
        "by_user_app_reqmem",
        "make_key_function",
    ),
    "online": ("AdaptiveKey",),
})

__all__ = [
    "AdaptiveKey",
    "GainRangePoint",
    "GroupKey",
    "GroupSizeDistribution",
    "GroupStats",
    "KeyFunction",
    "SimilarityIndex",
    "SimilarityReport",
    "build_groups",
    "by_job_id",
    "by_user_app",
    "by_user_app_reqmem",
    "gain_vs_range",
    "group_size_distribution",
    "make_key_function",
    "similarity_report",
]
