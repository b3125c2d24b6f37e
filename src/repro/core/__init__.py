"""Core contribution: estimation of actual job requirements.

This package implements the paper's estimator taxonomy (Table 1):

====================  ==========  ===============================================
 Estimator             Feedback    Similarity groups
====================  ==========  ===============================================
 SuccessiveApproximation  implicit   yes — Algorithm 1, the paper's main algorithm
 LastInstance             explicit   yes — reuse the previous instance's usage
 ReinforcementLearning    implicit   no  — global reduction policy learnt by RL
 RegressionEstimator      explicit   no  — request-parameters -> usage regression
====================  ==========  ===============================================

plus the reference points :class:`NoEstimation` (the conventional matcher:
trust the user's request — every "without estimation" curve in the paper) and
:class:`OracleEstimator` (perfect knowledge of actual usage — the upper
bound), and two extensions the paper sketches: a robust line-search variant
(§2.3's fix for mixed-usage groups) and multi-resource coordinate descent
(§2.3's generalization, :mod:`repro.core.multi_resource`).

Every other estimator speaks the same protocol (:class:`Estimator`): the
scheduler calls :meth:`~Estimator.estimate` at each submission to obtain the
per-node capacity to request from the matcher, and :meth:`~Estimator.observe`
with a :class:`Feedback` after each execution attempt.  Coordinate descent
estimates a vector per :class:`MultiResourceTask` instead; no scheduler runs
it, and :func:`repro.core.multi_resource.run_episode` drives it in isolation.

Exports load on first access (:func:`repro._lazy.lazy_exports`): ``from
repro.core import LastInstance`` imports :mod:`repro.core.last_instance` and
what it needs, not the whole package. Library code imports a name from the
submodule that defines it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "base": ("Estimator", "Feedback"),
    "baselines": ("NoEstimation", "OracleEstimator"),
    "hybrid": ("HybridEstimator",),
    "last_instance": ("LastInstance",),
    "linesearch": ("RobustLineSearch",),
    "multi_resource": (
        "CoordinateDescentEstimator",
        "MultiResourceTask",
        "ResourceVector",
    ),
    "online": ("OnlineSimilarityEstimator",),
    "regression": ("RegressionEstimator",),
    "reinforcement": ("ReinforcementLearning",),
    "successive": ("GroupState", "SuccessiveApproximation"),
})

__all__ = [
    "CoordinateDescentEstimator",
    "Estimator",
    "Feedback",
    "GroupState",
    "HybridEstimator",
    "LastInstance",
    "MultiResourceTask",
    "NoEstimation",
    "OnlineSimilarityEstimator",
    "OracleEstimator",
    "RegressionEstimator",
    "ReinforcementLearning",
    "ResourceVector",
    "RobustLineSearch",
    "SuccessiveApproximation",
]
