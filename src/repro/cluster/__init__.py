"""Heterogeneous cluster model.

The paper's clusters are sets of machines differing in memory capacity (e.g.
512 nodes with 32 MB plus 512 nodes with 24 MB).  A node is modelled by its
memory capacity alone, the one resource every experiment in the paper
exercises (§1.1).  This package provides

* :class:`repro.cluster.ladder.CapacityLadder` — the sorted capacity levels
  of a cluster, including the rounding operation of Algorithm 1 line 6
  ("rounded to the lowest resource capacity within the cluster >= E_i"),
* :class:`repro.cluster.cluster.Cluster` — allocation/release with free-node
  counts grouped by capacity level (machines of equal capacity are
  interchangeable, so the hot path never touches individual machines),
* :mod:`repro.cluster.builder` — convenience constructors for the paper's
  cluster configurations and the cluster-design tool derived from Figure 8.

Exports load on first access (:func:`repro._lazy.lazy_exports`): ``from
repro.cluster import Cluster`` imports :mod:`repro.cluster.cluster` and what
it needs, not the whole package. Library code imports a name from the
submodule that defines it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "builder": (
        "DesignChoice",
        "LadderDesign",
        "design_ladder",
        "design_second_tier",
        "evaluate_ladder",
        "homogeneous",
        "paper_cluster",
        "stable_level",
        "two_tier",
    ),
    "cluster": ("Allocation", "AllocationStrategy", "Cluster"),
    "ladder": ("CapacityLadder",),
})

__all__ = [
    "Allocation",
    "AllocationStrategy",
    "CapacityLadder",
    "Cluster",
    "DesignChoice",
    "LadderDesign",
    "design_ladder",
    "design_second_tier",
    "evaluate_ladder",
    "homogeneous",
    "paper_cluster",
    "stable_level",
    "two_tier",
]
