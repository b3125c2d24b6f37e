"""Node-level fault injection: failure/repair processes for the cluster.

§2.1 warns that implicit-feedback estimation "is more prone to false
positive cases" — jobs failing for reasons unrelated to resources, such as
"faulty machines".  :class:`~repro.sim.failure.FailureModel` already injects
*per-attempt* spurious crashes; this module models the machine-level cause:
nodes fail (configurable MTBF, optionally in correlated bursts), stay down
for a repair time (configurable MTTR), and come back.  The engine kills any
job running on a failed node mid-execution and resubmits it; from the
estimator's point of view that kill is indistinguishable from a genuine
resource failure unless explicit feedback is available — exactly the
false-positive channel the paper describes.

Model
-----
Cluster-wide failures form a Poisson process whose rate is
``total_nodes / node_mtbf`` (each of the N nodes failing independently with
exponential MTBF yields an aggregate exponential with mean ``mtbf / N``; for
simplicity the aggregate rate is held at the full node count rather than
the momentarily in-service count — with realistic MTBF >> MTTR the
difference is negligible, and a failure drawn while every node is already
down is simply a no-op).  Each failure event takes down one node — or, with
probability ``burst_prob``, a correlated burst of ``burst_size`` nodes (a
rack losing power, a switch dying).  Victims are drawn uniformly over
in-service nodes; a busy victim kills the execution holding it.  Each downed
node is repaired after an exponential time with mean ``node_mttr``.

All randomness flows through one :class:`numpy.random.Generator`, so runs
are bit-for-bit reproducible per seed, and a disabled injector
(``node_mtbf = inf``) draws nothing — the simulation is then point-for-point
identical to a run without fault injection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.util.rng import RngStream, as_generator
from repro.util.validation import check_in_range, check_integer, check_positive


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the node failure/repair process.

    ``node_mtbf`` is the mean time between failures *of one node* in
    seconds; ``inf`` (the default) disables fault injection entirely.
    ``node_mttr`` is the mean repair time.  With probability ``burst_prob``
    a failure event is a correlated burst taking down ``burst_size`` nodes
    at once instead of one.
    """

    node_mtbf: float = math.inf
    node_mttr: float = 3600.0
    burst_size: int = 1
    burst_prob: float = 0.0

    def __post_init__(self) -> None:
        if math.isnan(self.node_mtbf) or self.node_mtbf <= 0:
            raise ValueError(f"node_mtbf must be positive, got {self.node_mtbf!r}")
        check_positive("node_mttr", self.node_mttr)  # finite: nodes come back
        check_integer("burst_size", self.burst_size, minimum=1)
        check_in_range("burst_prob", self.burst_prob, 0.0, 1.0)

    @property
    def enabled(self) -> bool:
        """Whether the process produces any failures at all."""
        return math.isfinite(self.node_mtbf)


@dataclass
class FaultStats:
    """What the injector did during one run (reported on ``SimResult``)."""

    n_failure_events: int = 0
    n_nodes_failed: int = 0
    n_jobs_killed: int = 0
    node_downtime_seconds: float = 0.0


def fault_rng(seed: RngStream) -> np.random.Generator:
    """An RNG stream for fault injection, independent of the failure model's.

    Integer seeds are spawned through a tagged :class:`SeedSequence` so the
    fault process never perturbs the draws of
    :class:`~repro.sim.failure.FailureModel` (which uses ``default_rng(seed)``
    directly) — adding faults must not reshuffle the baseline's randomness.
    """
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(np.random.SeedSequence([int(seed), 0xFA117]))
    return as_generator(seed)


class NodeFaultInjector:
    """Samples the failure/repair process; the engine turns draws into events.

    The injector owns every draw: the timing (exponential inter-failure and
    repair delays), the burst size, the victim's level, whether the victim
    node is busy, and which execution on that level it kills.  The engines
    own the consequences (taking nodes out of service, killing executions,
    scheduling repair events).  The scalar
    :class:`~repro.sim.engine.Simulation` and the fast lane
    (:mod:`repro.sim.fault_lane`) both call these methods in the same
    order per failure event — :meth:`n_victims`, then per victim
    :meth:`choose_level`, :meth:`victim_is_busy`, :meth:`pick_victim` (on
    a kill) and :meth:`repair_delay`, then :meth:`next_failure_delay` — so
    both consume the stream identically.  ``stats`` accumulates across one
    scalar run.
    """

    def __init__(self, config: FaultConfig, rng: RngStream = None) -> None:
        self.config = config
        self.rng = as_generator(rng)
        self.stats = FaultStats()

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def next_failure_delay(self, n_nodes: int) -> float:
        """Time until the next cluster-wide failure event (``n_nodes`` total)."""
        if not self.enabled:
            return math.inf
        return float(self.rng.exponential(self.config.node_mtbf / max(n_nodes, 1)))

    def repair_delay(self) -> float:
        """How long one failed node stays down."""
        return float(self.rng.exponential(self.config.node_mttr))

    def n_victims(self) -> int:
        """Nodes taken down by this failure event (1, or a correlated burst)."""
        if (
            self.config.burst_prob > 0.0
            and self.config.burst_size > 1
            and self.rng.random() < self.config.burst_prob
        ):
            return self.config.burst_size
        return 1

    def choose_level(self, in_service: Mapping[float, int]) -> Optional[float]:
        """A capacity level drawn uniformly over in-service nodes.

        Returns ``None`` when every node is already down (the failure is a
        no-op).
        """
        levels: Sequence[float] = [lvl for lvl, n in in_service.items() if n > 0]
        if not levels:
            return None
        weights = np.array([in_service[lvl] for lvl in levels], dtype=float)
        idx = int(self.rng.choice(len(levels), p=weights / weights.sum()))
        return levels[idx]

    def victim_is_busy(self, free: int, in_service: int) -> bool:
        """Whether the failed node at a level with ``in_service`` nodes, of
        which ``free`` are free, is a busy one.

        The victim is uniform over the level's in-service nodes, so it is
        busy with probability ``busy / in_service``.  A level with no busy
        or no free node decides without a draw.
        """
        busy = in_service - free
        return busy > 0 and (free == 0 or self.rng.random() < busy / in_service)

    def pick_victim(self, weights: Sequence[int]) -> int:
        """Index of the execution a busy victim node belongs to.

        ``weights`` are the nodes each candidate execution holds at the
        failed level, in the engine's start order: a uniformly random busy
        node there belongs to each with probability proportional to its
        weight.  A single candidate is chosen without a draw.
        """
        if len(weights) == 1:
            return 0
        total = float(sum(weights))
        return int(self.rng.choice(len(weights), p=[w / total for w in weights]))
