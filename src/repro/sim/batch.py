"""Array-native batched engine: run K configs over one shared trace.

A parameter sweep replays the *same* arrival stream through the scalar
engine once per (estimator, policy, cluster, fault) configuration; at ~35k
jobs/s the event loop — not the arrival decode — dominates, and every config
pays it in full.  :func:`simulate_batch` amortizes the shared work: arrivals
are decoded once into plain column lists (straight from a columnar trace's
arrays, so no :class:`~repro.workload.job.Job` is built for them), the
similarity groups, per-ladder index columns and runtime-estimate columns
are resolved once per batch, and each config keeps array-backed
queue/cluster/estimator-group state instead of the scalar engine's
per-event object graph.

Two lane implementations sit behind one driver:

* **Fast lane** — FCFS, SJF or EASY backfilling over a best-fit or
  first-fit cluster with any estimator, spurious failures allowed, no fault
  injection / observer / timeline.  Queue entries are small mutable lists
  over row indices, allocation is a free-count list per capacity level with
  a precomputed fill-order table per (strategy, ladder index), completions
  are raw heap tuples, and results are assembled after the run, their
  attempt records left raw (:class:`~repro.sim.records.LazyAttempts`) and
  their job summaries columnar (:class:`~repro.sim.records.LazySummaries`)
  until someone reads one.  Estimation takes one of three modes:

  - :class:`~repro.core.baselines.NoEstimation` — the request, verbatim;
  - default-keyed :class:`~repro.core.successive.SuccessiveApproximation`
    without trajectory recording — Algorithm 1 inlined with the exact
    float-op order of the scalar code, its arrival-time estimates served
    from a per-group cache memoized on the group's observe-version, and
    the learned group state written back into the caller's estimator when
    the lane finishes.  A lane seeds its groups in closed form
    (:func:`seed_group_arrays`, :func:`seed_arrival_caches`): Algorithm 1
    opens a group with ``E_i = R``, so a fresh group's first estimate is
    its request and it never probes;
  - **protocol mode** (:mod:`repro.sim.protocol_lane`) — every other
    estimator, driven through its public ``estimate``/``estimate_version``/
    ``observe`` methods with the arguments and in the order the scalar
    engine uses, so the estimator learns in place exactly as in a scalar
    run.
* **Engine lane** — every other configuration (other policies/strategies,
  fault injection, observers, timeline recording) wraps a scalar
  :class:`~repro.sim.engine.Simulation` via its streaming API
  (``begin_stream``/``stream_arrival``/``step_internal``/``end_stream``),
  which replays ``run()``'s per-event sequence verbatim.  Slower, but the
  bit-identical guarantee holds for the *whole* configuration space.

Lanes run one after another, each built just before it runs, and share
only read-only state: one decoded trace and its group resolution.  Each
lane's own run loop preserves the scalar event order: internal events
(completions, node faults/repairs) live on the lane's heap keyed
``(time, kind)`` exactly as the scalar heap orders them, and a heap event
beats an arrival at the same instant iff its kind sorts before
``EventKind.ARRIVAL`` — the scalar tie-break.  Fast-lane heaps hold only
completions (kind 0), so their arrival check reduces to
``heap[0][0] <= t_arrival``.

:func:`simulate_batch` runs with the cyclic garbage collector paused.  The
lanes allocate heap tuples, queue entries and result records fast, and
every allocation burst would otherwise trigger collector scans over all
the objects the process already holds (decoded traces, earlier results),
about 30% of a ``simulate()`` call, to free nothing: the lanes make no
reference cycles (``tests/sim/test_gc_pause.py`` checks every lane kind).
The pause is refcounted across threads under a module lock, and a fork
hook ends it in a child forked mid-pause (a sweep pool forked from one
service thread while another simulates).  The scalar
:meth:`Simulation.run` stays unpaused: it is the oracle, and runs user
observers.

Every batched config is guaranteed to produce a :class:`SimResult`
bit-identical (see :meth:`SimResult.fingerprint`) to a scalar
:class:`~repro.sim.engine.Simulation` with the same parameters; the
fingerprint suite in ``tests/sim/test_engine_fingerprints.py`` and the
differential tests in ``tests/sim/test_batch.py`` gate this.
:func:`repro.sim.engine.simulate` runs its config here as a one-lane batch
whenever :func:`fast_lane_eligible` accepts it.
"""

from __future__ import annotations

import gc as _gc
import os as _os
import threading as _threading
from bisect import bisect_left as _bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from collections import deque
from heapq import heappush as _heappush, heappop as _heappop
from math import isfinite as _isfinite, inf as _inf
from operator import itemgetter as _itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.base import Estimator
from repro.core.baselines import NoEstimation
from repro.core.successive import GroupState, SuccessiveApproximation
from repro.obs.base import SimObserver
from repro.sim.engine import Simulation
from repro.sim.failure import FailureModel
from repro.sim.faults import FaultConfig, NodeFaultInjector, fault_rng
from repro.sim.policies import EasyBackfilling, Fcfs, Policy, ShortestJobFirst
from repro.sim.records import LazyAttempts, LazySummaries, SimResult
from repro.similarity.keys import by_user_app_reqmem
from repro.util.rng import RngStream, as_generator
from repro.workload.job import LazyJobs, Workload

#: Same expression as successive.py's retry-floor bump, evaluated once.
_ONE_PLUS_EPS = 1 + 1e-12

#: Heap-entry kind of an arrival in a lane's tie-break — the scalar heap's
#: ``int(EventKind.ARRIVAL)``.
_ARRIVAL_KIND = 2

#: Stable running-view sort key (mirrors the scalar's
#: ``sorted(running, key=lambda r: r.end_time)``).
_END_TIME = _itemgetter(0)

#: GroupState fields a run changes (the request is fixed at group open).
_LEARNED_FIELDS = (
    "estimate", "alpha", "last_safe", "successes", "failures", "probe",
    "safe_failures", "version",
)

#: Cluster strategies the fast lane's fill-order table models.
_FAST_STRATEGIES = ("best_fit", "first_fit")

#: Cyclic-GC pause state shared by every thread (see :func:`_gc_paused`):
#: the nesting depth, and whether the outermost entry found the collector
#: enabled.
_gc_lock = _threading.Lock()
_gc_depth = 0
_gc_restore = False


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Hold the cyclic garbage collector off for the body.

    Refcounted across threads: only the outermost entry records
    ``gc.isenabled()`` and disables the collector, and only the last exit
    re-enables it, and only if it was enabled before.  The exit runs even
    when the body raises.  ``gc.get_threshold()`` is never touched.  The
    state changes are ordered so that a fork taken between any two steps
    leaves the child's hook (:func:`_gc_after_fork_in_child`) a correct
    picture.
    """
    global _gc_depth, _gc_restore
    with _gc_lock:
        if _gc_depth == 0:
            _gc_restore = _gc.isenabled()
            _gc_depth = 1
            _gc.disable()
        else:
            _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            if _gc_depth == 1:
                if _gc_restore:
                    _gc.enable()
                _gc_depth = 0
            elif _gc_depth > 1:
                _gc_depth -= 1
            # Depth 0: a forked child whose hook already ended the pause.


def _gc_after_fork_in_child() -> None:
    """End the pause in a forked child, where only the forking thread runs.

    A pool forked from one thread while another is inside the pause would
    otherwise start with the lock held and the collector off for good: the
    child gets a fresh lock, depth zero, and the collector state saved
    before the outermost pause.
    """
    global _gc_lock, _gc_depth
    _gc_lock = _threading.Lock()
    if _gc_depth:
        _gc_depth = 0
        if _gc_restore:
            _gc.enable()


_os.register_at_fork(after_in_child=_gc_after_fork_in_child)


@dataclass
class BatchConfig:
    """One lane of a batched run: everything :func:`simulate` takes except
    the workload, which all lanes of a batch share.
    ``record_timeline``/``observer`` force the lane onto the engine path;
    the defaults keep it eligible for the fast lane.

    ``collect_attempts`` keeps the lane's per-attempt trace, as in
    :func:`simulate`; sweeps and the service, which only aggregate, turn it
    off.  A fast lane keeps the trace as raw tuples, and its result's
    ``attempts`` (a :class:`~repro.sim.records.LazyAttempts`) builds the
    :class:`~repro.sim.records.AttemptRecord` list on first read.
    """

    cluster: Cluster
    estimator: Optional[Estimator] = None
    policy: Optional[Policy] = None
    seed: RngStream = 0
    spurious_failure_prob: float = 0.0
    fault_config: Optional[FaultConfig] = None
    record_timeline: bool = False
    observer: Optional[SimObserver] = None
    collect_attempts: bool = True


def _jobs_exist(workload: Workload) -> bool:
    """Whether ``workload``'s :class:`Job` objects exist already: a job
    list, or a columnar workload some consumer has materialized."""
    jobs = workload.jobs
    return not isinstance(jobs, LazyJobs) or jobs.materialized()


class _SharedTrace:
    """The batch's shared arrival stream, decoded once per workload.

    The hot columns are plain-Python lists: they index faster than NumPy
    scalars in the per-event loops.  A columnar workload whose jobs do not
    exist yet decodes them straight from its arrays with ``tolist()``,
    which yields the doubles :meth:`JobColumns.to_jobs` would put in the
    jobs, so inlined fast lanes never build a :class:`Job`.  A workload
    whose jobs exist (a job list, or columns some earlier consumer already
    materialized) decodes from the jobs, one ``itemgetter`` pass per
    column, so the lists share their numbers instead of holding copies.
    :attr:`jobs` is built on first use: only protocol lanes and engine
    lanes ask for it.

    Per-ladder derived columns (the ``bisect_left`` index of every row's
    request, the per-group request indices, and the float→index memo the
    estimator paths share) are computed once per distinct capacity ladder
    and shared across all lanes on that ladder — K lanes pay one
    ``np.searchsorted`` pass instead of K×n dict probes.
    """

    __slots__ = (
        "workload", "columns", "n", "_jobs", "submit", "run_time", "procs",
        "req_mem", "used_mem", "job_id", "float_typed", "_groups",
        "_group_first", "_group_keys", "_ladders", "_rte",
    )

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.columns = cols = workload.as_columns()
        self.n = len(cols)
        self._jobs: Optional[list] = None
        if not _jobs_exist(workload):
            self.job_id: List[int] = cols.job_id.tolist()
            self.submit: List[float] = cols.submit_time.tolist()
            self.run_time: List[float] = cols.run_time.tolist()
            self.procs: List[int] = cols.procs.tolist()
            self.req_mem: List[float] = cols.req_mem.tolist()
            self.used_mem: List[float] = cols.used_mem.tolist()
            self.float_typed = True
        else:
            # Kept for materialized columnar workloads too: decoding those
            # from the arrays would hold a second copy of every float while
            # the jobs are alive, which raised a repeated simulate() call's
            # peak RSS by ~4% (single-run benchmark, 20k jobs).
            jobs = self.jobs
            self.job_id = list(map(_itemgetter(0), jobs))
            self.submit = list(map(_itemgetter(1), jobs))
            self.run_time = list(map(_itemgetter(2), jobs))
            self.procs = list(map(_itemgetter(3), jobs))
            self.req_mem = list(map(_itemgetter(4), jobs))
            self.used_mem = list(map(_itemgetter(5), jobs))
            # Columnar traces decode to floats.  A hand-built job list may
            # hold ints, which the scalar engine carries into its results
            # as ints while the fast lane seeds its estimates from a
            # float64 group-request array: such a trace runs every lane on
            # the engine lane.
            self.float_typed = isinstance(workload.jobs, LazyJobs) or all(
                set(map(type, column)) <= {float}
                for column in (self.submit, self.run_time, self.req_mem,
                               self.used_mem)
            )
        self._groups = None
        self._group_first = None
        self._group_keys = None
        self._ladders: Dict[tuple, dict] = {}
        self._rte = None

    @property
    def jobs(self) -> list:
        """Row-aligned :class:`Job` objects, in arrival order (built on
        first use: this materializes a columnar workload)."""
        if self._jobs is None:
            self._jobs = list(self.workload)
        return self._jobs

    def jobs_at(self, rows: List[int]) -> list:
        """The :class:`Job` objects at ``rows``, without materializing a
        columnar workload's whole job list."""
        if not rows:
            return []
        if _jobs_exist(self.workload):
            jobs = self.workload.jobs
            return [jobs[i] for i in rows]
        return self.columns.select(np.asarray(rows, dtype=np.intp)).to_jobs()

    def check_submit_times(self) -> None:
        """Refuse a non-finite arrival time with the scalar engine's error.

        :meth:`Simulation.run` schedules every arrival before the first
        event and raises on the first non-finite submit time, in arrival
        order.  A lane would otherwise run such a trace whenever the job
        never starts, e.g. because it is rejected.  Lanes call this when
        they start, so every engine refuses the trace the same way.
        """
        finite = np.isfinite(self.columns.submit_time)
        if not finite.all():
            bad = self.submit[int(np.argmin(finite))]
            raise ValueError(f"event time must be finite, got {bad!r}")

    def runtime_estimates(self) -> List[float]:
        """Per-row ``Job.runtime_estimate`` (req_time, else run_time) —
        the scheduler-visible runtime SJF/backfilling sort by.  One
        vectorized ``np.where`` instead of n property calls."""
        if self._rte is None:
            cols = self.columns
            self._rte = np.where(
                cols.req_time > 0, cols.req_time, cols.run_time
            ).tolist()
        return self._rte

    def ladder_cache(self, levels: tuple) -> dict:
        """Shared per-ladder derived state, keyed by the levels tuple."""
        cache = self._ladders.get(levels)
        if cache is None:
            arr = np.asarray(levels, dtype=np.float64)
            cache = {
                "arr": arr,
                "row_req_idx": np.searchsorted(
                    arr, self.columns.req_mem, side="left"
                ).tolist(),
                "group_req_idx": None,
                "memo": {},
            }
            self._ladders[levels] = cache
        return cache

    def group_req_indices(self, levels: tuple) -> List[int]:
        """Per-group ``bisect_left(levels, group_req)`` (vectorized, memoized
        per ladder)."""
        cache = self.ladder_cache(levels)
        if cache["group_req_idx"] is None:
            _, group_req = self.group_info()
            cache["group_req_idx"] = np.searchsorted(
                cache["arr"], group_req, side="left"
            ).tolist()
        return cache["group_req_idx"]

    def group_info(self) -> Tuple[List[int], np.ndarray]:
        """Vectorized similarity-group resolution for the paper's key.

        Returns ``(gid, group_req)``: per-row group ids and the per-group
        request (every member of a ``(user, app, req_mem)`` group shares its
        ``req_mem`` by construction).  Groups are numbered in lexicographic
        key order, each remembering its first row.  One stable three-key
        ``np.lexsort`` plus a neighbour diff replaces the scalar estimator's
        per-job dict probes; it gives exactly what ``np.unique`` over a
        structured ``(user, app, req_mem)`` view gives, at a seventh of the
        cost, and like the scalar dict key it merges ``-0.0`` with ``0.0``.
        """
        if self._groups is None:
            cols = self.columns
            order = np.lexsort((cols.req_mem, cols.app_id, cols.user_id))
            user = cols.user_id[order]
            app = cols.app_id[order]
            req = cols.req_mem[order]
            opens = np.ones(self.n, dtype=bool)
            opens[1:] = (
                (user[1:] != user[:-1]) | (app[1:] != app[:-1])
                | (req[1:] != req[:-1])
            )
            gid = np.empty(self.n, dtype=np.intp)
            gid[order] = np.cumsum(opens) - 1
            self._groups = (gid.tolist(), req[opens])
            self._group_first = order[opens]
        return self._groups

    def group_keys(self) -> Tuple[List[int], list]:
        """``(group ids, similarity keys)`` of every group, in the order
        the groups' first members arrive — the order the scalar estimator
        opens them in.  Keys are the paper's key, which :meth:`group_info`
        groups by."""
        if self._group_keys is None:
            self.group_info()
            first = self._group_first
            order = np.argsort(first, kind="stable")
            rows = first[order]
            cols = self.columns
            # by_user_app_reqmem's (user_id, app_id, req_mem), off the
            # columns: the same Python scalars the jobs would hold.
            keys = list(zip(
                cols.user_id[rows].tolist(), cols.app_id[rows].tolist(),
                cols.req_mem[rows].tolist(),
            ))
            self._group_keys = (order.tolist(), keys)
        return self._group_keys


def seed_group_arrays(
    trace: _SharedTrace, alpha: float
) -> Tuple[List[float], List[float], List[float]]:
    """Seed one lane's Algorithm 1 group state in closed form.

    Lines 3-4 of Algorithm 1 open each group with ``E_i = R`` and
    ``alpha_i = alpha``; pre-seeding every group (rather than lazily on
    first member) is observationally identical since an untouched group's
    state equals its seed.  Returns ``(estimate, alpha, group_req)`` as
    per-group lists.  ``alpha`` is kept verbatim, as ``GroupState`` keeps
    it: an int ``alpha`` stays an int.
    """
    greq = trace.group_info()[1].tolist()
    return list(greq), [alpha] * len(greq), greq


def seed_arrival_caches(
    group_req: List[float], group_req_idx: List[int]
) -> Tuple[List[float], List[int], List[float], List[int]]:
    """The arrival-estimate cache of freshly opened groups.

    Each cell holds what the scalar ``SuccessiveApproximation.estimate``
    returns for a *first* submission (attempt 0, so no per-job retry
    floor), plus the serial-probing decision inputs.  A fresh group's
    estimate is its request, so the estimate is the request itself (the
    ladder round-up, clamped to the request) and the group does not probe
    (it probes only while its estimate is below its safe value, which is
    the request until the group's first success).

    Returns ``(val, vidx, preq, pidx)``, one entry per group:

    * ``val``/``vidx`` — the estimate an arrival gets, and its ladder
      index;
    * ``preq`` — the safe fallback requirement when the group's probe slot
      is already held by another job, or ``-1.0`` where the probe branch
      does not apply (then ``val`` is unconditional);
    * ``pidx`` — ``preq``'s ladder index (0 where unused).

    Group state mutates only under ``observe`` (which bumps the group's
    version), so the lane memoizes each cell on that version and refills
    it scalar-side as versions move.
    """
    n_groups = len(group_req)
    return (
        list(group_req), list(group_req_idx),
        [-1.0] * n_groups, [0] * n_groups,
    )


class _FastLane:
    """Array-backed FCFS/SJF/backfilling lane, bit-identical to the scalar
    engine.

    Hot state is plain lists (free counts per level, per-row counters,
    per-group Algorithm 1 state seeded in closed form); queue
    entries are mutable ``[row, attempt, requirement, enqueue_time,
    req_version, req_idx]`` lists; completions are raw heap tuples.  FCFS
    runs the inlined :meth:`_run_fcfs` driver; SJF and backfilling run the
    generic :meth:`_run_events` loop, which dispatches the scheduling pass
    through ``self.sched``.  All three share the same
    refresh/allocate/outcome blocks, inlined with the scalar float-op
    order.  A completion appends one raw attempt tuple, its allocation the
    unsorted ``(ladder index, take)`` pairs the lane filled, and job
    summaries stay the per-row lists they were accumulated in: records of
    either kind are built only when a reader asks, so the per-event path
    allocates almost nothing.

    This class estimates with :class:`NoEstimation` or the inlined
    Algorithm 1; :class:`~repro.sim.protocol_lane.ProtocolLane` overrides
    the estimation hooks (:meth:`feed_arrival`, :meth:`_requeue_failed`,
    :meth:`_refresh_head`, :meth:`_observe`) for every other estimator.
    """

    __slots__ = (
        "trace", "cluster", "est", "spurious", "uniform", "random",
        "c_procs", "c_req_mem", "c_run_time", "c_used_mem", "c_job_id",
        "c_rte", "row_req_idx",
        "levels", "nlev", "free", "totals", "total_suffix", "fill",
        "idx_memo", "queue", "heap", "seq",
        "policy_name", "wake", "sched", "track_running", "running", "is_fcfs",
        "mode_none", "refresh", "gid", "gest", "galpha", "greq", "greq_idx",
        "glast_safe", "gprobe", "gsafe_fail", "gver", "gsucc", "gfail",
        "failed_at",
        "cache_on", "gc_ver", "gc_val", "gc_vidx", "gc_preq", "gc_pidx",
        "beta", "serial_probing", "explicit_guard",
        "max_reduced", "mixed_threshold",
        "n_att", "n_resfail", "wasted_job", "final_start", "final_end",
        "final_req", "final_granted", "final_reduced", "completed", "dead",
        "rejected_rows", "raw_attempts", "collect",
        "n_attempts", "n_resource_failures", "n_spurious", "n_reduced",
        "useful", "wasted", "t_last_end", "__weakref__",
    )

    def __init__(
        self,
        trace: _SharedTrace,
        config: BatchConfig,
        estimator: Estimator,
        policy: Policy,
    ) -> None:
        self.trace = trace
        self.cluster = config.cluster
        self.est = estimator
        self.spurious = config.spurious_failure_prob
        rng = as_generator(config.seed)
        self.uniform = rng.uniform
        self.random = rng.random
        self.collect = config.collect_attempts

        ladder = config.cluster.ladder
        self.levels: Tuple[float, ...] = ladder.levels
        self.nlev = len(self.levels)
        self.totals = [config.cluster.total_at_level(l) for l in self.levels]
        self.free = list(self.totals)
        # Suffix sums of the inventory: fits(procs, req) is one list index
        # plus one comparison (requirement indices travel with the queue
        # entries, so the hot path never bisects).
        suffix = [0] * (self.nlev + 1)
        for j in range(self.nlev - 1, -1, -1):
            suffix[j] = suffix[j + 1] + self.totals[j]
        self.total_suffix = suffix
        shared = trace.ladder_cache(self.levels)
        self.idx_memo: Dict[float, int] = shared["memo"]
        self.row_req_idx: List[int] = shared["row_req_idx"]
        # Allocation fill order per requirement index: ascending eligible
        # levels for best_fit, declaration order filtered to the eligible
        # set for first_fit — the scalar Cluster._level_order, tabulated.
        nlev = self.nlev
        if config.cluster.strategy == "first_fit":
            declared = [
                self.levels.index(lvl)
                for lvl in config.cluster._declared_order
            ]
            self.fill = [
                tuple(j for j in declared if j >= idx)
                for idx in range(nlev + 1)
            ]
        else:
            self.fill = [
                tuple(range(idx, nlev)) for idx in range(nlev + 1)
            ]

        # Hot-path column access goes through plain Python lists bound
        # directly on the lane (shared across lanes; never mutated).
        self.c_procs = trace.procs
        self.c_req_mem = trace.req_mem
        self.c_run_time = trace.run_time
        self.c_used_mem = trace.used_mem
        self.c_job_id = trace.job_id

        self.queue: deque = deque()
        self.heap: List[tuple] = []
        self.seq = 0

        kind = type(policy)
        self.policy_name = policy.name
        self.wake = bool(policy.tail_wakes)
        self.track_running = kind is EasyBackfilling
        self.running: Dict[int, tuple] = {}
        self.is_fcfs = kind is Fcfs
        # The scheduling pass of the generic _run_events loop; FCFS lanes
        # run _run_fcfs instead.  A bound method held by its own lane is a
        # reference cycle: finish() drops it so a finished lane is freed by
        # refcount.
        if kind is Fcfs:
            self.sched = None
            self.c_rte = None
        else:
            self.sched = (
                self._sched_sjf if kind is ShortestJobFirst else self._sched_bf
            )
            self.c_rte = trace.runtime_estimates()

        self._setup_estimator(estimator)

        n = trace.n
        self.n_att = [0] * n
        self.n_resfail = [0] * n
        self.wasted_job = [0.0] * n
        self.final_start: List[Optional[float]] = [None] * n
        self.final_end: List[Optional[float]] = [None] * n
        self.final_req = [0.0] * n
        self.final_granted = [0.0] * n
        self.final_reduced = [False] * n
        self.completed = [False] * n
        self.dead = [False] * n
        self.rejected_rows: List[int] = []
        self.raw_attempts: List[tuple] = []

        self.n_attempts = 0
        self.n_resource_failures = 0
        self.n_spurious = 0
        self.n_reduced = 0
        self.useful = 0.0
        self.wasted = 0.0
        self.t_last_end = 0.0

    def _setup_estimator(self, estimator: Estimator) -> None:
        """Estimator state for the none and inlined Algorithm 1 modes:
        the successive lanes' group rows start from the closed-form seed
        of freshly opened groups."""
        self.mode_none = type(estimator) is NoEstimation
        self.refresh = not self.mode_none
        self.cache_on = False
        if self.mode_none:
            self.gid = None
            return
        # Seeding comes first, so the similarity-group resolution it
        # triggers on a fresh trace is timed as part of seeding.
        self.gest, self.galpha, self.greq = seed_group_arrays(
            self.trace, estimator.alpha
        )
        self.gid = self.trace.group_info()[0]
        self.greq_idx: List[int] = self.trace.group_req_indices(self.levels)
        n_groups = len(self.greq)
        self.glast_safe: List[Optional[float]] = [None] * n_groups
        self.gprobe: List[Optional[Tuple[int, int]]] = [None] * n_groups
        self.gsafe_fail = [0] * n_groups
        self.gver = [0] * n_groups
        # GroupState.successes/failures, counted exactly as observe does.
        self.gsucc = [0] * n_groups
        self.gfail = [0] * n_groups
        self.failed_at: Dict[int, float] = dict(estimator._failed_at)
        self.beta = estimator.beta
        self.serial_probing = estimator.serial_probing
        self.explicit_guard = estimator.explicit_guard
        self.max_reduced = estimator.max_reduced_attempts
        self.mixed_threshold = estimator.mixed_group_threshold
        # Arrival-estimate cache, memoized on the group's observe version
        # (probe *takes* don't bump it, and first-taker-wins is stable
        # within a version).  Valid while an attempt-0 row cannot carry a
        # retry floor: ``Workload`` rejects repeated job ids, so only floors
        # an earlier run left in the estimator could apply.
        self.cache_on = self.max_reduced > 0 and not self.failed_at
        self.gc_ver = [0] * n_groups
        (self.gc_val, self.gc_vidx, self.gc_preq,
         self.gc_pidx) = seed_arrival_caches(self.greq, self.greq_idx)
        if estimator._groups:
            self._resume(estimator._groups)

    def _resume(self, learned: dict) -> None:
        """Continue from an earlier run's learning, as the scalar engine
        does: each of this trace's groups the estimator already holds
        starts from that group's state, its arrival-estimate cache
        invalidated (the seed assumed a fresh group)."""
        order, keys = self.trace.group_keys()
        for g, key in zip(order, keys):
            state = learned.get(key)
            if state is not None:
                self.gest[g] = state.estimate
                self.galpha[g] = state.alpha
                self.glast_safe[g] = state.last_safe
                self.gprobe[g] = state.probe
                self.gsafe_fail[g] = state.safe_failures
                self.gver[g] = state.version
                self.gsucc[g] = state.successes
                self.gfail[g] = state.failures
                self.gc_ver[g] = -1

    # ----------------------------------------------------------- allocation
    def _idx(self, value: float) -> int:
        """Memoized ``bisect_left(levels, value)`` — the ladder query."""
        memo = self.idx_memo
        i = memo.get(value)
        if i is None:
            memo[value] = i = _bisect_left(self.levels, value)
        return i

    # ------------------------------------------------------------ estimator
    def _estimate(self, i: int, attempt: int) -> float:
        req = self.c_req_mem[i]
        if attempt >= self.max_reduced:
            return req
        g = self.gid[i]
        est = self.gest[g]
        memo = self.idx_memo
        levels = self.levels
        nlev = self.nlev
        idx = memo.get(est)
        if idx is None:
            memo[est] = idx = _bisect_left(levels, est)
        if idx == nlev:  # round_up(estimate) is None
            return req
        rounded = levels[idx]
        e_prime = rounded if rounded < req else req
        last_safe = self.glast_safe[g]
        safe_value = self.greq[g] if last_safe is None else last_safe
        if self.serial_probing and est < safe_value:
            sidx = memo.get(safe_value)
            if sidx is None:
                memo[safe_value] = sidx = _bisect_left(levels, safe_value)
            if sidx == nlev or levels[sidx] > req:
                safe_req = req
            else:
                safe_req = levels[sidx]
            if e_prime < safe_req:
                ticket = (self.c_job_id[i], attempt)
                probe = self.gprobe[g]
                if probe is None or probe == ticket:
                    self.gprobe[g] = ticket
                else:
                    e_prime = safe_req
        floor = self.failed_at.get(self.c_job_id[i])
        if floor is not None and e_prime <= floor:
            bump = floor * _ONE_PLUS_EPS
            bidx = memo.get(bump)
            if bidx is None:
                memo[bump] = bidx = _bisect_left(levels, bump)
            bumped = levels[bidx] if bidx < nlev else req
            raised = bumped if bumped >= floor else floor  # max(bumped, floor)
            e_prime = raised if raised < req else req  # clamp_to_request
            if e_prime <= floor:
                e_prime = req
        return e_prime

    def _refill(self, g: int) -> None:
        """Recompute group ``g``'s arrival-estimate cache at its current
        version — the scalar ``estimate`` walk minus the per-job parts the
        cache's validity argument excludes (attempt 0, no retry floor)."""
        levels = self.levels
        nlev = self.nlev
        memo = self.idx_memo
        req = self.greq[g]
        rqi = self.greq_idx[g]
        est = self.gest[g]
        idx = memo.get(est)
        if idx is None:
            memo[est] = idx = _bisect_left(levels, est)
        preq = -1.0
        pidx = 0
        if idx == nlev:
            val, vidx = req, rqi
        else:
            rounded = levels[idx]
            if rounded < req:
                val, vidx = rounded, idx
            else:
                val, vidx = req, rqi
            if self.serial_probing:
                last_safe = self.glast_safe[g]
                safe_value = req if last_safe is None else last_safe
                if est < safe_value:
                    sidx = memo.get(safe_value)
                    if sidx is None:
                        memo[safe_value] = sidx = _bisect_left(
                            levels, safe_value
                        )
                    if sidx == nlev or levels[sidx] > req:
                        safe_req, sridx = req, rqi
                    else:
                        safe_req, sridx = levels[sidx], sidx
                    if val < safe_req:
                        preq = safe_req
                        pidx = sridx
        self.gc_val[g] = val
        self.gc_vidx[g] = vidx
        self.gc_preq[g] = preq
        self.gc_pidx[g] = pidx
        self.gc_ver[g] = self.gver[g]

    def _arrival_estimate(self, i: int) -> Tuple[float, int]:
        """Cached attempt-0 estimate for row ``i``: ``(requirement, ladder
        index)``, replaying the probe take exactly as the scalar does."""
        g = self.gid[i]
        if self.gc_ver[g] != self.gver[g]:
            self._refill(g)
        preq = self.gc_preq[g]
        if preq < 0.0:
            return self.gc_val[g], self.gc_vidx[g]
        ticket = (self.c_job_id[i], 0)
        probe = self.gprobe[g]
        if probe is None or probe == ticket:
            self.gprobe[g] = ticket
            return self.gc_val[g], self.gc_vidx[g]
        return preq, self.gc_pidx[g]

    def _observe(
        self, i: int, attempt: int, succeeded: bool,
        requirement: float, granted: float,
    ) -> None:
        g = self.gid[i]
        job_id = self.c_job_id[i]
        gver = self.gver
        gver[g] += 1
        gprobe = self.gprobe
        if gprobe[g] == (job_id, attempt):
            gprobe[g] = None
        guard = self.explicit_guard and granted >= self.c_used_mem[i]
        failed_at = self.failed_at
        if succeeded:
            failed_at.pop(job_id, None)
        elif not guard:
            prev = failed_at.get(job_id, 0.0)
            failed_at[job_id] = prev if prev >= requirement else requirement
        if attempt >= self.max_reduced:
            # Per-job guard outcome: counted, group state stays as learned.
            if succeeded:
                self.gsucc[g] += 1
            else:
                self.gfail[g] += 1
            return
        glast_safe = self.glast_safe
        greq = self.greq
        galpha = self.galpha
        if succeeded:
            last_safe = glast_safe[g]
            safe_value = greq[g] if last_safe is None else last_safe
            if requirement <= safe_value:
                glast_safe[g] = requirement
                self.gsafe_fail[g] = 0
            self.gest[g] = requirement / galpha[g]
            self.gsucc[g] += 1
            return
        if guard:
            return  # a false positive: neither counted nor learned from
        self.gfail[g] += 1
        last_safe = glast_safe[g]
        safe_value = greq[g] if last_safe is None else last_safe
        if self.mixed_threshold and requirement >= safe_value:
            gsafe_fail = self.gsafe_fail
            gsafe_fail[g] += 1
            if gsafe_fail[g] >= self.mixed_threshold:
                bump = safe_value * _ONE_PLUS_EPS
                memo = self.idx_memo
                bidx = memo.get(bump)
                if bidx is None:
                    memo[bump] = bidx = _bisect_left(self.levels, bump)
                request = greq[g]
                above = self.levels[bidx] if bidx < self.nlev else request
                glast_safe[g] = above if above < request else request
                gsafe_fail[g] = 0
        alpha = galpha[g] * self.beta
        galpha[g] = alpha if alpha >= 1.0 else 1.0
        last_safe = glast_safe[g]
        safe_value = greq[g] if last_safe is None else last_safe
        self.gest[g] = safe_value / galpha[g]

    # --------------------------------------------------------------- events
    def feed_arrival(self, now: float, i: int) -> None:
        # The scalar _on_arrival + _enqueue(attempt=0, at_head=False),
        # inlined: one call per (lane, arrival) is the whole hot-path cost
        # of arrival ingestion.
        if self.mode_none:
            requirement = self.c_req_mem[i]
            version = -1
            ridx = self.row_req_idx[i]
        elif self.cache_on:
            requirement, ridx = self._arrival_estimate(i)
            version = self.gver[self.gid[i]]
        else:
            requirement = self._estimate(i, 0)
            version = self.gver[self.gid[i]]
            ridx = self._idx(requirement)
        if self.total_suffix[ridx] < self.c_procs[i]:
            self.rejected_rows.append(i)
            self.dead[i] = True
            return
        queue = self.queue
        queue.append([i, 0, requirement, now, version, ridx])
        # Policy.tail_wakes: strict head-of-line disciplines (FCFS) skip the
        # pass for tail appends while the head stays blocked; an append to
        # an empty queue is the new head and always wakes.
        if self.wake or len(queue) == 1:
            self.sched(now)

    def _requeue_failed(self, now: float, i: int, attempt: int) -> None:
        """Scalar _enqueue(attempt>0, at_head=True): a failed resubmission."""
        if self.mode_none:
            requirement = self.c_req_mem[i]
            version = -1
            ridx = self.row_req_idx[i]
        else:
            requirement = self._estimate(i, attempt)
            version = self.gver[self.gid[i]]
            ridx = self._idx(requirement)
            if self.total_suffix[ridx] < self.c_procs[i]:
                requirement = self.c_req_mem[i]
                ridx = self.row_req_idx[i]
        if self.total_suffix[ridx] < self.c_procs[i]:
            self.rejected_rows.append(i)
            self.dead[i] = True
            return
        self.queue.appendleft([i, attempt, requirement, now, version, ridx])

    # ------------------------------------------------------------ schedulers
    def _refresh_head(self, head: List) -> None:
        """Late-binding head refresh, memoized on the group's version (the
        scalar ``_schedule_pass`` preamble).  Applies to the queue *head*
        only — exactly where the scalar engine refreshes."""
        i = head[0]
        version = self.gver[self.gid[i]]
        if version == head[4]:
            return
        head[4] = version
        attempt = head[1]
        if attempt == 0 and self.cache_on:
            refreshed, ridx = self._arrival_estimate(i)
        else:
            refreshed = self._estimate(i, attempt)
            ridx = self._idx(refreshed)
        if refreshed != head[2] and self.total_suffix[ridx] >= self.c_procs[i]:
            head[2] = refreshed
            head[5] = ridx

    def _start_entry(self, now: float, entry: List) -> Optional[tuple]:
        """Allocate, draw the outcome, and push the completion — the scalar
        ``_start`` inlined.  Returns the running record for policies that
        track the running set (backfilling), else None."""
        free = self.free
        levels = self.levels
        i = entry[0]
        procs = self.c_procs[i]
        counts = []
        remaining = procs
        min_j = self.nlev
        for j in self.fill[entry[5]]:
            take = free[j]
            if take > 0:
                if j < min_j:
                    min_j = j
                if take > remaining:
                    take = remaining
                counts.append((j, take))
                free[j] -= take
                remaining -= take
                if remaining == 0:
                    break
        granted = levels[min_j]  # min_capacity: smallest allocated level
        # Outcome, drawn up front like the scalar FailureModel.
        run_time = self.c_run_time[i]
        if granted < self.c_used_mem[i]:
            succeeded = False
            duration = float(self.uniform(0.0, run_time))
            resource_related = True
        elif self.spurious > 0.0 and self.random() < self.spurious:
            succeeded = False
            duration = float(self.uniform(0.0, run_time))
            resource_related = False
        else:
            succeeded = True
            duration = run_time
            resource_related = False
        end_time = now + duration
        if not _isfinite(end_time):
            raise ValueError(f"event time must be finite, got {end_time!r}")
        self.n_att[i] += 1
        self.n_attempts += 1
        requirement = entry[2]
        if requirement < self.c_req_mem[i]:
            self.n_reduced += 1
        seq = self.seq
        _heappush(
            self.heap,
            (end_time, 0, seq, i, entry[1], requirement, entry[3],
             now, granted, counts, succeeded, resource_related),
        )
        self.seq = seq + 1
        if self.track_running:
            rec = (end_time, counts, procs)
            self.running[seq] = rec
            return rec
        return None

    def _sched_sjf(self, now: float) -> None:
        queue = self.queue
        free = self.free
        nlev = self.nlev
        c_procs = self.c_procs
        c_rte = self.c_rte
        while queue:
            if self.refresh:
                self._refresh_head(queue[0])
            # ShortestJobFirst.select: one forward scan, strict "<" keeps
            # the earliest index on ties; only the best entry is fit-checked
            # (head-of-line blocking on the shortest job).
            best = None
            bidx = 0
            bentry = None
            for qi, entry in enumerate(queue):
                key = (c_rte[entry[0]], entry[3])
                if best is None or key < best:
                    best = key
                    bidx = qi
                    bentry = entry
            procs = c_procs[bentry[0]]
            available = 0
            for j in range(bentry[5], nlev):
                available += free[j]
            if available < procs:
                return
            if bidx == 0:
                queue.popleft()
            else:
                del queue[bidx]
            self._start_entry(now, bentry)

    def _earliest_start(
        self, now: float, hidx: int, needed: int, view: List[tuple]
    ) -> Optional[float]:
        """EasyBackfilling._earliest_start over raw records: the earliest
        time ``needed`` nodes at ladder index >= ``hidx`` come free, given
        current free counts plus future releases (stable-sorted by end
        time, like the scalar's ``sorted(running, key=end_time)``)."""
        free = self.free
        nlev = self.nlev
        avail = 0
        for j in range(hidx, nlev):
            avail += free[j]
        if avail >= needed:
            return now
        for rec in sorted(view, key=_END_TIME):
            for j, take in rec[1]:
                if j >= hidx:
                    avail += take
            if avail >= needed:
                return rec[0]
        return None  # never enough adequate nodes

    def _respects_reservation(
        self, now: float, hidx: int, hprocs: int, entry: List,
        shadow: float, view: List[tuple],
    ) -> bool:
        """Hypothetically allocate the candidate, recompute the head's
        earliest start with the candidate running, roll back — the scalar
        EasyBackfilling._respects_reservation."""
        free = self.free
        i = entry[0]
        procs = self.c_procs[i]
        counts = []
        remaining = procs
        for j in self.fill[entry[5]]:
            take = free[j]
            if take > 0:
                if take > remaining:
                    take = remaining
                counts.append((j, take))
                free[j] -= take
                remaining -= take
                if remaining == 0:
                    break
        try:
            cand_end = now + self.c_rte[i]
            pretend = view + [(cand_end, counts, procs)]
            new_start = self._earliest_start(now, hidx, hprocs, pretend)
            return new_start is not None and new_start <= shadow
        finally:
            for j, take in counts:
                free[j] += take

    def _sched_bf(self, now: float) -> None:
        queue = self.queue
        free = self.free
        nlev = self.nlev
        c_procs = self.c_procs
        c_rte = self.c_rte
        # The running view is built once per pass and appended to as jobs
        # start (the scalar _schedule_pass does exactly this); dict
        # insertion order mirrors the scalar's exec-id ordering through
        # deletions.
        view = list(self.running.values())
        while queue:
            head = queue[0]
            if self.refresh:
                self._refresh_head(head)
            hi = head[0]
            hprocs = c_procs[hi]
            hidx = head[5]
            available = 0
            for j in range(hidx, nlev):
                available += free[j]
            if available >= hprocs:  # the head fits: no backfill needed
                queue.popleft()
                rec = self._start_entry(now, head)
                view.append(rec)
                continue
            shadow = self._earliest_start(now, hidx, hprocs, view)
            if shadow is None:
                shadow = _inf
            pick = -1
            pentry = None
            for qi, entry in enumerate(queue):
                if qi == 0:
                    continue  # the head holds the reservation
                procs = c_procs[entry[0]]
                avail = 0
                for j in range(entry[5], nlev):
                    avail += free[j]
                if avail < procs:
                    continue
                if now + c_rte[entry[0]] <= shadow or (
                    self._respects_reservation(
                        now, hidx, hprocs, entry, shadow, view
                    )
                ):
                    pick = qi
                    pentry = entry
                    break
            if pick < 0:
                return
            del queue[pick]
            rec = self._start_entry(now, pentry)
            view.append(rec)

    def step(self) -> None:
        (now, _kind, seq, i, attempt, requirement, enqueue_time, start,
         granted, counts, succeeded, resource_related) = _heappop(self.heap)
        free = self.free
        for j, take in counts:
            free[j] += take
        if self.track_running:
            del self.running[seq]
        procs = self.c_procs[i]
        reduced = requirement < self.c_req_mem[i]
        node_seconds = (now - start) * procs
        if self.collect:
            self.raw_attempts.append(
                (self.c_job_id[i], attempt, enqueue_time, start, now, procs,
                 requirement, granted, succeeded, resource_related, reduced,
                 tuple(counts))
            )
        if now > self.t_last_end:
            self.t_last_end = now
        if not self.mode_none:
            self._observe(i, attempt, succeeded, requirement, granted)
        if succeeded:
            self.completed[i] = True
            self.final_start[i] = start
            self.final_end[i] = now
            self.final_req[i] = requirement
            self.final_granted[i] = granted
            self.final_reduced[i] = reduced
            self.useful += node_seconds
        else:
            if resource_related:
                self.n_resfail[i] += 1
                self.n_resource_failures += 1
            else:
                self.n_spurious += 1
            self.wasted_job[i] += node_seconds
            self.wasted += node_seconds
            self._requeue_failed(now, i, attempt + 1)
        # Capacity was freed (and a failed job may have re-entered at the
        # head): the scalar engine's post-event pass always runs here.
        if self.queue:
            self.sched(now)

    def run(self) -> None:
        """Replay the whole trace through this lane.

        The lane's heap holds completions only (kind 0), which sort before
        an arrival (kind 2) at the same instant — so the scalar tie-break
        reduces to ``heap[0][0] <= t_arrival``.

        FCFS — the paper's discipline and the bulk of every sweep — takes
        the fully inlined :meth:`_run_fcfs` driver; SJF/backfilling use the
        generic method-dispatched :meth:`_run_events` loop.
        """
        self.trace.check_submit_times()
        if self.is_fcfs:
            self._run_fcfs()
        else:
            self._run_events()

    def _run_events(self) -> None:
        """The generic loop: arrivals through :meth:`feed_arrival`,
        completions through :meth:`step`, each followed by the policy's
        pass (``self.sched``) exactly where the scalar engine runs one."""
        heap = self.heap
        step = self.step
        feed = self.feed_arrival
        for i, t in enumerate(self.trace.submit):
            while heap and heap[0][0] <= t:
                step()
            feed(t, i)
        while heap:
            step()

    def _run_fcfs(self) -> None:
        # The megaloop: arrival ingestion, the FCFS scheduling pass,
        # completion processing, and the successive-approximation observe
        # from feed_arrival/step/_observe, inlined into one
        # driver with every hot name bound exactly once per lane (plain
        # fast locals — no closures, so no cell indirection).  The generic
        # path pays ~4 method calls plus dozens of attribute loads per
        # event; here the only calls left on the hot path are the heap
        # primitives, the RNG draws, and the cold helpers
        # (_refill/_estimate/_requeue_failed).  The scheduling pass appears
        # twice — the full while-loop after completions, and a single
        # start-attempt on arrivals to an empty queue (a 1-entry queue with
        # a fresh version needs no refresh and at most one start).  The
        # fingerprint suite and the differential tests pin it to the scalar
        # engine.
        trace = self.trace
        submit = trace.submit
        queue = self.queue
        heap = self.heap
        free = self.free
        levels = self.levels
        nlev = self.nlev
        fill = self.fill
        total_suffix = self.total_suffix
        c_procs = self.c_procs
        c_req_mem = self.c_req_mem
        c_run_time = self.c_run_time
        c_used_mem = self.c_used_mem
        c_job_id = self.c_job_id
        row_req_idx = self.row_req_idx
        uniform = self.uniform
        random = self.random
        spurious = self.spurious
        collect = self.collect
        mode_none = self.mode_none
        refresh = self.refresh
        cache_on = self.cache_on
        estimate = self._estimate
        idx_of = self._idx
        requeue = self._requeue_failed
        refill = self._refill
        rejected = self.rejected_rows
        dead = self.dead
        n_att = self.n_att
        n_resfail = self.n_resfail
        wasted_job = self.wasted_job
        final_start = self.final_start
        final_end = self.final_end
        final_req = self.final_req
        final_granted = self.final_granted
        final_reduced = self.final_reduced
        completed = self.completed
        raw_attempts = self.raw_attempts
        heappush = _heappush
        heappop = _heappop
        isfinite = _isfinite
        bisect = _bisect_left
        one_plus = _ONE_PLUS_EPS
        memo = self.idx_memo
        memo_get = memo.get
        if mode_none:
            gid = gver = gprobe = glast_safe = greq = galpha = None
            gest = gsafe_fail = gsucc = gfail = failed_at = None
            gc_ver = gc_val = gc_vidx = gc_preq = gc_pidx = None
            explicit_guard = False
            mixed_threshold = 0
            beta = 1.0
            max_reduced = 0
        else:
            gid = self.gid
            gver = self.gver
            gprobe = self.gprobe
            glast_safe = self.glast_safe
            greq = self.greq
            galpha = self.galpha
            gest = self.gest
            gsafe_fail = self.gsafe_fail
            gsucc = self.gsucc
            gfail = self.gfail
            failed_at = self.failed_at
            explicit_guard = self.explicit_guard
            mixed_threshold = self.mixed_threshold
            beta = self.beta
            max_reduced = self.max_reduced
            gc_ver = self.gc_ver
            gc_val = self.gc_val
            gc_vidx = self.gc_vidx
            gc_preq = self.gc_preq
            gc_pidx = self.gc_pidx

        seq = self.seq
        n_attempts = self.n_attempts
        n_resource_failures = self.n_resource_failures
        n_spurious = self.n_spurious
        n_reduced = self.n_reduced
        useful = self.useful
        wasted = self.wasted
        t_last_end = self.t_last_end

        i_next = 0
        n = trace.n
        t_next = submit[0] if n else _inf
        while True:
            if heap and (i_next >= n or heap[0][0] <= t_next):
                # ---- completion: step(), inlined
                (now, _kind, _seq, i, attempt, requirement, enqueue_time,
                 start, granted, counts, succeeded,
                 resource_related) = heappop(heap)
                for j, take in counts:
                    free[j] += take
                procs = c_procs[i]
                node_seconds = (now - start) * procs
                reduced = requirement < c_req_mem[i]
                if collect:
                    raw_attempts.append(
                        (c_job_id[i], attempt, enqueue_time, start, now,
                         procs, requirement, granted, succeeded,
                         resource_related, reduced, tuple(counts))
                    )
                if now > t_last_end:
                    t_last_end = now
                if not mode_none:
                    # ---- _observe, inlined
                    g = gid[i]
                    job_id = c_job_id[i]
                    gver[g] += 1
                    if gprobe[g] == (job_id, attempt):
                        gprobe[g] = None
                    guard = explicit_guard and granted >= c_used_mem[i]
                    if succeeded:
                        failed_at.pop(job_id, None)
                    elif not guard:
                        prev = failed_at.get(job_id, 0.0)
                        failed_at[job_id] = (
                            prev if prev >= requirement else requirement
                        )
                    if attempt < max_reduced:
                        if succeeded:
                            last_safe = glast_safe[g]
                            safe_value = (
                                greq[g] if last_safe is None else last_safe
                            )
                            if requirement <= safe_value:
                                glast_safe[g] = requirement
                                gsafe_fail[g] = 0
                            gest[g] = requirement / galpha[g]
                            gsucc[g] += 1
                        elif not guard:
                            gfail[g] += 1
                            last_safe = glast_safe[g]
                            safe_value = (
                                greq[g] if last_safe is None else last_safe
                            )
                            if mixed_threshold and requirement >= safe_value:
                                gsafe_fail[g] += 1
                                if gsafe_fail[g] >= mixed_threshold:
                                    bump = safe_value * one_plus
                                    bidx = memo_get(bump)
                                    if bidx is None:
                                        memo[bump] = bidx = bisect(
                                            levels, bump
                                        )
                                    request = greq[g]
                                    above = (
                                        levels[bidx] if bidx < nlev
                                        else request
                                    )
                                    glast_safe[g] = (
                                        above if above < request else request
                                    )
                                    gsafe_fail[g] = 0
                            alpha = galpha[g] * beta
                            galpha[g] = alpha if alpha >= 1.0 else 1.0
                            last_safe = glast_safe[g]
                            safe_value = (
                                greq[g] if last_safe is None else last_safe
                            )
                            gest[g] = safe_value / galpha[g]
                    elif succeeded:
                        gsucc[g] += 1
                    else:
                        gfail[g] += 1
                if succeeded:
                    completed[i] = True
                    final_start[i] = start
                    final_end[i] = now
                    final_req[i] = requirement
                    final_granted[i] = granted
                    final_reduced[i] = reduced
                    useful += node_seconds
                else:
                    if resource_related:
                        n_resfail[i] += 1
                        n_resource_failures += 1
                    else:
                        n_spurious += 1
                    wasted_job[i] += node_seconds
                    wasted += node_seconds
                    requeue(now, i, attempt + 1)
                # ---- the FCFS pass (capacity was freed; a failed job may
                # have re-entered at the head)
                while queue:
                    head = queue[0]
                    i = head[0]
                    if refresh:
                        g = gid[i]
                        version = gver[g]
                        if version != head[4]:
                            head[4] = version
                            if cache_on and head[1] == 0:
                                if gc_ver[g] != version:
                                    refill(g)
                                preq = gc_preq[g]
                                if preq < 0.0:
                                    refreshed = gc_val[g]
                                    ridx = gc_vidx[g]
                                else:
                                    ticket = (c_job_id[i], 0)
                                    probe = gprobe[g]
                                    if probe is None or probe == ticket:
                                        gprobe[g] = ticket
                                        refreshed = gc_val[g]
                                        ridx = gc_vidx[g]
                                    else:
                                        refreshed = preq
                                        ridx = gc_pidx[g]
                            else:
                                refreshed = estimate(i, head[1])
                                ridx = idx_of(refreshed)
                            if refreshed != head[2] and (
                                total_suffix[ridx] >= c_procs[i]
                            ):
                                head[2] = refreshed
                                head[5] = ridx
                    procs = c_procs[i]
                    idx = head[5]
                    eligible = fill[idx]
                    available = 0
                    for j in eligible:
                        available += free[j]
                    if available < procs:  # Fcfs.select returned None
                        break
                    queue.popleft()
                    counts = []
                    remaining = procs
                    min_j = nlev
                    for j in eligible:
                        take = free[j]
                        if take > 0:
                            if j < min_j:
                                min_j = j
                            if take > remaining:
                                take = remaining
                            counts.append((j, take))
                            free[j] -= take
                            remaining -= take
                            if remaining == 0:
                                break
                    granted = levels[min_j]
                    run_time = c_run_time[i]
                    if granted < c_used_mem[i]:
                        succeeded = False
                        duration = float(uniform(0.0, run_time))
                        resource_related = True
                    elif spurious > 0.0 and random() < spurious:
                        succeeded = False
                        duration = float(uniform(0.0, run_time))
                        resource_related = False
                    else:
                        succeeded = True
                        duration = run_time
                        resource_related = False
                    end_time = now + duration
                    if not isfinite(end_time):
                        raise ValueError(
                            f"event time must be finite, got {end_time!r}"
                        )
                    n_att[i] += 1
                    n_attempts += 1
                    if head[2] < c_req_mem[i]:
                        n_reduced += 1
                    heappush(
                        heap,
                        (end_time, 0, seq, i, head[1], head[2], head[3],
                         now, granted, counts, succeeded, resource_related),
                    )
                    seq += 1
            elif i_next < n:
                # ---- arrival: feed_arrival, inlined (FCFS never
                # tail-wakes, so the pass runs only on empty-queue appends)
                now = t_next
                i = i_next
                if mode_none:
                    requirement = c_req_mem[i]
                    version = -1
                    ridx = row_req_idx[i]
                elif cache_on:
                    g = gid[i]
                    version = gver[g]
                    if gc_ver[g] != version:
                        refill(g)
                    preq = gc_preq[g]
                    if preq < 0.0:
                        requirement = gc_val[g]
                        ridx = gc_vidx[g]
                    else:
                        ticket = (c_job_id[i], 0)
                        probe = gprobe[g]
                        if probe is None or probe == ticket:
                            gprobe[g] = ticket
                            requirement = gc_val[g]
                            ridx = gc_vidx[g]
                        else:
                            requirement = preq
                            ridx = gc_pidx[g]
                else:
                    requirement = estimate(i, 0)
                    version = gver[gid[i]]
                    ridx = idx_of(requirement)
                if total_suffix[ridx] < c_procs[i]:
                    rejected.append(i)
                    dead[i] = True
                elif queue:
                    queue.append([i, 0, requirement, now, version, ridx])
                else:
                    # Empty-queue append: the new entry is the head and the
                    # pass degenerates to one start attempt (its version is
                    # fresh, so the refresh is a no-op; if it starts, the
                    # queue is empty again and the pass ends).
                    procs = c_procs[i]
                    eligible = fill[ridx]
                    available = 0
                    for j in eligible:
                        available += free[j]
                    if available < procs:
                        queue.append(
                            [i, 0, requirement, now, version, ridx]
                        )
                    else:
                        counts = []
                        remaining = procs
                        min_j = nlev
                        for j in eligible:
                            take = free[j]
                            if take > 0:
                                if j < min_j:
                                    min_j = j
                                if take > remaining:
                                    take = remaining
                                counts.append((j, take))
                                free[j] -= take
                                remaining -= take
                                if remaining == 0:
                                    break
                        granted = levels[min_j]
                        run_time = c_run_time[i]
                        if granted < c_used_mem[i]:
                            succeeded = False
                            duration = float(uniform(0.0, run_time))
                            resource_related = True
                        elif spurious > 0.0 and random() < spurious:
                            succeeded = False
                            duration = float(uniform(0.0, run_time))
                            resource_related = False
                        else:
                            succeeded = True
                            duration = run_time
                            resource_related = False
                        end_time = now + duration
                        if not isfinite(end_time):
                            raise ValueError(
                                f"event time must be finite, got {end_time!r}"
                            )
                        n_att[i] += 1
                        n_attempts += 1
                        if requirement < c_req_mem[i]:
                            n_reduced += 1
                        heappush(
                            heap,
                            (end_time, 0, seq, i, 0, requirement, now,
                             now, granted, counts, succeeded,
                             resource_related),
                        )
                        seq += 1
                i_next += 1
                t_next = submit[i_next] if i_next < n else _inf
            else:
                break

        self.seq = seq
        self.n_attempts = n_attempts
        self.n_resource_failures = n_resource_failures
        self.n_spurious = n_spurious
        self.n_reduced = n_reduced
        self.useful = useful
        self.wasted = wasted
        self.t_last_end = t_last_end

    # --------------------------------------------------------------- result
    def finish(self) -> SimResult:
        if self.queue:
            raise RuntimeError(
                f"{len(self.queue)} jobs stranded in the queue at end of trace"
            )
        trace = self.trace
        # The attempts stay raw: a LazyAttempts turns them into records,
        # in place, only if someone reads one.
        attempts = LazyAttempts(self.raw_attempts, self.levels)
        self.raw_attempts = None
        # The summaries stay columnar: the per-row lists, in JobSummary
        # field order, go to a LazySummaries that builds the records only
        # if someone reads one.  Rows are sorted by (submit_time, job_id) —
        # the workload's invariant — so their order already matches the
        # scalar engine's sort.  Rejected rows have no summary.
        fields = (
            self.final_start, self.final_end, self.n_att, self.n_resfail,
            self.completed, self.final_req, self.final_granted,
            self.final_reduced, self.wasted_job,
        )
        rejected = self.rejected_rows
        rows = None
        if rejected:
            keep = np.ones(trace.n, dtype=bool)
            keep[rejected] = False
            rows = np.flatnonzero(keep)
            kept = rows.tolist()
            fields = tuple([column[i] for i in kept] for column in fields)
        end = fields[1]
        if None in end:
            k = end.index(None)
            row = k if rows is None else int(rows[k])
            raise RuntimeError(
                f"job {trace.job_id[row]} finished the trace incomplete"
            )
        t_first_submit = 0.0
        if end:
            t_first_submit = trace.submit[0 if rows is None else int(rows[0])]
        summaries = LazySummaries(trace.workload, rows, *fields)
        # The lane is done with its per-row lists (the summaries own them
        # now) and with the bound scheduling pass, a lane -> method -> lane
        # cycle.
        self.n_att = self.n_resfail = self.wasted_job = None
        self.final_start = self.final_end = self.final_req = None
        self.final_granted = self.final_reduced = None
        self.completed = self.dead = None
        self.sched = None
        self._write_back()
        return SimResult(
            workload_name=trace.workload.name,
            cluster_name=self.cluster.name,
            estimator_name=self.est.name,
            policy_name=self.policy_name,
            total_nodes=self.cluster.total_nodes,
            attempts=attempts,
            summaries=summaries,
            rejected_jobs=trace.jobs_at(rejected),
            t_first_submit=t_first_submit,
            t_last_end=self.t_last_end,
            n_attempts=self.n_attempts,
            n_resource_failures=self.n_resource_failures,
            n_spurious_failures=self.n_spurious,
            n_fault_kills=0,
            n_node_failures=0,
            node_downtime_seconds=0,  # int, like sum([]) in _build_result
            n_reduced_submissions=self.n_reduced,
            useful_node_seconds=self.useful,
            wasted_node_seconds=self.wasted,
            timeline=[],
        )

    def _write_back(self) -> None:
        """Leave the caller's estimator in the state a scalar run leaves it:
        bound to this cluster's ladder, and for successive approximation
        every group the trace opened — in first-arrival order, keyed by
        ``key_fn`` — plus the per-job retry floors.  Groups the estimator
        already held are updated in place.  The estimator's job-to-group
        memo stays empty; ``bind`` clears it before every run anyway."""
        est = self.est
        est.bind(self.cluster.ladder)
        if self.mode_none:
            return
        order, keys = self.trace.group_keys()

        def arrival_order(values: list) -> list:
            return [values[g] for g in order]

        # GroupState's positional fields: estimate, alpha, request,
        # last_safe, successes, failures, probe, safe_failures, version.
        states = map(
            GroupState,
            arrival_order(self.gest), arrival_order(self.galpha),
            arrival_order(self.greq), arrival_order(self.glast_safe),
            arrival_order(self.gsucc), arrival_order(self.gfail),
            arrival_order(self.gprobe), arrival_order(self.gsafe_fail),
            arrival_order(self.gver),
        )
        groups = est._groups
        for key, state in zip(keys, states):
            held = groups.setdefault(key, state)
            if held is not state:
                for name in _LEARNED_FIELDS:
                    setattr(held, name, getattr(state, name))
        est._failed_at.clear()
        est._failed_at.update(self.failed_at)


class _EngineLane:
    """Generic lane: a scalar Simulation driven through its streaming API.

    Serves only what the fast lane does not model: fault injection,
    observers, timeline recording, other cluster strategies and other
    policies (plus job lists holding ints)."""

    __slots__ = ("sim", "jobs", "submit", "heap", "_stream_arrival", "_step")

    def __init__(
        self,
        trace: _SharedTrace,
        config: BatchConfig,
        estimator: Optional[Estimator],
        policy: Optional[Policy],
    ) -> None:
        injector = None
        if config.fault_config is not None and config.fault_config.enabled:
            injector = NodeFaultInjector(
                config.fault_config, rng=fault_rng(config.seed)
            )
        sim = Simulation(
            workload=trace.workload,
            cluster=config.cluster,
            estimator=estimator,
            policy=policy,
            failure_model=FailureModel(
                rng=config.seed,
                spurious_failure_prob=config.spurious_failure_prob,
            ),
            fault_injector=injector,
            seed=config.seed,
            collect_attempts=config.collect_attempts,
            record_timeline=config.record_timeline,
            observer=config.observer,
        )
        self.sim = sim
        self.jobs = trace.jobs
        self.submit = trace.submit
        first_submit = trace.submit[0] if trace.n else _inf
        sim.begin_stream(trace.n, first_submit)
        trace.check_submit_times()
        self.heap = sim._events.raw_heap
        self._stream_arrival = sim.stream_arrival
        self._step = sim.step_internal

    def run(self) -> None:
        """Replay the whole trace: the scalar run loop, arrivals streamed.

        Engine-lane heaps carry faults/repairs too, so the full
        ``(time, kind)`` tie-break against ``EventKind.ARRIVAL`` applies.
        """
        heap = self.heap
        step = self._step
        feed = self._stream_arrival
        jobs = self.jobs
        for i, t in enumerate(self.submit):
            while heap:
                entry = heap[0]
                et = entry[0]
                if et < t or (et == t and entry[1] < _ARRIVAL_KIND):
                    step()
                else:
                    break
            feed(t, jobs[i])
        while heap:
            step()

    def finish(self) -> SimResult:
        return self.sim.end_stream()


def fast_lane_eligible(config: BatchConfig) -> bool:
    """Whether a config runs on the array fast lane (vs the engine lane).

    The fast lane covers FCFS, shortest-job-first or EASY backfilling over
    a best-fit or first-fit cluster with optional spurious failures — no
    fault injection, observer, or timeline.  Exact-type policy checks, so a
    subclass with overridden behavior falls back to the (always-correct)
    engine lane.  The estimator does not matter: no-estimation and
    default-keyed successive approximation run inlined, every other
    estimator in protocol mode (:mod:`repro.sim.protocol_lane`), and
    learned state carries over either way.  :func:`simulate_batch` also
    keeps the engine lane for a job list holding ints (see
    ``_SharedTrace.float_typed``).
    """
    if config.record_timeline or config.observer is not None:
        return False
    if config.fault_config is not None and config.fault_config.enabled:
        return False
    policy = config.policy
    if policy is not None and type(policy) not in (
        Fcfs, ShortestJobFirst, EasyBackfilling
    ):
        return False
    return config.cluster.strategy in _FAST_STRATEGIES


def _inlined_successive(estimator: Optional[Estimator]) -> bool:
    """Whether a fast lane runs ``estimator`` on its inlined Algorithm 1
    path: a default-keyed :class:`SuccessiveApproximation` that records no
    trajectories.  Only these lanes seed the per-group state and the
    arrival-estimate cache; any other estimator but :class:`NoEstimation`
    runs in protocol mode."""
    return (
        type(estimator) is SuccessiveApproximation
        and not estimator.record_trajectories
        and estimator.key_fn is by_user_app_reqmem
    )


def simulate_batch(
    workload: Workload, configs: Sequence[BatchConfig]
) -> List[SimResult]:
    """Run K configurations over one shared workload, lane after lane.

    Results are returned in config order; each is bit-identical to a
    scalar :class:`~repro.sim.engine.Simulation` run with the same
    parameters, and leaves the lane's estimator in the state that run
    would.  The lanes behave as consecutive runs, so lanes sharing one
    estimator see each other's learning in config order.  All lanes share
    one decoded trace of ``workload``.
    Engine lanes reset their cluster when built and leave every node free
    when finished, so lanes may share one ``Cluster`` instance (the
    memoized ``ClusterSpec.materialize`` does this).  Fast lanes only read
    the cluster's inventory.

    The cyclic garbage collector is paused for the whole call: trace
    decode, and every lane's seeding, build, run and result build (see
    the module docstring for why).  Calls from several threads
    at once (the service runs sweeps side by side) share one pause; the
    last one out, returning or raising, leaves the collector as the first
    one in found it, so a caller that turned it off keeps it off.  A child
    forked while any thread is inside the pause starts with the collector
    as it was before the pause.  Observers on engine lanes run paused too;
    cyclic garbage they make is collected once the pause ends.
    """
    if not configs:
        return []
    with _gc_paused():
        return _run_batch(workload, configs)


def _run_batch(
    workload: Workload, configs: Sequence[BatchConfig]
) -> List[SimResult]:
    """:func:`simulate_batch`'s body, run with the collector paused."""
    trace = _SharedTrace(workload)

    # Lanes run one after another, each built just before it runs: a lane
    # whose estimator an earlier lane of the batch trained continues from
    # that learning, as consecutive scalar runs would.  Each lane's own loop
    # enforces the scalar per-lane event order (internal events before
    # same-instant arrivals iff their kind sorts first).
    results = []
    for config in configs:
        estimator = config.estimator
        if fast_lane_eligible(config) and trace.float_typed:
            policy = config.policy if config.policy is not None else Fcfs()
            if estimator is None:
                estimator = NoEstimation()
            if type(estimator) is NoEstimation or _inlined_successive(
                estimator
            ):
                lane = _FastLane(trace, config, estimator, policy)
            else:
                # Imported here: the protocol lane subclasses _FastLane, and
                # a batch that needs no protocol lane never loads it.
                from repro.sim.protocol_lane import ProtocolLane

                lane = ProtocolLane(trace, config, estimator, policy)
        else:
            lane = _EngineLane(trace, config, config.estimator, config.policy)
        lane.run()
        results.append(lane.finish())
    return results
