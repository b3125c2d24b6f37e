"""Similarity-group resolution of the batched engine's shared trace.

:meth:`repro.sim.batch._SharedTrace.group_info` resolves the paper's
``(user, app, req_mem)`` groups with one stable ``np.lexsort`` and a
neighbour diff.  The reference below is the formulation it replaced:
``np.unique`` over a structured view of the three columns.  Both must
agree exactly — group ids, per-group requests (to the bit, sign of zero
included), first-member rows and the arrival order of
:meth:`~repro.sim.batch._SharedTrace.group_keys` — because the fast lane
seeds, caches and writes back group state by those ids.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.keys import by_user_app_reqmem
from repro.sim.batch import _SharedTrace
from repro.workload import Workload
from repro.workload.columns import JobColumns


def _reference_groups(columns):
    """``(gid, group_req, first)`` by ``np.unique`` over a structured view."""
    keys = np.empty(
        len(columns.req_mem),
        dtype=[("u", np.int64), ("a", np.int64), ("r", np.float64)],
    )
    keys["u"] = columns.user_id
    keys["a"] = columns.app_id
    keys["r"] = columns.req_mem
    uniq, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    return inverse.tolist(), uniq["r"].astype(np.float64), first


def _reference_group_keys(jobs, first):
    order = np.argsort(first, kind="stable")
    return order.tolist(), [
        by_user_app_reqmem(jobs[row]) for row in first[order].tolist()
    ]


_IDS = st.one_of(
    st.integers(-3, 3),  # few distinct values: repeated keys and ties
    st.sampled_from((-(2 ** 62), -(2 ** 31), 2 ** 31, 2 ** 53 + 1, 2 ** 62)),
)
_REQ_MEM = st.sampled_from(
    (-0.0, 0.0, 0.5, 8.0, 16.0, 24.0, 32.0, 1e-300, 5e-324, 1e300)
)


@st.composite
def _traces(draw):
    n = draw(st.integers(0, 40))
    user = draw(st.lists(_IDS, min_size=n, max_size=n))
    app = draw(st.lists(_IDS, min_size=n, max_size=n))
    req = draw(st.lists(_REQ_MEM, min_size=n, max_size=n))
    submit = draw(st.lists(st.sampled_from((0.0, 1.0, 2.0)),
                           min_size=n, max_size=n))
    columns = JobColumns(
        job_id=np.arange(1, n + 1),
        submit_time=np.cumsum(np.asarray(submit, dtype=np.float64)),
        run_time=np.full(n, 10.0),
        procs=np.ones(n, dtype=np.int64),
        req_mem=np.asarray(req, dtype=np.float64),
        used_mem=np.full(n, 1.0),
        req_time=np.full(n, 100.0),
        user_id=np.asarray(user, dtype=np.int64),
        group_id=np.zeros(n, dtype=np.int64),
        app_id=np.asarray(app, dtype=np.int64),
        status=np.ones(n, dtype=np.int64),
    )
    return Workload.from_columns(columns, total_nodes=8, node_mem=32.0)


@settings(max_examples=300, deadline=None)
@given(_traces())
def test_lexsort_groups_match_structured_unique(workload):
    trace = _SharedTrace(workload)
    gid, group_req = trace.group_info()
    ref_gid, ref_req, ref_first = _reference_groups(trace.columns)
    assert gid == ref_gid
    assert group_req.dtype == ref_req.dtype
    assert group_req.tobytes() == ref_req.tobytes()  # -0.0 vs 0.0 too
    assert trace._group_first.tolist() == ref_first.tolist()
    assert trace.group_keys() == _reference_group_keys(trace.jobs, ref_first)


def test_signed_zero_requests_share_one_group():
    columns = JobColumns(
        job_id=np.arange(1, 4),
        submit_time=np.array([0.0, 1.0, 2.0]),
        run_time=np.full(3, 10.0),
        procs=np.ones(3, dtype=np.int64),
        req_mem=np.array([-0.0, 0.0, -0.0]),
        used_mem=np.full(3, 1.0),
        req_time=np.full(3, 100.0),
        user_id=np.zeros(3, dtype=np.int64),
        group_id=np.zeros(3, dtype=np.int64),
        app_id=np.zeros(3, dtype=np.int64),
        status=np.ones(3, dtype=np.int64),
    )
    trace = _SharedTrace(Workload.from_columns(columns, total_nodes=8))
    gid, group_req = trace.group_info()
    assert gid == [0, 0, 0]
    assert np.signbit(group_req).tolist() == [True]  # the first member's
