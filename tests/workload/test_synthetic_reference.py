"""Differential test: the vectorized generator against the per-group oracle.

``generate_trace`` must produce byte-identical columns to the historical
per-group loop kept in :mod:`tests.workload.synthetic_reference`, for every
config the property tests draw, widened with the knobs that change the
draw sequence (``cluster_in_time``, ``n_full_machine_jobs``) or the group
sizes (``max_group_size``).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.workload.columns import COLUMN_FIELDS
from repro.workload.synthetic import generate_trace
from tests.workload.synthetic_reference import reference_trace
from tests.workload.test_synthetic_properties import config_strategy

widened_config_strategy = st.builds(
    lambda cfg, cluster, n_full, max_group: dataclasses.replace(
        cfg,
        cluster_in_time=cluster,
        n_full_machine_jobs=n_full,
        max_group_size=max_group,
    ),
    cfg=config_strategy,
    cluster=st.booleans(),
    n_full=st.integers(min_value=0, max_value=6),
    max_group=st.integers(min_value=1, max_value=2_000),
)


def assert_same_columns(actual, expected):
    a, b = actual.as_columns(), expected.as_columns()
    for name, _ in COLUMN_FIELDS:
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype, name
        assert col_a.tobytes() == col_b.tobytes(), name
    assert (actual.total_nodes, actual.node_mem, actual.name) == (
        expected.total_nodes,
        expected.node_mem,
        expected.name,
    )


@settings(max_examples=40, deadline=None)
@given(cfg=widened_config_strategy, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_generator_matches_per_group_reference(cfg, seed):
    assert_same_columns(generate_trace(cfg, rng=seed), reference_trace(cfg, rng=seed))
