"""Cluster allocation/release: correctness and invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Allocation, Cluster


def paper_tiers():
    return [(512, 32.0), (512, 24.0)]


class TestConstruction:
    def test_totals(self):
        c = Cluster(paper_tiers())
        assert c.total_nodes == 1024
        assert c.free_nodes == 1024
        assert c.total_at_level(32.0) == 512
        assert c.total_at_level(24.0) == 512

    def test_merges_equal_tiers(self):
        c = Cluster([(100, 32.0), (28, 32.0)])
        assert c.total_at_level(32.0) == 128
        assert len(c.ladder) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            Cluster(paper_tiers(), strategy="magic")  # type: ignore[arg-type]

    def test_bad_tier_rejected(self):
        with pytest.raises(ValueError):
            Cluster([(0, 32.0)])
        with pytest.raises(ValueError):
            Cluster([(4, -1.0)])


class TestQueries:
    def test_free_with_capacity(self):
        c = Cluster(paper_tiers())
        assert c.free_with_capacity(32.0) == 512
        assert c.free_with_capacity(24.0) == 1024
        assert c.free_with_capacity(24.1) == 512
        assert c.free_with_capacity(33.0) == 0

    def test_fits_ignores_current_usage(self):
        c = Cluster([(4, 32.0)])
        c.allocate(4, 1.0)
        assert c.free_nodes == 0
        assert c.fits(4, 32.0)
        assert not c.fits(5, 32.0)

    def test_can_allocate_respects_usage(self):
        c = Cluster([(4, 32.0)])
        assert c.can_allocate(4, 32.0)
        c.allocate(2, 1.0)
        assert not c.can_allocate(3, 32.0)

    def test_nonpositive_counts_rejected(self):
        c = Cluster(paper_tiers())
        with pytest.raises(ValueError):
            c.can_allocate(0, 32.0)
        with pytest.raises(ValueError):
            c.allocate(-1, 32.0)


class TestAllocation:
    def test_best_fit_prefers_smallest_adequate(self):
        c = Cluster(paper_tiers(), strategy="best_fit")
        alloc = c.allocate(10, 8.0)
        assert alloc.counts == {24.0: 10}

    def test_best_fit_spills_upward(self):
        c = Cluster([(4, 24.0), (4, 32.0)], strategy="best_fit")
        alloc = c.allocate(6, 8.0)
        assert alloc.counts == {24.0: 4, 32.0: 2}
        assert alloc.min_capacity == 24.0

    def test_worst_fit_prefers_largest(self):
        c = Cluster(paper_tiers(), strategy="worst_fit")
        alloc = c.allocate(10, 8.0)
        assert alloc.counts == {32.0: 10}

    def test_first_fit_uses_declaration_order(self):
        c = Cluster([(4, 32.0), (4, 24.0)], strategy="first_fit")
        alloc = c.allocate(2, 8.0)
        assert alloc.counts == {32.0: 2}

    def test_requirement_respected(self):
        c = Cluster(paper_tiers())
        alloc = c.allocate(600, 30.0)
        assert alloc is None  # only 512 nodes have >= 30MB
        alloc = c.allocate(512, 30.0)
        assert alloc.min_capacity == 32.0

    def test_failed_allocation_changes_nothing(self):
        c = Cluster(paper_tiers())
        before = c.snapshot_free()
        assert c.allocate(2000, 1.0) is None
        assert c.snapshot_free() == before

    def test_allocation_reduces_free_counts(self):
        c = Cluster(paper_tiers())
        c.allocate(100, 24.0)
        assert c.free_nodes == 924

    def test_satisfies(self):
        alloc = Allocation(counts={24.0: 3, 32.0: 2}, requirement=20.0)
        assert alloc.satisfies(24.0)
        assert not alloc.satisfies(24.5)


class TestRelease:
    def test_release_restores(self):
        c = Cluster(paper_tiers())
        alloc = c.allocate(100, 24.0)
        c.release(alloc)
        assert c.free_nodes == 1024

    def test_double_release_detected(self):
        c = Cluster(paper_tiers())
        alloc = c.allocate(600, 1.0)
        c.release(alloc)
        with pytest.raises(ValueError, match="double release|exceed"):
            c.release(alloc)

    def test_foreign_allocation_detected(self):
        c = Cluster([(4, 32.0)])
        foreign = Allocation(counts={16.0: 1}, requirement=16.0)
        with pytest.raises(ValueError):
            c.release(foreign)

    def test_reset(self):
        c = Cluster(paper_tiers())
        c.allocate(100, 1.0)
        c.reset()
        assert c.free_nodes == 1024


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.floats(min_value=1.0, max_value=64.0, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_alloc_release_never_corrupts_counts(self, requests):
        c = Cluster([(16, 32.0), (16, 24.0), (16, 8.0)])
        live = []
        for i, (n, cap) in enumerate(requests):
            if live and i % 3 == 0:
                c.release(live.pop())
            alloc = c.allocate(n, cap)
            if alloc is not None:
                # Every allocated node satisfies the requirement.
                assert all(lvl >= cap for lvl in alloc.counts)
                assert alloc.n_nodes == n
                live.append(alloc)
            # Free counts stay within bounds at every step.
            for lvl in c.ladder.levels:
                assert 0 <= c.free_at_level(lvl) <= c.total_at_level(lvl)
        for alloc in live:
            c.release(alloc)
        assert c.free_nodes == c.total_nodes

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=48),
        st.floats(min_value=1.0, max_value=32.0, allow_nan=False),
        st.sampled_from(["best_fit", "worst_fit", "first_fit"]),
    )
    def test_every_strategy_respects_requirement(self, n, cap, strategy):
        c = Cluster([(16, 32.0), (16, 24.0), (16, 8.0)], strategy=strategy)
        alloc = c.allocate(n, cap)
        if alloc is not None:
            assert alloc.min_capacity >= cap
            assert alloc.n_nodes == n


class TestFaultAccounting:
    def test_fail_and_repair_roundtrip(self):
        c = Cluster(paper_tiers())
        c.fail_node(24.0)
        assert c.down_nodes == 1
        assert c.down_at_level(24.0) == 1
        assert c.free_at_level(24.0) == 511
        assert c.in_service_nodes == 1023
        assert c.in_service_by_level() == {24.0: 511, 32.0: 512}
        c.repair_node(24.0)
        assert c.down_nodes == 0
        assert c.free_nodes == 1024

    def test_fail_requires_a_free_node(self):
        c = Cluster([(2, 32.0)])
        c.allocate(2, 32.0)
        with pytest.raises(ValueError, match="free node"):
            c.fail_node(32.0)

    def test_repair_requires_a_downed_node(self):
        c = Cluster(paper_tiers())
        with pytest.raises(ValueError, match="repair"):
            c.repair_node(32.0)

    def test_down_nodes_not_allocatable_but_still_count_for_fits(self):
        c = Cluster([(4, 32.0)])
        c.fail_node(32.0)
        # A transient outage makes the job wait (cannot allocate now)...
        assert not c.can_allocate(4, 32.0)
        # ...but never makes it infeasible (the node will come back).
        assert c.fits(4, 32.0)

    def test_busy_count_excludes_down_nodes(self):
        c = Cluster([(4, 32.0)])
        c.allocate(2, 32.0)
        c.fail_node(32.0)
        assert c.busy_nodes == 2
        assert c.free_nodes == 1
        assert c.down_nodes == 1

    def test_release_invariant_accounts_for_down_nodes(self):
        c = Cluster([(4, 32.0)])
        alloc = c.allocate(2, 32.0)
        c.fail_node(32.0)
        c.release(alloc)
        # free (3) + down (1) = total: a second release must trip the
        # free <= total - down invariant.
        with pytest.raises(ValueError, match="exceed"):
            c.release(alloc)

    def test_reset_restores_downed_nodes(self):
        c = Cluster(paper_tiers())
        c.fail_node(32.0)
        c.reset()
        assert c.down_nodes == 0
        assert c.free_nodes == 1024
