"""Tests for the bounded k-best answer list."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.results import Neighbor, NeighborList
from tests.core import oracle


class TestNeighborList:
    def test_empty(self):
        nl = NeighborList((0.0, 0.0), k=3)
        assert len(nl) == 0
        assert not nl.full
        assert nl.kth_distance_sq() == math.inf
        assert nl.as_sorted() == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            NeighborList((0.0,), k=0)

    def test_fills_then_prunes(self):
        nl = NeighborList((0.0, 0.0), k=2)
        nl.offer((3.0, 0.0), 1)
        assert nl.kth_distance_sq() == math.inf  # not full yet
        nl.offer((1.0, 0.0), 2)
        assert nl.full
        assert nl.kth_distance_sq() == 9.0
        nl.offer((2.0, 0.0), 3)  # evicts (3, 0)
        assert nl.kth_distance_sq() == 4.0
        assert [n.oid for n in nl.as_sorted()] == [2, 3]

    def test_worse_candidate_ignored(self):
        nl = NeighborList((0.0, 0.0), k=1)
        nl.offer((1.0, 0.0), 1)
        nl.offer((5.0, 0.0), 2)
        assert [n.oid for n in nl.as_sorted()] == [1]

    def test_offer_returns_distance_sq(self):
        nl = NeighborList((0.0, 0.0), k=1)
        assert nl.offer((3.0, 4.0), 1) == 25.0

    def test_ties_break_toward_smaller_oid(self):
        nl = NeighborList((0.0, 0.0), k=2)
        nl.offer((1.0, 0.0), 5)
        nl.offer((0.0, 1.0), 9)
        nl.offer((-1.0, 0.0), 2)  # same distance, smaller oid -> evicts 9
        assert [n.oid for n in nl.as_sorted()] == [2, 5]

    def test_tie_with_larger_oid_does_not_replace(self):
        nl = NeighborList((0.0, 0.0), k=1)
        nl.offer((1.0, 0.0), 3)
        nl.offer((0.0, 1.0), 7)  # equal distance, larger oid
        assert [n.oid for n in nl.as_sorted()] == [3]

    def test_as_sorted_returns_neighbors(self):
        nl = NeighborList((0.0, 0.0), k=2)
        nl.offer((3.0, 4.0), 1)
        nl.offer((0.5, 0.0), 0)
        result = nl.as_sorted()
        assert result == [
            Neighbor(0.5, (0.5, 0.0), 0),
            Neighbor(5.0, (3.0, 4.0), 1),
        ]

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False, width=32),
                st.floats(0, 100, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=50,
        ),
        st.integers(min_value=1, max_value=12),
    )
    def test_matches_sorting_oracle(self, points, k):
        from repro.geometry.point import squared_euclidean

        query = (50.0, 50.0)
        nl = NeighborList(query, k)
        for oid, p in enumerate(points):
            nl.offer(p, oid)
        got = [n.oid for n in nl.as_sorted()]
        # Oracle uses the identical distance computation so exact ties
        # resolve identically (by ascending oid).
        expected = [
            oid
            for _, oid in sorted(
                (squared_euclidean(query, p), oid)
                for oid, p in enumerate(points)
            )[:k]
        ]
        assert got == expected


class TestOfferBlock:
    """offer_block (every leaf's bulk path) vs per-entry offers."""

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0, allow_nan=False, width=32),
                st.floats(0.0, 1.0, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=12),
    )
    def test_matches_offer_computed(self, raw_points, k):
        import numpy as np

        query = (0.25, 0.75)
        points = np.asarray(raw_points, dtype=np.float64)
        oids = np.arange(len(raw_points), dtype=np.int64)
        diff = points - np.asarray(query)
        dist_sq = (diff * diff).sum(axis=1)

        block = NeighborList(query, k)
        block.offer_block(dist_sq, oids, raw_points)

        loop = NeighborList(query, k)
        for i, point in enumerate(raw_points):
            oracle.offer_computed(loop, float(dist_sq[i]), tuple(point), i)

        assert block.as_sorted() == loop.as_sorted()
        assert block.kth_distance_sq() == loop.kth_distance_sq()

    def test_duplicate_distances_tie_break_by_oid(self):
        import numpy as np

        query = (0.0, 0.0)
        points = [(1.0, 0.0)] * 5
        oids = np.asarray([9, 3, 7, 1, 5], dtype=np.int64)
        dist_sq = np.ones(5, dtype=np.float64)
        neighbors = NeighborList(query, 3)
        neighbors.offer_block(dist_sq, oids, points)
        assert [n.oid for n in neighbors.as_sorted()] == [1, 3, 5]

    def test_full_list_offered_nothing_within_its_bound_is_untouched(self):
        import numpy as np

        neighbors = NeighborList((0.0, 0.0), 3)
        neighbors.offer_block(
            np.array([1.0, 2.0, 3.0]), np.array([4, 5, 6]),
            [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],
        )
        heap = neighbors._heap
        items = list(heap)
        neighbors.offer_block(
            np.array([3.5, 9.0]), np.array([1, 2]), [(7.0, 0.0)] * 2
        )
        assert neighbors._heap is heap
        assert len(heap) == len(items)
        assert all(a is b for a, b in zip(heap, items))

    def test_tie_at_a_full_lists_bound_is_decided_by_oid(self):
        import numpy as np

        neighbors = NeighborList((0.0, 0.0), 2)
        neighbors.offer_block(
            np.array([1.0, 2.0]), np.array([5, 9]), [(1.0, 0.0), (2.0, 0.0)]
        )
        # Both sit at the k-th distance: the larger oid stays out, the
        # smaller one evicts oid 9.
        neighbors.offer_block(
            np.array([2.0, 2.0]), np.array([12, 7]), [(0.0, 2.0), (2.0, 0.0)]
        )
        assert [(n.oid, n.point) for n in neighbors.as_sorted()] == [
            (5, (1.0, 0.0)), (7, (2.0, 0.0)),
        ]
