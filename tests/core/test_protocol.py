"""Tests for the fetch protocol primitives."""

import numpy as np
import pytest

from repro.core.protocol import FetchRequest, SearchAlgorithm
from repro.rtree.node import LeafEntry, Node


class TestFetchRequest:
    def test_deduplicates_preserving_order(self):
        request = FetchRequest([3, 1, 3, 2, 1])
        assert request.pages == (3, 1, 2)
        assert len(request) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one page"):
            FetchRequest([])

    def test_repr(self):
        assert "pages=(1,)" in repr(FetchRequest([1]))


class TestNodeViews:
    def _leaf(self):
        leaf = Node(1, 0)
        leaf.add(LeafEntry((0.0, 0.0), 10))
        leaf.add(LeafEntry((1.0, 1.0), 11))
        leaf.refresh()
        return leaf

    def test_leaf_points(self):
        oids, points = self._leaf().leaf_data
        assert oids.dtype == np.int64
        assert list(zip(points, oids.tolist())) == [
            ((0.0, 0.0), 10),
            ((1.0, 1.0), 11),
        ]

    def test_internal_node_has_no_leaf_data(self):
        assert Node(0, 1).leaf_data is None

    def test_child_rows(self):
        """One ``(R, count, child_ptr)`` row per branch, as columns."""
        leaf = self._leaf()
        parent = Node(0, 1)
        parent.add(leaf)
        parent.refresh()
        assert len(parent) == 1
        assert parent.child_pages() == [1]
        counts = parent.child_counts()
        assert counts.dtype == np.int64 and counts.tolist() == [2]
        lows, highs = parent.entry_bounds()
        assert (tuple(lows[0]), tuple(highs[0])) == (
            leaf.mbr.low, leaf.mbr.high
        )


class TestSearchAlgorithmBase:
    def test_validates_query(self):
        with pytest.raises(ValueError):
            SearchAlgorithm((float("nan"),), 1)

    def test_validates_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            SearchAlgorithm((0.0,), 0)

    def test_validates_num_disks(self):
        with pytest.raises(ValueError, match="num_disks"):
            SearchAlgorithm((0.0,), 1, num_disks=0)

    def test_run_is_abstract(self):
        algorithm = SearchAlgorithm((0.0,), 1)
        with pytest.raises(NotImplementedError):
            algorithm.run(0)
