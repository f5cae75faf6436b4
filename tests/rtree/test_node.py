"""Tests for tree nodes and leaf entries."""

import pytest

from repro.geometry.rect import Rect
from repro.rtree.node import LeafEntry, Node


class TestLeafEntry:
    def test_holds_point_and_degenerate_rect(self):
        entry = LeafEntry((1.0, 2.0), 7)
        assert entry.point == (1.0, 2.0)
        assert entry.oid == 7
        assert entry.rect == Rect((1.0, 2.0), (1.0, 2.0))

    def test_validates_point(self):
        with pytest.raises(ValueError):
            LeafEntry((float("nan"),), 0)


class TestNode:
    def test_leaf_flag(self):
        assert Node(0, level=0).is_leaf
        assert not Node(1, level=1).is_leaf

    def test_refresh_empty(self):
        node = Node(0, 0)
        node.refresh()
        assert node.mbr is None
        assert node.object_count == 0

    def test_refresh_leaf(self):
        node = Node(0, 0)
        node.add(LeafEntry((0.0, 0.0), 1))
        node.add(LeafEntry((2.0, 3.0), 2))
        node.refresh()
        assert node.mbr == Rect((0.0, 0.0), (2.0, 3.0))
        assert node.object_count == 2

    def test_refresh_internal_sums_counts(self):
        leaf1 = Node(1, 0)
        leaf1.add(LeafEntry((0.0, 0.0), 1))
        leaf1.refresh()
        leaf2 = Node(2, 0)
        leaf2.add(LeafEntry((1.0, 1.0), 2))
        leaf2.add(LeafEntry((2.0, 2.0), 3))
        leaf2.refresh()

        parent = Node(0, 1)
        parent.add(leaf1)
        parent.add(leaf2)
        parent.refresh()
        assert parent.object_count == 3
        assert parent.mbr == Rect((0.0, 0.0), (2.0, 2.0))
        assert leaf1.parent is parent
        assert leaf2.parent is parent

    def test_extend_path_matches_refresh(self):
        leaf = Node(1, 0)
        parent = Node(0, 1)
        parent.add(leaf)
        leaf.refresh()
        parent.refresh()

        entry = LeafEntry((5.0, 5.0), 9)
        leaf.add(entry)
        leaf.extend_path(entry.rect, 1)

        # Incremental update must equal a full recompute.
        expected_leaf_mbr = Rect((5.0, 5.0), (5.0, 5.0))
        assert leaf.mbr == expected_leaf_mbr
        assert leaf.object_count == 1
        assert parent.mbr == expected_leaf_mbr
        assert parent.object_count == 1

        entry2 = LeafEntry((0.0, 1.0), 10)
        leaf.add(entry2)
        leaf.extend_path(entry2.rect, 1)
        assert leaf.mbr == Rect((0.0, 1.0), (5.0, 5.0))
        assert parent.object_count == 2

    def test_len_and_repr(self):
        node = Node(3, 0)
        assert len(node) == 0
        node.add(LeafEntry((0.0,), 0))
        assert len(node) == 1
        assert "leaf" in repr(node)
        assert "internal" in repr(Node(4, 2))


class TestBoundsCache:
    def test_replace_entries_invalidates_same_length(self):
        """Regression: a same-length bulk rewrite must refresh bounds.

        The old cache guard compared lengths, so replacing the entry
        list with a different list of the *same* length kept serving the
        stale corner matrices to the batch kernels.
        """
        node = Node(0, 0)
        node.add(LeafEntry((0.0, 0.0), 1))
        node.add(LeafEntry((1.0, 1.0), 2))
        lows, _ = node.entry_bounds()
        assert lows[0].tolist() == [0.0, 0.0]

        node.replace_entries(
            [LeafEntry((5.0, 5.0), 3), LeafEntry((6.0, 6.0), 4)]
        )
        lows, highs = node.entry_bounds()
        assert lows.tolist() == [[5.0, 5.0], [6.0, 6.0]]
        assert highs.tolist() == [[5.0, 5.0], [6.0, 6.0]]

    def test_replace_entries_wires_parents(self):
        child_a, child_b = Node(1, 0), Node(2, 0)
        parent = Node(0, 1)
        parent.replace_entries([child_a, child_b])
        assert child_a.parent is parent
        assert child_b.parent is parent
        assert len(parent) == 2

    def test_refresh_invalidates_parent_bounds(self):
        leaf = Node(1, 0)
        leaf.add(LeafEntry((1.0, 1.0), 0))
        parent = Node(0, 1)
        parent.add(leaf)
        leaf.refresh()
        parent.refresh()
        before, _ = parent.entry_bounds()
        assert before[0].tolist() == [1.0, 1.0]

        leaf.add(LeafEntry((9.0, 9.0), 1))
        leaf.refresh()  # must drop the parent's cached matrices too
        after, after_high = parent.entry_bounds()
        assert after[0].tolist() == [1.0, 1.0]
        assert after_high[0].tolist() == [9.0, 9.0]

    def test_entry_bounds_matches_matrix_build(self):
        points = [(0.5, 2.0), (1.5, -1.0), (3.25, 0.125)]
        node = Node(0, 0)
        for oid, point in enumerate(points):
            node.add(LeafEntry(point, oid))
        lows, highs = node.entry_bounds()
        assert lows.dtype == highs.dtype == "float64"
        assert lows.tolist() == [list(p) for p in points]
        assert highs.tolist() == [list(p) for p in points]
