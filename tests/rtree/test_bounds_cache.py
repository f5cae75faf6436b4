"""The in-place bounds cache and the audits that keep it honest.

A node's corner matrices follow its entry *list*; a child whose MBR
changes rewrites its own row.  A leaf's cached oid vector and point
list (``leaf_data``) follow the entry list too.  ``check_invariants``
compares every cached matrix and leaf cache with a fresh rebuild, so
each of these rules is audited wherever the suite (and the wall ledger)
checks a tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.rtree import RStarTree, check_invariants
from repro.rtree.node import LeafEntry, Node
from repro.rtree.validate import InvariantViolation
from tests.rtree.oracle import assert_leaf_data_is_fresh
from tests.rtree.test_structure_golden import structure_digest


def warm_tree(count=200, max_entries=6):
    """A built tree with the bounds cache of every node filled."""
    tree = RStarTree(2, max_entries=max_entries)
    rng = np.random.default_rng(7)
    for oid, point in enumerate(rng.random((count, 2)).tolist()):
        tree.insert(point, oid)
    for node in tree.pages.values():
        node.entry_bounds()
    return tree


class TestInPlaceRules:
    def test_refresh_keeps_own_matrices_and_rewrites_the_parents_row(self):
        parent = Node(0, 1)
        leaves = []
        for page_id, x in enumerate((0.0, 5.0), start=1):
            leaf = Node(page_id, 0)
            leaf.add(LeafEntry((x, x), page_id))
            parent.add(leaf)
            leaf.refresh()
            leaves.append(leaf)
        parent.refresh()
        parent_bounds = parent.entry_bounds()
        own = leaves[1].entry_bounds()

        leaves[1].refresh()  # nothing changed: nothing is dropped
        assert leaves[1]._bounds is own and parent._bounds is parent_bounds

        leaves[1].add(LeafEntry((9.0, 7.0), 3))
        assert leaves[1]._bounds is None  # the entry list changed
        leaves[1].refresh()
        assert parent._bounds is parent_bounds  # same arrays, one new row
        assert parent_bounds[0].tolist() == [[0.0, 0.0], [5.0, 5.0]]
        assert parent_bounds[1].tolist() == [[0.0, 0.0], [9.0, 7.0]]

    def test_discard_drops_the_matrices(self):
        node = Node(0, 0)
        for oid in range(3):
            node.add(LeafEntry((float(oid), 0.0), oid))
        node.entry_bounds()
        node.discard(1)
        assert node._bounds is None
        assert [entry.oid for entry in node.entries] == [0, 2]
        assert node.entry_bounds()[0].tolist() == [[0.0, 0.0], [2.0, 0.0]]

    def test_an_emptied_child_drops_the_parents_matrices(self):
        parent = Node(0, 1)
        leaf = Node(1, 0)
        leaf.add(LeafEntry((1.0, 1.0), 0))
        parent.add(leaf)
        leaf.refresh()
        parent.refresh()
        assert parent.entry_bounds() is not None
        leaf.discard(0)
        leaf.refresh()
        assert leaf.mbr is None
        assert parent._bounds is None and parent.entry_bounds() is None

    def test_extend_path_carries_a_negative_zero_to_the_root(self):
        """``Rect.union`` takes its argument's value on a tie."""
        parent = Node(0, 1)
        leaf = Node(1, 0)
        leaf.add(LeafEntry((0.0, 1.0), 0))
        parent.add(leaf)
        leaf.refresh()
        parent.refresh()
        parent.entry_bounds()
        entry = LeafEntry((-0.0, 0.5), 1)
        leaf.add(entry)
        leaf.extend_path(entry.rect, 1)
        for node in (leaf, parent):
            assert node.mbr.low[0].hex() == "-0x0.0p+0"
            assert node.mbr == Rect((0.0, 0.5), (0.0, 1.0))
        assert parent._bounds[0].tolist() == [[0.0, 0.5]]

    def test_deletes_and_reinserts_leave_every_cache_coherent(self):
        tree = warm_tree(300)
        rng = np.random.default_rng(8)
        points = {oid: point for point, oid in tree.iter_points()}
        for oid in rng.permutation(300)[:180].tolist():
            assert tree.delete(points[oid], oid)
            for node in tree.pages.values():
                if not node.is_leaf:
                    node.entry_bounds()  # keep the directory warm
        check_invariants(tree)


class TestCoherenceClause:
    def test_a_sound_warm_tree_passes(self):
        tree = warm_tree()
        assert all(node._bounds is not None for node in tree.pages.values())
        assert check_invariants(tree) == len(tree)

    def test_a_stale_row_is_caught(self):
        tree = warm_tree()
        directory = next(n for n in tree.pages.values() if n.level == 1)
        directory._bounds[1][0, 0] += 0.25
        with pytest.raises(InvariantViolation, match="highs matrix"):
            check_invariants(tree)

    def test_a_reordered_entry_list_is_caught(self):
        tree = warm_tree()
        leaf = next(
            n for n in tree.pages.values()
            if n.is_leaf and n.entries[0].point != n.entries[-1].point
        )
        leaf.entries.reverse()  # same entries, same MBR, stale rows
        with pytest.raises(InvariantViolation, match="lows matrix"):
            check_invariants(tree)

    def test_a_wrong_shape_or_dtype_is_caught(self):
        tree = warm_tree()
        leaf = next(n for n in tree.pages.values() if n.is_leaf)
        lows, highs = leaf._bounds
        leaf._bounds = (lows.astype(np.float32), highs)
        with pytest.raises(InvariantViolation, match="lows matrix"):
            check_invariants(tree)
        leaf._bounds = (lows, highs[:-1])
        with pytest.raises(InvariantViolation, match="highs matrix"):
            check_invariants(tree)


class TestLeafDataCache:
    def test_the_entry_list_mutators_drop_it(self):
        node = Node(0, 0)
        for oid in range(3):
            node.add(LeafEntry((float(oid), 0.0), oid))
        assert node.leaf_data[0].tolist() == [0, 1, 2]
        node.add(LeafEntry((3.0, 0.0), 3))
        assert node._leaf is None and node.leaf_data[0].tolist() == [0, 1, 2, 3]
        node.discard(0)
        assert node._leaf is None and node.leaf_data[0].tolist() == [1, 2, 3]
        node.replace_entries(node.entries[::-1])
        assert node._leaf is None and node.leaf_data[0].tolist() == [3, 2, 1]
        assert Node(1, 1).leaf_data is None

    def test_refresh_keeps_it(self):
        node = Node(0, 0)
        node.add(LeafEntry((1.0, 2.0), 4))
        data = node.leaf_data
        node.refresh()
        assert node.leaf_data is data

    def test_a_stale_leaf_cache_is_caught(self):
        tree = warm_tree()
        leaf = next(n for n in tree.pages.values() if n.is_leaf)
        leaf.leaf_data
        leaf.entries.reverse()  # bypasses the mutators
        leaf._bounds = None
        with pytest.raises(InvariantViolation, match="leaf oids"):
            check_invariants(tree)

    def test_copied_point_tuples_are_caught(self):
        tree = warm_tree()
        leaf = next(n for n in tree.pages.values() if n.is_leaf)
        oids, points = leaf.leaf_data
        leaf._leaf = (oids, [tuple(list(p)) for p in points])
        with pytest.raises(InvariantViolation, match="leaf oids or points"):
            check_invariants(tree)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.booleans(), st.integers(0, 10**6),
                  st.floats(0, 1, width=32), st.floats(0, 1, width=32)),
        max_size=120,
    ))
    def test_churn_keeps_it_a_fresh_build(self, operations):
        """Inserts and deletes in any order: after every one, each
        leaf's cache is what its entries give (and is warm again)."""
        tree = RStarTree(2, max_entries=4)
        live = {}
        for oid, (insert, pick, x, y) in enumerate(operations):
            if insert or not live:
                tree.insert((x, y), oid)
                live[oid] = (x, y)
            else:
                victim = sorted(live)[pick % len(live)]
                assert tree.delete(live.pop(victim), victim)
            assert_leaf_data_is_fresh(tree.pages.values())
            check_invariants(tree)


class TestInsertValidatesOnce:
    @pytest.mark.parametrize("bad", [
        (), (0.5,), (0.1, 0.2, 0.3), (float("nan"), 0.5),
        (0.5, float("inf")), (float("-inf"), 0.5),
    ])
    def test_a_bad_point_raises_and_leaves_the_tree_untouched(self, bad):
        tree = warm_tree(60)
        before = (len(tree), structure_digest(tree))
        with pytest.raises(ValueError):
            tree.insert(bad, 999)
        assert (len(tree), structure_digest(tree)) == before
        check_invariants(tree)

    def test_one_validation_per_insert(self, monkeypatch):
        from repro.geometry import point as point_module
        from repro.rtree import node as node_module
        from repro.rtree import tree as tree_module

        seen = []

        def counting(point, dims=0):
            seen.append(dims)
            return point_module.validate_point(point, dims)

        def no_second_look(self, low, high):
            raise AssertionError("Rect.__init__ re-validated an inserted point")

        monkeypatch.setattr(node_module, "validate_point", counting)
        monkeypatch.setattr(tree_module, "validate_point", counting)
        monkeypatch.setattr(Rect, "__init__", no_second_look)
        tree = RStarTree(3, max_entries=4)
        tree.insert([1, 2, 3], 0)
        assert seen == [3]  # once, with the tree's dimensionality
        entry = tree.root.entries[0]
        assert entry.point == (1.0, 2.0, 3.0)
        assert all(type(c) is float for c in entry.point)
        assert entry.rect.low is entry.point and entry.rect.high is entry.point
