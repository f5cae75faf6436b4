"""The in-place bounds cache and the audits that keep it honest.

A node's corner matrices follow its entry *list*; a child whose MBR
changes rewrites its own row, and its area in the entry areas a
descent caches beside the matrices.  A leaf's cached oid vector and
point list (``leaf_data``) follow the entry list too.
``check_invariants`` compares every cached matrix and leaf cache with a
fresh rebuild, and the areas with a fresh fold, so each of these rules
is audited wherever the suite (and the wall ledger) checks a tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.srtree import SRTree
from repro.extensions.sstree import SSTree
from repro.extensions.xtree import XTree
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


def area_cached(tree):
    """The nodes whose cache carries the entry areas a descent folded."""
    return [
        node for node in tree.pages.values()
        if getattr(node._bounds, "areas", None) is not None
    ]


class TestAreaCache:
    """Directory nodes keep their entries' areas beside the corners."""

    def test_descents_fold_them_on_directory_nodes_only(self):
        tree = warm_tree(300)
        cached = area_cached(tree)
        assert cached and all(not node.is_leaf for node in cached)
        for node in cached:
            lows, highs = node._bounds
            assert node._bounds.areas.tolist() == [
                Rect(lo, hi).area()
                for lo, hi in zip(lows.tolist(), highs.tolist())
            ]

    def test_a_stale_area_is_caught(self):
        tree = warm_tree()
        areas = area_cached(tree)[0]._bounds.areas
        areas[0] = np.nextafter(areas[0], np.inf)
        with pytest.raises(InvariantViolation, match="cached areas"):
            check_invariants(tree)

    def test_a_stale_area_order_is_caught(self):
        tree = warm_tree()
        bounds = next(
            node._bounds for node in area_cached(tree)
            if node._bounds.by_area is not None and len(node) > 1
        )
        bounds.by_area = bounds.by_area[::-1].copy()
        with pytest.raises(InvariantViolation, match="cached area order"):
            check_invariants(tree)

    def test_a_patched_row_keeps_the_areas_warm(self):
        tree = warm_tree(300)
        root = tree.root
        bounds = root._bounds
        assert bounds.areas is not None
        tree.insert((3.0, 3.0), 1000)  # grows one child of the root
        assert root._bounds is bounds
        assert bounds.by_area is None  # an area changed: re-sorted on use
        assert max(bounds.areas.tolist()) == max(
            child.mbr.area() for child in root.entries
        )
        check_invariants(tree)

    @pytest.mark.parametrize("make", [
        lambda: RStarTree(2, max_entries=5),
        lambda: XTree(6, max_entries=8, max_overlap=0.0),
    ], ids=["rstar", "xtree"])
    def test_churn_keeps_them_a_fresh_fold(self, make):
        """Inserts with forced reinsertion and splits, deletes that
        condense: after each, every cached area is a fresh fold."""
        tree = make()
        events = {"reinsert": 0, "split": 0, "free": 0}

        def counting(name, method):
            def counted(*args):
                events[name] += 1
                return method(*args)
            return counted

        tree._forced_reinsert = counting("reinsert", tree._forced_reinsert)
        tree._split = counting("split", tree._split)
        tree._free_node = counting("free", tree._free_node)
        rng = np.random.default_rng(9)
        live = {}
        most_cached = 0
        for oid in range(450):
            if len(live) < 60 or rng.random() < 0.6:
                live[oid] = tuple(rng.random(tree.dims).tolist())
                tree.insert(live[oid], oid)
            else:
                victim = sorted(live)[int(rng.integers(len(live)))]
                assert tree.delete(live.pop(victim), victim)
            check_invariants(tree)
            cached = area_cached(tree)
            assert all(not node.is_leaf for node in cached)
            most_cached = max(most_cached, len(cached))
        assert most_cached > 0
        assert min(events.values()) > 0, events
        if isinstance(tree, XTree):
            assert tree.supernode_count() > 0

    @pytest.mark.parametrize("tree_class", [SSTree, SRTree])
    def test_sphere_nodes_never_hold_them(self, tree_class):
        tree = tree_class(2, max_entries=6)
        rng = np.random.default_rng(10)
        for oid, point in enumerate(rng.random((300, 2)).tolist()):
            tree.insert(point, oid)
        assert tree.height > 2
        for node in tree.pages.values():
            node.entry_bounds()
        assert area_cached(tree) == []


class TestPathGrowth:
    """``extend_path`` skips the unions only where none could change a bit."""

    def test_a_point_on_a_zero_corner_rewrites_every_ancestor(self):
        """``-0.0`` on a ``0.0`` corner is a tie, not strictly inside:
        the union runs at every level and leaves ``-0.0`` all the way up."""
        tree = RStarTree(2, max_entries=4)
        rng = np.random.default_rng(11)
        for oid, (x, y) in enumerate(rng.random((200, 2)).tolist()):
            tree.insert((0.0 if oid % 5 == 0 else x, y), oid)
        assert tree.height >= 3
        tree.insert((-0.0, 0.5), 1000)
        leaf = next(
            node for node in tree.pages.values() if node.is_leaf
            and any(entry.oid == 1000 for entry in node.entries)
        )
        node = leaf
        while node is not None:
            assert node.mbr.low[0].hex() == "-0x0.0p+0", node
            node = node.parent
        check_invariants(tree)

    def test_a_point_strictly_inside_keeps_every_box_object(self):
        tree = warm_tree(300)
        for leaf in tree.pages.values():
            if not leaf.is_leaf or len(leaf) >= tree.max_entries:
                continue
            point = leaf.mbr.center
            if tree._choose_subtree(Rect.from_point(point), 0) is not leaf:
                continue
            if all(
                lo < c < hi
                for lo, c, hi in zip(leaf.mbr.low, point, leaf.mbr.high)
            ):
                break
        else:
            pytest.fail("no leaf with room holds its centre strictly inside")
        path = []
        node = leaf
        while node is not None:
            path.append((node, node.mbr, node.object_count))
            node = node.parent
        tree.insert(point, 1000)
        for node, box, count in path:
            assert node.mbr is box
            assert node.object_count == count + 1
        check_invariants(tree)
