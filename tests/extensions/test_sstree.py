"""Tests for the SS-tree extension."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BBSS, CRSS, CountingExecutor, FPSS, WOPTSS
from repro.datasets import gaussian, uniform
from repro.extensions.srtree import SRNode, SRTree, build_parallel_srtree
from repro.extensions.sstree import (
    ParallelSSTree,
    SSNode,
    SSTree,
    build_parallel_sstree,
)
from repro.geometry.sphere import Sphere
from repro.parallel import make_policy
from repro.rtree.node import LeafEntry
from tests.conftest import brute_force_knn
from tests.rtree.oracle import assert_leaf_data_is_fresh


def check_sstree(tree: SSTree) -> int:
    """Invariant walker for SS-trees; returns the object count."""

    def visit(node, expected_parent):
        assert node.parent is expected_parent
        assert tree.pages[node.page_id] is node
        assert len(node.entries) <= tree.max_entries
        if node is not tree.root:
            assert len(node.entries) >= tree.min_entries
        if node.is_leaf:
            count = len(node.entries)
            for entry in node.entries:
                assert isinstance(entry, LeafEntry)
                # Every stored point is inside the bounding sphere.
                assert node.mbr.contains_point(entry.point) or (
                    math.dist(node.mbr.center, entry.point)
                    <= node.mbr.radius + 1e-9
                )
        else:
            count = 0
            for child in node.entries:
                assert child.level == node.level - 1
                count += visit(child, node)
                # Child spheres are covered by the parent's sphere.
                reach = (
                    math.dist(node.mbr.center, child.mbr.center)
                    + child.mbr.radius
                )
                assert reach <= node.mbr.radius + 1e-9
        assert node.object_count == count
        return count

    return visit(tree.root, None)


class TestSSTreeStructure:
    def test_empty(self):
        tree = SSTree(2, max_entries=8)
        assert len(tree) == 0
        assert tree.height == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="dimensionality"):
            SSTree(0)
        with pytest.raises(ValueError, match="max_entries"):
            SSTree(2, max_entries=1)
        with pytest.raises(ValueError, match="min_entries"):
            SSTree(2, max_entries=10, min_entries=8)

    def test_builds_valid_tree(self):
        tree = SSTree(2, max_entries=6)
        points = uniform(300, 2, seed=5)
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert len(tree) == 300
        assert tree.height >= 3
        assert check_sstree(tree) == 300

    def test_clustered_data(self):
        tree = SSTree(3, max_entries=8)
        points = gaussian(400, 3, seed=6)
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert check_sstree(tree) == 400

    def test_knn_matches_brute_force(self):
        points = uniform(250, 2, seed=7)
        tree = SSTree(2, max_entries=6)
        for i, p in enumerate(points):
            tree.insert(p, i)
        rng = random.Random(2)
        for _ in range(15):
            q = (rng.random(), rng.random())
            k = rng.choice([1, 5, 30])
            got = [(round(d, 9), oid) for d, _, oid in tree.knn(q, k)]
            expected = [
                (round(d, 9), oid) for d, oid in brute_force_knn(points, q, k)
            ]
            assert got == expected

    def test_kth_nearest_distance(self):
        points = uniform(100, 2, seed=8)
        tree = SSTree(2, max_entries=6)
        for i, p in enumerate(points):
            tree.insert(p, i)
        q = (0.5, 0.5)
        assert tree.kth_nearest_distance(q, 5) == pytest.approx(
            brute_force_knn(points, q, 5)[-1][0]
        )
        with pytest.raises(ValueError, match="empty"):
            SSTree(2).kth_nearest_distance(q, 1)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False, width=32),
                st.floats(0, 1, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_insert_property(self, points):
        tree = SSTree(2, max_entries=4, min_entries=1)
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert check_sstree(tree) == len(points)


class TestParallelSSTree:
    @pytest.fixture(scope="class")
    def sstree(self):
        points = uniform(600, 2, seed=9)
        return build_parallel_sstree(points, dims=2, num_disks=5,
                                     max_entries=8)

    def test_every_page_placed(self, sstree):
        for page_id in sstree.tree.pages:
            assert 0 <= sstree.disk_of(page_id) < 5
            assert 0 <= sstree.cylinder_of(page_id) < 1449

    def test_all_algorithms_exact_over_sstree(self, sstree):
        """The paper's future-work claim: the search algorithms carry
        over to sphere-based access methods unchanged."""
        pairs = list(sstree.tree.iter_points())
        executor = CountingExecutor(sstree)
        rng = random.Random(4)
        for _ in range(10):
            q = (rng.random(), rng.random())
            k = rng.choice([1, 4, 15])
            expected = [
                oid
                for _, oid in sorted(
                    (math.dist(q, p), oid) for p, oid in pairs
                )[:k]
            ]
            dk = sstree.kth_nearest_distance(q, k)
            for algorithm in (
                BBSS(q, k),
                FPSS(q, k),
                CRSS(q, k, num_disks=5),
                WOPTSS(q, k, oracle_dk=dk),
            ):
                got = [n.oid for n in executor.execute(algorithm)]
                assert got == expected, algorithm.name

    def test_crss_batches_bounded(self, sstree):
        executor = CountingExecutor(sstree)
        executor.execute(CRSS((0.5, 0.5), 20, num_disks=5))
        assert executor.last_stats.max_batch <= 5

    def test_invalid_disk_count(self):
        with pytest.raises(ValueError, match="num_disks"):
            ParallelSSTree(2, num_disks=0)


@pytest.mark.parametrize("policy", ["data_balance", "area_balance"])
@pytest.mark.parametrize("build", [build_parallel_sstree, build_parallel_srtree])
def test_balancing_policies_spread_sphere_trees(build, policy):
    """The balancing policies read per-disk objects and areas, which a
    sphere tree reports like an R*-tree (areas of the bounding boxes);
    fed zeros, they put all 226 pages of this tree on disk 0."""
    tree = build(
        uniform(3000, 2, seed=0), dims=2, num_disks=10,
        policy=make_policy(policy), seed=0,
    )
    disks = Counter(tree.disk_of(page_id) for page_id in tree.page_ids())
    assert sorted(disks) == list(range(10))




def _nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend(node.entries)


@pytest.mark.parametrize("tree_class, node_class", [
    (SSTree, SSNode), (SRTree, SRNode),
])
def test_cached_arrays_equal_a_fresh_build_after_every_insert(
    tree_class, node_class
):
    """Every node's cached region arrays stay the arrays its entries
    give, insert after insert; every cache is warmed again each time so
    a missed invalidation shows at the next insert."""
    tree = tree_class(2, max_entries=6)
    for oid, point in enumerate(uniform(500, 2, seed=33)):
        tree.insert(point, oid)
        for node in _nodes(tree):
            assert type(node) is node_class
            cached = node.entry_bounds()
            fresh = node.build_bounds()
            assert len(cached) == len(fresh)
            for got, want in zip(cached, fresh):
                assert got.tobytes() == want.tobytes()
            # A leaf's first array is its point matrix.
            if node.is_leaf:
                assert cached[0].tolist() == [
                    list(entry.point) for entry in node.entries
                ]
    assert tree.height >= 4
    assert np.asarray(tree.root.entry_bounds()[0]).shape[1] == 2


@pytest.mark.parametrize("tree_class", [SSTree, SRTree])
@settings(max_examples=25, deadline=None)
@given(points=st.lists(
    st.tuples(st.floats(0, 1, width=32), st.floats(0, 1, width=32)),
    max_size=80,
))
def test_leaf_data_equals_a_fresh_build_after_every_insert(tree_class,
                                                           points):
    """Splits rewrite entry lists; every leaf's cached oids and point
    tuples follow, insert after insert, warmed again each time."""
    tree = tree_class(2, max_entries=4)
    for oid, point in enumerate(points):
        tree.insert(point, oid)
        assert_leaf_data_is_fresh(_nodes(tree))
