"""Tests for the SR-tree extension."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BBSS, CRSS, CountingExecutor, FPSS, WOPTSS
from repro.core.distances import minimum_distance_sq
from repro.core.regions import KERNELS
from repro.datasets import gaussian, uniform
from repro.extensions.range_search import ParallelRangeSearch
from repro.extensions.srtree import (
    ParallelSRTree,
    SRRegion,
    SRTree,
    build_parallel_srtree,
)
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere
from repro.rtree.node import LeafEntry
from tests.conftest import brute_force_knn


def _bound(metric, q, region):
    """One region's bound through the kernel table of its family."""
    if isinstance(region, Rect):
        family, parts = "rect", (region.low, region.high)
    elif isinstance(region, Sphere):
        family, parts = "sphere", (region.center, region.radius)
    else:
        family = "sr"
        parts = (region.rect.low, region.rect.high,
                 region.sphere.center, region.sphere.radius)
    rows = [np.asarray([part], dtype=np.float64) for part in parts]
    return KERNELS[family, metric](q, *rows).tolist()[0]


class TestSRRegion:
    def test_construction_and_dims(self):
        region = SRRegion(
            Rect((0.0, 0.0), (1.0, 1.0)), Sphere((0.5, 0.5), 0.8)
        )
        assert region.dims == 2
        assert region.center == (0.5, 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            SRRegion(Rect((0.0,), (1.0,)), Sphere((0.5, 0.5), 0.8))

    def test_combined_dmin_is_max_of_parts(self):
        rect = Rect((2.0, 0.0), (3.0, 1.0))
        sphere = Sphere((2.5, 0.5), 2.0)  # much looser than the rect
        region = SRRegion(rect, sphere)
        q = (0.0, 0.5)
        assert _bound("dmin", q, region) == max(
            _bound("dmin", q, rect), _bound("dmin", q, sphere)
        )

    def test_combined_dmax_is_min_of_parts(self):
        rect = Rect((2.0, 0.0), (3.0, 1.0))
        sphere = Sphere((2.5, 0.5), 0.3)  # tighter than the rect
        region = SRRegion(rect, sphere)
        q = (0.0, 0.5)
        assert _bound("dmax", q, region) == min(
            _bound("dmax", q, rect), _bound("dmax", q, sphere)
        )

    def test_ordering_property(self):
        region = SRRegion(
            Rect((1.0, 1.0), (2.0, 3.0)), Sphere((1.5, 2.0), 1.2)
        )
        for q in [(0.0, 0.0), (1.5, 2.0), (5.0, 1.0)]:
            dmin, dmm, dmax = (
                _bound(m, q, region) for m in ("dmin", "dmm", "dmax")
            )
            assert dmin <= dmm + 1e-9
            assert dmm <= dmax + 1e-9


def check_srtree(tree: SRTree) -> int:
    """Invariant walker: both bounds cover every descendant."""

    def visit(node, expected_parent):
        assert node.parent is expected_parent
        assert len(node.entries) <= tree.max_entries
        if node is not tree.root:
            assert len(node.entries) >= tree.min_entries
        if node.is_leaf:
            count = len(node.entries)
            for entry in node.entries:
                assert isinstance(entry, LeafEntry)
                assert node.mbr.rect.contains_point(entry.point)
                assert (
                    math.dist(node.mbr.sphere.center, entry.point)
                    <= node.mbr.sphere.radius + 1e-9
                )
        else:
            count = 0
            for child in node.entries:
                assert child.level == node.level - 1
                count += visit(child, node)
                assert node.mbr.rect.contains_rect(child.mbr.rect)
                reach = (
                    math.dist(node.mbr.sphere.center, child.mbr.sphere.center)
                    + child.mbr.sphere.radius
                )
                # The parent's sphere may be rect-derived (tighter than
                # the sphere union), but it must still cover the child's
                # rect, which covers all objects.
                corner_reach = math.sqrt(
                    sum(
                        max(abs(c - lo), abs(hi - c)) ** 2
                        for c, lo, hi in zip(
                            node.mbr.sphere.center,
                            child.mbr.rect.low,
                            child.mbr.rect.high,
                        )
                    )
                )
                assert (
                    min(reach, corner_reach)
                    <= node.mbr.sphere.radius + 1e-9
                )
        assert node.object_count == count
        return count

    return visit(tree.root, None)


class TestSRTreeStructure:
    def test_builds_valid_tree(self):
        points = uniform(300, 2, seed=25)
        tree = SRTree(2, max_entries=6)
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert check_srtree(tree) == 300
        assert tree.height >= 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="dimensionality"):
            SRTree(0)
        with pytest.raises(ValueError, match="max_entries"):
            SRTree(2, max_entries=1)

    def test_knn_matches_brute_force(self):
        points = gaussian(250, 3, seed=26)
        tree = SRTree(3, max_entries=8)
        for i, p in enumerate(points):
            tree.insert(p, i)
        rng = random.Random(3)
        for _ in range(10):
            q = tuple(rng.random() for _ in range(3))
            k = rng.choice([1, 7, 30])
            got = [(round(d, 9), oid) for d, _, oid in tree.knn(q, k)]
            expected = [
                (round(d, 9), oid) for d, oid in brute_force_knn(points, q, k)
            ]
            assert got == expected

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False, width=32),
                st.floats(0, 1, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_insert_property(self, points):
        tree = SRTree(2, max_entries=4, min_entries=1)
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert check_srtree(tree) == len(points)


class TestParallelSRTree:
    @pytest.fixture(scope="class")
    def srtree(self):
        points = uniform(500, 2, seed=27)
        return build_parallel_srtree(points, dims=2, num_disks=4,
                                     max_entries=8)

    def test_all_algorithms_exact(self, srtree):
        pairs = list(srtree.tree.iter_points())
        executor = CountingExecutor(srtree)
        rng = random.Random(5)
        for _ in range(8):
            q = (rng.random(), rng.random())
            k = rng.choice([1, 5, 12])
            expected = [
                oid
                for _, oid in sorted(
                    (math.dist(q, p), oid) for p, oid in pairs
                )[:k]
            ]
            dk = srtree.kth_nearest_distance(q, k)
            for algorithm in (
                BBSS(q, k),
                FPSS(q, k),
                CRSS(q, k, num_disks=4),
                WOPTSS(q, k, oracle_dk=dk),
            ):
                got = [n.oid for n in executor.execute(algorithm)]
                assert got == expected, algorithm.name

    def test_window_query_over_srtree(self, srtree):
        pairs = list(srtree.tree.iter_points())
        executor = CountingExecutor(srtree)
        window = Rect((0.3, 0.3), (0.7, 0.8))
        got = sorted(
            n.oid for n in executor.execute(ParallelRangeSearch(window))
        )
        expected = sorted(
            oid for p, oid in pairs if window.contains_point(p)
        )
        assert got == expected

    def test_combined_bound_prunes_at_least_rect_bound(self, srtree):
        """SRRegion's Dmin dominates its rect part's Dmin, so WOPTSS
        over the SR-tree never visits a node the rect bound would
        reject."""
        executor = CountingExecutor(srtree)
        q, k = (0.2, 0.9), 6
        dk = srtree.kth_nearest_distance(q, k)
        executor.execute(WOPTSS(q, k, oracle_dk=dk))
        for page_id in executor.last_stats.pages:
            node = srtree.page(page_id)
            if node.mbr is not None:
                assert (
                    minimum_distance_sq(q, node.mbr.rect)
                    <= dk * dk * (1 + 1e-9) + 1e-12
                )

    def test_invalid_disk_count(self):
        with pytest.raises(ValueError, match="num_disks"):
            ParallelSRTree(2, num_disks=0)
