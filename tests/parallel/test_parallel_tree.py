"""Tests for the declustered parallel R*-tree."""

import random
from collections import Counter

import pytest

from repro.datasets import uniform
from repro.parallel import (
    ParallelRStarTree,
    ProximityIndex,
    RoundRobin,
    build_parallel_tree,
)
from repro.rtree import check_invariants
from repro.rtree.query import kth_nearest_distance


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="num_disks"):
            ParallelRStarTree(2, num_disks=0)
        with pytest.raises(ValueError, match="num_cylinders"):
            ParallelRStarTree(2, num_disks=2, num_cylinders=0)

    def test_every_page_is_placed(self, parallel_tree):
        for page_id in parallel_tree.tree.pages:
            disk = parallel_tree.disk_of(page_id)
            assert 0 <= disk < parallel_tree.num_disks
            cylinder = parallel_tree.cylinder_of(page_id)
            assert 0 <= cylinder < parallel_tree.num_cylinders

    def test_underlying_tree_is_valid(self, parallel_tree):
        check_invariants(parallel_tree.tree)

    def test_delegation(self, parallel_tree, small_points):
        assert len(parallel_tree) == len(small_points)
        assert parallel_tree.dims == 2
        assert parallel_tree.height >= 3
        root = parallel_tree.page(parallel_tree.root_page_id)
        assert root is parallel_tree.tree.root


class TestPlacementMaintenance:
    def test_deletion_releases_placement(self):
        points = uniform(120, 2, seed=3)
        tree = build_parallel_tree(points, dims=2, num_disks=4, max_entries=4)
        placed_before = len(tree.tree.pages)
        for oid, p in enumerate(points):
            tree.delete(p, oid)
        # All placements for freed pages are gone; the remaining root is
        # still placed.
        assert len(tree._placement) == len(tree.tree.pages) == 1
        assert placed_before > 1

    def test_placement_reasonably_balanced(self):
        points = uniform(800, 2, seed=11)
        tree = build_parallel_tree(points, dims=2, num_disks=5, max_entries=8)
        histogram = tree.placement_histogram()
        assert set(histogram) <= set(range(5))
        counts = [histogram.get(d, 0) for d in range(5)]
        assert min(counts) > 0
        # The PI heuristic keeps load within a reasonable band.
        assert max(counts) <= 2.5 * min(counts)

    def test_objects_per_disk_sums_to_population(self, parallel_tree):
        assert sum(parallel_tree.objects_per_disk()) == len(parallel_tree)

    def test_area_per_disk_nonnegative(self, parallel_tree):
        assert all(a >= 0.0 for a in parallel_tree.area_per_disk())

    def test_cylinder_assignment_spreads(self):
        points = uniform(600, 2, seed=13)
        tree = build_parallel_tree(points, dims=2, num_disks=4, max_entries=4)
        cylinders = {
            tree.cylinder_of(pid) for pid in tree.tree.pages
        }
        # Uniform assignment over 1449 cylinders: collisions happen, but
        # a broad spread is expected.
        assert len(cylinders) > len(tree.tree.pages) // 3

    def test_seed_reproducibility(self):
        points = uniform(200, 2, seed=2)
        a = build_parallel_tree(points, dims=2, num_disks=4, seed=5,
                                max_entries=4)
        b = build_parallel_tree(points, dims=2, num_disks=4, seed=5,
                                max_entries=4)
        assert a._placement == b._placement
        assert a._cylinder == b._cylinder


class TestPolicyIntegration:
    def test_round_robin_policy_used(self):
        points = uniform(300, 2, seed=4)
        tree = build_parallel_tree(
            points, dims=2, num_disks=3, policy=RoundRobin(), max_entries=4
        )
        histogram = tree.placement_histogram()
        counts = sorted(histogram.values())
        # Round robin is almost perfectly balanced.
        assert counts[-1] - counts[0] <= 2

    def test_default_policy_is_proximity(self):
        tree = ParallelRStarTree(2, num_disks=2)
        assert isinstance(tree.policy, ProximityIndex)


class TestOracles:
    def test_kth_nearest_distance_matches_knn(self, parallel_tree):
        q = (0.4, 0.4)
        dk = parallel_tree.kth_nearest_distance(q, 9)
        assert dk == pytest.approx(parallel_tree.knn(q, 9)[-1].distance)

    def test_kth_nearest_distance_is_the_best_first_oracle(self):
        """Leaf-array ``D_k`` == best-first, through deletes down to a
        one-page tree."""
        rng = random.Random(8)
        data = uniform(300, 2, seed=9)
        data += data[:30]
        tree = build_parallel_tree(data, dims=2, num_disks=3, max_entries=5)
        live = dict(enumerate(data))
        queries = [data[0], (0.5, 0.5), (-1.0, 2.0), (0.0, 0.0)]
        for step in range(6):
            for query in queries:
                for k in (1, 2, 7, len(live), len(live) + 3):
                    assert tree.kth_nearest_distance(query, k) == (
                        kth_nearest_distance(tree.tree, query, k)
                    ), (step, query, k)
            for oid in rng.sample(sorted(live), 50):
                assert tree.delete(live.pop(oid), oid)
        while live:
            oid, point = live.popitem()
            assert tree.delete(point, oid)
            if tree.height == 1 and live:
                query = (0.3, 0.7)
                assert tree.kth_nearest_distance(query, 2) == (
                    kth_nearest_distance(tree.tree, query, 2)
                )

    def test_kth_nearest_distance_bad_input(self, parallel_tree):
        empty = ParallelRStarTree(2, num_disks=2)
        with pytest.raises(ValueError, match="empty tree"):
            empty.kth_nearest_distance((0.5, 0.5), 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            parallel_tree.kth_nearest_distance((0.5, 0.5, 0.5), 3)
        with pytest.raises(ValueError, match="k must be positive"):
            parallel_tree.kth_nearest_distance((0.5, 0.5), 0)

    def test_kth_nearest_distance_runs_no_best_first_search(
        self, monkeypatch, parallel_tree
    ):
        from repro.rtree import query as pointer_queries

        def unreachable(*args, **kwargs):
            raise AssertionError("D_k ran the best-first oracle")

        monkeypatch.setattr(pointer_queries, "knn", unreachable)
        monkeypatch.setattr(
            pointer_queries, "kth_nearest_distance", unreachable
        )
        assert parallel_tree.kth_nearest_distance((0.4, 0.4), 9) > 0.0

    def test_optimal_page_set_contains_root(self, parallel_tree):
        pages = parallel_tree.optimal_page_set((0.5, 0.5), 5)
        assert parallel_tree.root_page_id in pages
