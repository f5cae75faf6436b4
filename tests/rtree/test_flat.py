"""Tests for the flat struct-of-arrays tree layout (repro.rtree.flat).

The freeze contract under test: a frozen tree answers every query
bit-identically to the pointer tree it came from — same neighbors,
same distances, same pages fetched in the same rounds — and round-trips
losslessly through rehydration and through the on-disk format (plain
read and mmap alike).
"""

import numpy as np
import pytest

from repro.core import BBSS, CRSS, FPSS, WOPTSS, CountingExecutor
from repro.datasets import gaussian, sample_queries
from repro.parallel import build_parallel_tree
from repro.rtree import (
    FlatNode,
    FlatTree,
    FrozenParallelTree,
    RStarTree,
    check_invariants,
    flatten,
    load_flat,
    save_flat,
)
from repro.rtree.query import kth_nearest_distance


@pytest.fixture(scope="module")
def points():
    return gaussian(600, 3, seed=11)


@pytest.fixture(scope="module")
def pointer_tree(points):
    """Declustered pointer tree (module-cached; treat as read-only)."""
    return build_parallel_tree(points, dims=3, num_disks=5, max_entries=8)


@pytest.fixture(scope="module")
def frozen_tree(pointer_tree):
    return flatten(pointer_tree)


def algorithm_factories(tree, query, k, num_disks):
    dk = tree.kth_nearest_distance(query, k)
    return {
        "BBSS": lambda: BBSS(query, k),
        "FPSS": lambda: FPSS(query, k),
        "CRSS": lambda: CRSS(query, k, num_disks=num_disks),
        "WOPTSS": lambda: WOPTSS(query, k, oracle_dk=dk),
    }


class TestFreezeShape:
    def test_level_order_packing(self, pointer_tree, frozen_tree):
        flat = frozen_tree.tree
        assert isinstance(flat, FlatTree)
        assert flat.height == pointer_tree.tree.height
        assert len(flat) == len(pointer_tree.tree)
        assert flat.node_count() == len(pointer_tree.tree.pages)
        # Every node's children are one contiguous slice of the level
        # below — the property the zero-copy bounds views rely on.
        for level in range(flat.height - 1, 0, -1):
            next_offset = 0
            for index in range(len(flat.level_page_ids[level])):
                node = flat.page(int(flat.level_page_ids[level][index]))
                assert node.entry_offset == next_offset
                next_offset += node.entry_count
            assert next_offset == len(flat.level_page_ids[level - 1])

    def test_page_ids_preserved(self, pointer_tree, frozen_tree):
        assert set(frozen_tree.tree.pages) == set(pointer_tree.tree.pages)
        assert (
            frozen_tree.root_page_id == pointer_tree.root_page_id
        )

    def test_placement_preserved(self, pointer_tree, frozen_tree):
        assert isinstance(frozen_tree, FrozenParallelTree)
        for page_id in pointer_tree.tree.pages:
            assert frozen_tree.disk_of(page_id) == pointer_tree.disk_of(
                page_id
            )
            assert frozen_tree.cylinder_of(
                page_id
            ) == pointer_tree.cylinder_of(page_id)

    def test_zero_copy_entry_bounds(self, frozen_tree):
        flat = frozen_tree.tree
        root = flat.root
        lows, highs = root.entry_bounds()
        assert lows.base is not None  # a view, not a copy
        assert highs.base is not None
        counts = root.child_counts()
        assert counts.dtype == np.int64
        assert len(counts) == len(root)

    def test_searches_build_no_entries(self, points, pointer_tree):
        """All four algorithms, counted and simulated, read a frozen
        tree's rows only: no node's ``entries`` list gets built."""
        from repro.simulation.simulator import simulate_workload

        frozen = flatten(pointer_tree)
        queries = sample_queries(points, 4, seed=13)
        executor = CountingExecutor(frozen)
        for query in queries:
            for factory in algorithm_factories(frozen, query, 10, 5).values():
                executor.execute(factory())
        for name in ("BBSS", "CRSS"):
            simulate_workload(
                frozen,
                lambda q: algorithm_factories(frozen, q, 10, 5)[name](),
                queries, arrival_rate=20.0, seed=3,
            )
        nodes = list(frozen.tree.pages.values())
        assert all(isinstance(node, FlatNode) for node in nodes)
        assert all(node._entries is None for node in nodes)


class TestFlatDifferential:
    @pytest.mark.parametrize("reloaded", [True, False])
    def test_all_algorithms_bit_identical(
        self, tmp_path, points, pointer_tree, frozen_tree, reloaded
    ):
        """Pointer tree vs. its freeze — as made in memory, and as
        mapped back from the file ``save_flat`` wrote."""
        if reloaded:
            path = str(tmp_path / "tree.flat")
            save_flat(frozen_tree, path)
            frozen_tree = load_flat(path, mmap=True)
        queries = sample_queries(points, 5, seed=12)
        for query in queries:
            factories = algorithm_factories(pointer_tree, query, 10, 5)
            for name, factory in factories.items():
                answers = {}
                stats = {}
                for label, tree in (
                    ("pointer", pointer_tree),
                    ("flat", frozen_tree),
                ):
                    executor = CountingExecutor(tree)
                    answers[label] = executor.execute(factory())
                    s = executor.last_stats
                    stats[label] = (
                        s.nodes_visited, s.rounds, s.critical_path
                    )
                assert answers["pointer"] == answers["flat"], name
                assert stats["pointer"] == stats["flat"], name

    def test_direct_knn_matches(self, points, pointer_tree, frozen_tree):
        queries = sample_queries(points, 5, seed=13)
        for query in queries:
            assert frozen_tree.knn(query, 7) == pointer_tree.knn(query, 7)
            assert frozen_tree.kth_nearest_distance(
                query, 7
            ) == pointer_tree.kth_nearest_distance(query, 7)


class TestFrozenKthNearestDistance:
    """The array-computed ``D_k`` equals the best-first pointer oracle."""

    @staticmethod
    def assert_matches(data, dims, queries, ks):
        pointer = build_parallel_tree(
            data, dims=dims, num_disks=3, max_entries=6
        )
        frozen = flatten(pointer)
        for query in queries:
            for k in ks:
                assert frozen.kth_nearest_distance(query, k) == (
                    kth_nearest_distance(pointer.tree, tuple(query), k)
                ), (query, k)

    def test_lattice_duplicates(self):
        sites = [(x / 4.0, y / 4.0) for x in range(5) for y in range(5)]
        data = [site for site in sites for _ in range(3)]
        queries = [(0.5, 0.5), (0.0, 0.0), (0.125, 0.25), (0.375, 0.625),
                   (1.5, -0.5)]
        self.assert_matches(
            data, 2, queries, [1, 2, 3, 4, 10, 31, len(data), len(data) + 9]
        )

    def test_one_dimension(self):
        data = [(x,) for x in np.random.default_rng(5).random(120).tolist()]
        data += data[:20]
        queries = [(0.5,), (0.0,), (1.0,), data[7], (-3.0,)]
        self.assert_matches(data, 1, queries, [1, 5, 20, len(data), 500])

    def test_sample_queries_and_every_k(self, points, pointer_tree,
                                        frozen_tree):
        for query in sample_queries(points, 4, seed=17):
            for k in (1, 2, 50, len(points), len(points) + 1):
                assert frozen_tree.kth_nearest_distance(query, k) == (
                    kth_nearest_distance(pointer_tree.tree, query, k)
                )

    def test_bad_input_is_still_a_value_error(self, frozen_tree):
        empty = flatten(build_parallel_tree([], dims=2, num_disks=2))
        with pytest.raises(ValueError, match="empty tree"):
            empty.kth_nearest_distance((0.5, 0.5), 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            frozen_tree.kth_nearest_distance((0.5, 0.5), 3)
        with pytest.raises(ValueError, match="k must be positive"):
            frozen_tree.kth_nearest_distance((0.5, 0.5, 0.5), 0)

    def test_pointer_oracle_is_not_reached(self, monkeypatch, points,
                                           frozen_tree):
        from repro.rtree import query as pointer_queries

        def unreachable(*args, **kwargs):
            raise AssertionError("the frozen tree ran the pointer oracle")

        monkeypatch.setattr(pointer_queries, "knn", unreachable)
        monkeypatch.setattr(
            pointer_queries, "kth_nearest_distance", unreachable
        )
        assert frozen_tree.kth_nearest_distance(points[0], 5) >= 0.0


class TestRoundTrips:
    def test_rehydrate_restores_pointer_tree(self, points):
        tree = RStarTree(3, max_entries=8)
        for oid, point in enumerate(points[:400]):
            tree.insert(point, oid)
        flat = FlatTree.from_tree(tree)
        thawed = flat.rehydrate()
        check_invariants(thawed)
        assert len(thawed) == len(tree)
        assert thawed.height == tree.height
        query = points[5]
        from repro.rtree.query import knn

        assert knn(thawed, query, 9) == knn(tree, query, 9)
        # Freezing the rehydrated tree reproduces the arrays exactly.
        again = FlatTree.from_tree(thawed)
        for level in range(flat.height):
            np.testing.assert_array_equal(
                flat.level_lows[level], again.level_lows[level]
            )
            np.testing.assert_array_equal(
                flat.level_page_ids[level], again.level_page_ids[level]
            )
        np.testing.assert_array_equal(flat.points, again.points)
        np.testing.assert_array_equal(flat.oids, again.oids)

    def test_mutations_resume_after_rehydrate(self, points):
        tree = RStarTree(3, max_entries=8)
        for oid, point in enumerate(points[:200]):
            tree.insert(point, oid)
        thawed = FlatTree.from_tree(tree).rehydrate()
        thawed.insert(points[200], 200)
        assert thawed.delete(points[5], 5)
        check_invariants(thawed)
        assert len(thawed) == 200

    def test_rehydrated_parallel_tree_keeps_placing_and_freeing_pages(
        self, points
    ):
        """Regression: rehydrate() dropped the placement hooks.

        The first split after a rehydrate created a page no table knew
        (``disk_of`` -> ``KeyError``) and a condensed page kept its slot.
        """
        from repro.simulation.updates import simulate_mixed_workload

        source = build_parallel_tree(
            points[:300], dims=3, num_disks=4, max_entries=6, seed=3
        )
        thawed = flatten(source).rehydrate()
        before = set(thawed.tree.pages)
        placed = {
            pid: (thawed.disk_of(pid), thawed.cylinder_of(pid))
            for pid in before
        }
        assert placed == {
            pid: (source.disk_of(pid), source.cylinder_of(pid))
            for pid in source.tree.pages
        }

        for oid, point in enumerate(points[300:500], start=300):
            thawed.insert(point, oid)
        created = set(thawed.tree.pages) - before
        assert len(created) >= 2  # at least two splits
        for oid in range(0, 260):
            assert thawed.delete(points[oid], oid)
        freed = before - set(thawed.tree.pages)
        assert freed  # condensation released pages
        check_invariants(thawed.tree)

        live = set(thawed.tree.pages)
        assert set(thawed._placement) == set(thawed._cylinder) == live
        for pid in live:
            assert 0 <= thawed.disk_of(pid) < 4
            assert 0 <= thawed.cylinder_of(pid) < thawed.num_cylinders
        for pid in freed:
            with pytest.raises(KeyError):
                thawed.disk_of(pid)
        for pid in live & before:
            assert (thawed.disk_of(pid), thawed.cylinder_of(pid)) == placed[pid]
        assert sum(thawed._nodes_per_disk) == len(live)

        # And the DES update path runs on it (KeyError before the fix).
        fresh = flatten(source).rehydrate()
        result = simulate_mixed_workload(
            fresh,
            lambda query: CRSS(query, 5, num_disks=4),
            queries=sample_queries(points, 10, seed=2),
            inserts=points[300:420],
            query_rate=20.0,
            insert_rate=60.0,
            seed=5,
            deletes=[(points[oid], oid) for oid in range(120)],
            delete_rate=40.0,
        )
        assert len(result.updates) == 240
        assert len(result.queries.records) == 10
        assert len(set(fresh.tree.pages) - before) >= 2
        check_invariants(fresh.tree)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_save_load_round_trip(
        self, tmp_path, points, pointer_tree, frozen_tree, mmap
    ):
        path = tmp_path / "tree.flat"
        save_flat(frozen_tree, str(path))
        loaded = load_flat(str(path), mmap=mmap)
        assert isinstance(loaded, FrozenParallelTree)
        assert loaded.num_disks == frozen_tree.num_disks
        for page_id in pointer_tree.tree.pages:
            assert loaded.disk_of(page_id) == frozen_tree.disk_of(page_id)
        queries = sample_queries(points, 3, seed=14)
        for query in queries:
            executor_a = CountingExecutor(frozen_tree)
            executor_b = CountingExecutor(loaded)
            got_a = executor_a.execute(CRSS(query, 8, num_disks=5))
            got_b = executor_b.execute(CRSS(query, 8, num_disks=5))
            assert got_a == got_b
            assert (
                executor_a.last_stats.nodes_visited
                == executor_b.last_stats.nodes_visited
            )

    def test_save_load_plain_tree(self, tmp_path, points):
        tree = RStarTree(3, max_entries=8)
        for oid, point in enumerate(points[:150]):
            tree.insert(point, oid)
        flat = flatten(tree)
        assert isinstance(flat, FlatTree)
        path = tmp_path / "plain.flat"
        save_flat(flat, str(path))
        loaded = load_flat(str(path))
        assert isinstance(loaded, FlatTree)
        from repro.rtree.query import knn

        assert knn(loaded, points[0], 5) == knn(tree, points[0], 5)


class TestAfterDeletions:
    def test_deletion_path_answers_match_fresh_build(self, points):
        """Golden deletion-path check for the bounds-cache fixes.

        Deleting through _condense/_shrink_root rewires entry lists;
        stale cached corner matrices anywhere would skew the vectorized
        scans.  A tree that went through heavy deletion must answer
        exactly like a tree freshly built from the surviving points.
        """
        survivors = points[:300]
        doomed = points[300:420]
        tree = RStarTree(3, max_entries=8)
        oid = 0
        victims = []
        for point in survivors:
            tree.insert(point, oid)
            oid += 1
        for point in doomed:
            tree.insert(point, oid)
            victims.append((point, oid))
            oid += 1
        for point, victim_oid in victims:
            assert tree.delete(point, victim_oid)
        check_invariants(tree)

        fresh = RStarTree(3, max_entries=8)
        for fresh_oid, point in enumerate(survivors):
            fresh.insert(point, fresh_oid)

        from repro.rtree.query import knn

        for query in sample_queries(survivors, 6, seed=15):
            assert knn(tree, query, 10) == knn(fresh, query, 10)
