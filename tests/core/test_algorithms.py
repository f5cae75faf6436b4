"""Behavioural tests for the four search algorithms.

Exactness (identical answers to a brute-force oracle) is covered by the
property suite in ``test_exactness.py``; here each algorithm's *access
pattern* — the thing the paper actually studies — is pinned down.
"""

import math
import random

import pytest

from repro.core import BBSS, CRSS, CountingExecutor, FPSS, WOPTSS
from repro.obs.explain import ExplainRecorder
from repro.parallel import build_parallel_tree
from repro.rtree import flatten
from repro.rtree.query import nodes_intersecting_sphere
from tests.core import oracle


@pytest.fixture(scope="module")
def deep_tree():
    """A 3+-level declustered tree over clustered data."""
    rng = random.Random(31)
    points = []
    for i in range(600):
        cx, cy = [(0.2, 0.2), (0.8, 0.3), (0.5, 0.8)][i % 3]
        points.append((rng.gauss(cx, 0.08), rng.gauss(cy, 0.08)))
    return build_parallel_tree(points, dims=2, num_disks=6, max_entries=8)


class TestBBSS:
    def test_one_page_per_round(self, deep_tree):
        executor = CountingExecutor(deep_tree)
        executor.execute(BBSS((0.5, 0.5), 10))
        assert executor.last_stats.max_batch == 1

    def test_visits_fewest_nodes_at_k1(self, deep_tree):
        """For k=1 the Dmin-ordered DFS is near-optimal (paper Fig. 8)."""
        executor = CountingExecutor(deep_tree)
        query = (0.25, 0.25)
        executor.execute(BBSS(query, 1))
        bbss_nodes = executor.last_stats.nodes_visited
        executor.execute(FPSS(query, 1))
        fpss_nodes = executor.last_stats.nodes_visited
        assert bbss_nodes <= fpss_nodes

    def test_overfetches_single_branch(self):
        """The paper's Figure 13 pathology: BBSS descends the branch with
        the smallest Dmin and inspects all of its objects even when a
        sibling branch holds closer ones.

        Construction: branch A has the smaller Dmin (its MBR corner is
        nearer the query) but its k objects are spread to the far side,
        while branch B holds k objects closer to the query.  BBSS must
        visit A's leaves first and therefore accesses more nodes than the
        weak-optimal set.
        """
        points = []
        # Branch A: an elongated cluster starting near the query but with
        # most mass far away.
        for i in range(12):
            points.append((0.30 + i * 0.05, 0.50))
        # Branch B: a tight cluster slightly farther at its near edge but
        # holding all the true nearest neighbors.
        for i in range(12):
            points.append((0.34 + i * 0.001, 0.52))
        tree = build_parallel_tree(points, dims=2, num_disks=4, max_entries=4)
        query = (0.28, 0.51)
        k = 8

        executor = CountingExecutor(tree)
        executor.execute(BBSS(query, k))
        bbss_nodes = executor.last_stats.nodes_visited

        dk = tree.kth_nearest_distance(query, k)
        optimal = len(nodes_intersecting_sphere(tree.tree, query, dk))
        assert bbss_nodes > optimal


class TestBBSSLeafInPlace:
    """BBSS offers a fetched leaf child where it stands; nothing any
    caller sees differs from visiting it as a subtree."""

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_same_run_with_leaf_pages_withheld(self, deep_tree, k, frozen):
        tree = flatten(deep_tree) if frozen else deep_tree
        leaves = sorted(
            pid for pid in tree.page_ids() if tree.page(pid).is_leaf
        )
        cut_off = 0
        for withheld in (frozenset(), frozenset(leaves[::3])):
            executor = CountingExecutor(tree, unavailable=withheld)
            for query in [(0.2, 0.2), (0.5, 0.5), (0.81, 0.33)]:
                runs = []
                for algorithm in (BBSS, oracle.RecursiveBBSS):
                    search = algorithm(query, k)
                    search.explain = ExplainRecorder(
                        num_disks=tree.num_disks,
                        level_of=lambda pid: tree.page(pid).level,
                        disk_of=tree.disk_of,
                    )
                    answers = executor.execute(search)
                    stats = executor.last_stats
                    runs.append((
                        answers, stats.pages, stats.rounds,
                        stats.unreachable_pages,
                        repr(search.certified_radius),
                        search.explain.to_dict(),
                        list(search.explain.events),
                    ))
                assert runs[0] == runs[1]
                if runs[0][3]:
                    # A skipped leaf certifies the radius its Dmin bounds.
                    cut_off += 1
                    assert math.isfinite(float(runs[0][4]))
        assert cut_off


class TestFPSS:
    def test_reaches_leaves_in_height_rounds(self, deep_tree):
        """Pure BFS: exactly one round per tree level."""
        executor = CountingExecutor(deep_tree)
        executor.execute(FPSS((0.5, 0.5), 10))
        assert executor.last_stats.rounds == deep_tree.height

    def test_fetches_at_least_crss(self, deep_tree):
        executor = CountingExecutor(deep_tree)
        rng = random.Random(5)
        for _ in range(10):
            query = (rng.random(), rng.random())
            executor.execute(FPSS(query, 10))
            fpss_nodes = executor.last_stats.nodes_visited
            executor.execute(CRSS(query, 10, num_disks=deep_tree.num_disks))
            crss_nodes = executor.last_stats.nodes_visited
            assert crss_nodes <= fpss_nodes


class TestCRSS:
    def test_batches_bounded_by_num_disks(self, deep_tree):
        executor = CountingExecutor(deep_tree)
        for k in (1, 5, 25, 100):
            executor.execute(CRSS((0.4, 0.6), k, num_disks=deep_tree.num_disks))
            assert executor.last_stats.max_batch <= deep_tree.num_disks

    def test_max_active_override(self, deep_tree):
        executor = CountingExecutor(deep_tree)
        executor.execute(CRSS((0.4, 0.6), 25, num_disks=6, max_active=2))
        assert executor.last_stats.max_batch <= 2

    def test_exploits_parallelism(self, deep_tree):
        """CRSS fetches more than one page per round on average."""
        executor = CountingExecutor(deep_tree)
        executor.execute(CRSS((0.5, 0.5), 20, num_disks=deep_tree.num_disks))
        assert executor.last_stats.parallelism > 1.2

    def test_k_exceeding_population_returns_everything(self, deep_tree):
        executor = CountingExecutor(deep_tree)
        result = executor.execute(
            CRSS((0.5, 0.5), 10_000, num_disks=deep_tree.num_disks)
        )
        assert len(result) == len(deep_tree)

    def test_single_disk_degenerates_gracefully(self, deep_tree):
        """u=1 forces one activation per step — still exact."""
        executor = CountingExecutor(deep_tree)
        result = executor.execute(CRSS((0.3, 0.3), 7, num_disks=1))
        reference = deep_tree.knn((0.3, 0.3), 7)
        assert [n.oid for n in result] == [n.oid for n in reference]


class TestWOPTSS:
    def test_requires_oracle(self):
        with pytest.raises(ValueError, match="oracle"):
            WOPTSS((0.5, 0.5), 3)
        with pytest.raises(ValueError, match="oracle"):
            WOPTSS((0.5, 0.5), 3, oracle_dk=-1.0)

    def test_visits_exactly_the_optimal_node_set(self, deep_tree):
        rng = random.Random(8)
        executor = CountingExecutor(deep_tree)
        for _ in range(10):
            query = (rng.random(), rng.random())
            k = rng.choice([1, 5, 20])
            dk = deep_tree.kth_nearest_distance(query, k)
            executor.execute(WOPTSS(query, k, oracle_dk=dk))
            visited = set(executor.last_stats.pages)
            optimal = nodes_intersecting_sphere(deep_tree.tree, query, dk)
            assert visited == optimal

    def test_level_synchronous_rounds(self, deep_tree):
        query = (0.5, 0.5)
        dk = deep_tree.kth_nearest_distance(query, 10)
        executor = CountingExecutor(deep_tree)
        executor.execute(WOPTSS(query, 10, oracle_dk=dk))
        assert executor.last_stats.rounds <= deep_tree.height


class TestWeakOptimalityLowerBound:
    def test_every_algorithm_visits_a_superset(self, deep_tree):
        """Theorem 2's premise: no real algorithm beats the weak-optimal
        node set (they may visit more, never fewer)."""
        rng = random.Random(13)
        executor = CountingExecutor(deep_tree)
        for _ in range(8):
            query = (rng.random(), rng.random())
            k = rng.choice([1, 4, 16])
            dk = deep_tree.kth_nearest_distance(query, k)
            optimal = nodes_intersecting_sphere(deep_tree.tree, query, dk)
            for algorithm in (
                BBSS(query, k),
                FPSS(query, k),
                CRSS(query, k, num_disks=deep_tree.num_disks),
            ):
                executor.execute(algorithm)
                assert len(set(executor.last_stats.pages)) >= len(optimal)
