"""Differential kNN: every algorithm vs brute force, on both tree forms.

Complements the hypothesis suite in ``test_exactness.py`` with seeded,
deterministic datasets engineered for the ugly cases — duplicate points
and exact distance ties — and runs each algorithm twice, once over the
pointer tree (the build form) and once over its freeze (the read form),
asserting the two return the identical answers *and* pay the identical
I/O.
"""

import math

import numpy as np
import pytest

from repro.core import BBSS, CRSS, FPSS, WOPTSS, CountingExecutor
from repro.geometry.point import squared_euclidean
from repro.parallel import build_parallel_tree
from repro.rtree import flatten


def tie_heavy_dataset(dims, n, seed):
    """Seeded points snapped to a coarse grid, with a duplicated slice.

    Grid snapping manufactures exact distance ties between distinct
    points; the appended slice adds outright duplicate points (distinct
    oids at distance zero from each other).
    """
    rng = np.random.default_rng(seed)
    base = np.round(rng.uniform(0.0, 1.0, (n, dims)) * 8.0) / 8.0
    points = [tuple(row) for row in base.tolist()]
    points.extend(points[: n // 4])
    return points


def oracle(points, query, k):
    """Exact (dist_sq, oid) answers, ties broken toward smaller oids."""
    ranked = sorted(
        (squared_euclidean(query, p), oid) for oid, p in enumerate(points)
    )
    return ranked[:k]


def algorithm_factories(query, k, num_disks, oracle_dk):
    return [
        lambda: BBSS(query, k),
        lambda: FPSS(query, k),
        lambda: CRSS(query, k, num_disks=num_disks),
        lambda: WOPTSS(query, k, oracle_dk=oracle_dk),
    ]


@pytest.mark.parametrize("dims", [2, 6])
def test_all_algorithms_match_brute_force_on_both_paths(dims):
    num_disks = 5
    points = tie_heavy_dataset(dims, 80, seed=dims)
    tree = build_parallel_tree(
        points, dims=dims, num_disks=num_disks, max_entries=8
    )
    executors = {
        "pointer": CountingExecutor(tree),
        "frozen": CountingExecutor(flatten(tree)),
    }
    rng = np.random.default_rng(100 + dims)
    queries = [
        tuple(rng.uniform(0.0, 1.0, dims).tolist()),  # off-grid
        points[3],                                    # exactly on a data point
        points[-1],                                   # on a duplicated point
    ]
    for query in queries:
        for k in (1, 5, len(points)):
            expected = oracle(points, query, k)
            expected_ids = [oid for _, oid in expected]
            expected_distances = [math.sqrt(d) for d, _ in expected]
            dk = tree.kth_nearest_distance(query, k)
            for factory in algorithm_factories(query, k, num_disks, dk):
                answers = {}
                stats = {}
                for form, executor in executors.items():
                    answers[form] = executor.execute(factory())
                    s = executor.last_stats
                    stats[form] = (
                        s.nodes_visited, s.rounds, s.critical_path
                    )
                name = factory().name
                # Both forms: identical answers and identical traversal.
                assert answers["pointer"] == answers["frozen"], (name, k)
                assert stats["pointer"] == stats["frozen"], (name, k)
                # And both match the brute-force oracle exactly.
                got_ids = [n.oid for n in answers["frozen"]]
                got_distances = [n.distance for n in answers["frozen"]]
                assert got_ids == expected_ids, (name, k)
                assert got_distances == expected_distances, (name, k)


def test_duplicate_query_point_k_covers_all_copies():
    """k exactly spans a duplicate group: tie-break must be stable."""
    dims, copies = 3, 6
    rng = np.random.default_rng(7)
    base = [tuple(rng.uniform(0.0, 1.0, dims).tolist()) for _ in range(12)]
    points = [p for p in base for _ in range(copies)]
    tree = build_parallel_tree(points, dims=dims, num_disks=4, max_entries=6)
    executors = [CountingExecutor(tree), CountingExecutor(flatten(tree))]
    query = base[5]
    for k in (1, copies - 1, copies, copies + 1):
        expected_ids = [oid for _, oid in oracle(points, query, k)]
        for executor in executors:
            got = executor.execute(CRSS(query, k, num_disks=4))
            assert [n.oid for n in got] == expected_ids, k
        # The k nearest of a query sitting on a duplicated point start
        # with that duplicate group, in oid order.
        group = sorted(
            oid for oid, p in enumerate(points) if p == query
        )
        assert expected_ids[: min(k, copies)] == group[: min(k, copies)]
