"""Shared fixtures for the test suite.

Fixtures deliberately use small fan-outs (8–16 entries per node) so even
a few hundred points produce trees of height 3+ — deep enough that every
algorithmic behaviour under test (candidate stacks, forced reinsertion,
subtree descents) actually occurs.
"""

import math

import pytest

from repro.datasets import gaussian, uniform
from repro.parallel import ParallelRStarTree, build_parallel_tree
from repro.rtree import RStarTree


@pytest.fixture(scope="session")
def small_points():
    """300 uniform 2-d points (session-cached; treat as read-only)."""
    return uniform(300, 2, seed=42)


@pytest.fixture(scope="session")
def clustered_points():
    """400 Gaussian 2-d points (session-cached; treat as read-only)."""
    return gaussian(400, 2, seed=7)


@pytest.fixture
def small_tree(small_points):
    """A fresh plain R*-tree over small_points, fan-out 8."""
    tree = RStarTree(2, max_entries=8)
    for oid, point in enumerate(small_points):
        tree.insert(point, oid)
    return tree


@pytest.fixture(scope="session")
def parallel_tree(small_points):
    """A declustered tree over small_points: 5 disks, fan-out 8.

    Session-scoped because construction dominates test time; tests must
    not mutate it (mutating tests build their own trees).
    """
    return build_parallel_tree(
        small_points, dims=2, num_disks=5, max_entries=8
    )


def brute_force_knn(points, query, k):
    """Oracle: exact k-NN as (distance, oid), ties broken by oid.

    Points are ranked by squared distance, as the library ranks them.
    Ranking by the rooted distance would call two points tied when their
    square roots round to the same double although one is strictly
    nearer, and then hand the tie to the smaller oid.
    """
    scored = []
    for oid, point in enumerate(points):
        dist_sq = 0.0
        for x, y in zip(query, point):
            dist_sq += (x - y) * (x - y)
        scored.append((dist_sq, oid))
    scored.sort()
    return [(math.sqrt(dist_sq), oid) for dist_sq, oid in scored[:k]]
