"""Property-based tests: the R*-tree under randomized workloads.

These are the heavyweight correctness guarantees: arbitrary interleaved
insert/delete sequences keep every structural invariant, and k-NN always
matches a brute-force oracle.
"""

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.rtree import RStarTree, check_invariants
from tests.conftest import brute_force_knn

# width=32 keeps coordinates away from double-precision denormals: the
# library compares *squared* distances, and squaring a denormal double
# underflows to exactly 0.0, which would make "distinct" hypothesis
# points indistinguishable to the tree but not to the float64 oracle.
coord = st.floats(
    min_value=0.0,
    max_value=1.0,
    allow_nan=False,
    allow_infinity=False,
    width=32,
)
point2d = st.tuples(coord, coord)
point3d = st.tuples(coord, coord, coord)


@settings(max_examples=30, deadline=None)
@given(st.lists(point2d, min_size=1, max_size=120))
def test_insert_only_invariants(points):
    tree = RStarTree(2, max_entries=4, min_entries=2)
    for i, p in enumerate(points):
        tree.insert(p, i)
    assert check_invariants(tree) == len(points)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(point2d, min_size=1, max_size=80),
    st.data(),
)
def test_interleaved_insert_delete_invariants(points, data):
    """Random insert/delete interleaving preserves every invariant."""
    tree = RStarTree(2, max_entries=4, min_entries=2)
    live = {}
    for i, p in enumerate(points):
        tree.insert(p, i)
        live[i] = p
        if len(live) > 3 and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(sorted(live)))
            assert tree.delete(live[victim], victim)
            del live[victim]
    check_invariants(tree)
    assert len(tree) == len(live)
    stored = dict((oid, p) for p, oid in tree.iter_points())
    assert stored == live


@settings(max_examples=25, deadline=None)
@given(
    st.lists(point2d, min_size=2, max_size=100, unique=True),
    point2d,
    st.integers(min_value=1, max_value=20),
)
# Point 1 is nearer by one ulp of the squared distance, but both
# distances round to the same double once rooted.
@example(
    points=[(0.0, 0.0), (0.0, 8.028184891521159e-17)],
    query=(0.375, 1.0),
    k=1,
)
def test_knn_matches_brute_force_2d(points, query, k):
    tree = RStarTree(2, max_entries=5, min_entries=2)
    for i, p in enumerate(points):
        tree.insert(p, i)
    got = [(round(r.distance, 9), r.oid) for r in tree.knn(query, k)]
    expected = [
        (round(d, 9), oid) for d, oid in brute_force_knn(points, query, k)
    ]
    assert got == expected


@settings(max_examples=15, deadline=None)
@given(
    st.lists(point3d, min_size=2, max_size=60, unique=True),
    point3d,
    st.integers(min_value=1, max_value=10),
)
def test_knn_matches_brute_force_3d(points, query, k):
    tree = RStarTree(3, max_entries=4, min_entries=2)
    for i, p in enumerate(points):
        tree.insert(p, i)
    got = [(round(r.distance, 9), r.oid) for r in tree.knn(query, k)]
    expected = [
        (round(d, 9), oid) for d, oid in brute_force_knn(points, query, k)
    ]
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(st.lists(point2d, min_size=1, max_size=60))
def test_range_query_matches_scan(points):
    tree = RStarTree(2, max_entries=4, min_entries=2)
    for i, p in enumerate(points):
        tree.insert(p, i)
    from repro.geometry.rect import Rect

    window = Rect((0.25, 0.25), (0.75, 0.75))
    got = {oid for _, oid in tree.range_query(window)}
    expected = {i for i, p in enumerate(points) if window.contains_point(p)}
    assert got == expected
