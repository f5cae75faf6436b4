"""Degenerate geometry: every algorithm stays exact when bounds round.

On duplicate points, zero-extent MBRs, float32-rounded coordinates and
``-0.0`` the three branch bounds are equal in exact arithmetic, and
their rounded values need not be ordered: ``Dmm``'s ``far_total - far
+ near`` used to land one ulp below ``Dmin``, or below the distance of
the very object its face guarantees, after which BBSS's Rule 1 pruned
the branch holding the answer.  The rect ``Dmm`` now folds each axis's
guarantee on its own, in the point kernel's axis order, so monotone
rounding keeps it above both with no clamp; the SR ``Dmm`` is clamped to
its ``Dmin`` and the SR ``Dmax`` to its ``Dmm``.  These tests hold all
four algorithms to the brute-force oracle on such data, every kernel
family to ``Dmin <= Dmm <= Dmax``, and the rect ``Dmm`` to the nearest
object of its box.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import BBSS, CRSS, FPSS, WOPTSS, CountingExecutor
from repro.core.regions import KERNELS
from repro.perf import kernels
from repro.parallel import build_parallel_tree
from tests.conftest import brute_force_knn

NUM_DISKS = 2
FLOAT32_004 = float(np.float32(0.004))

#: The defect's reproduction: BBSS returned ``[]`` here, the others ``[0]``.
REPRODUCTION = ([(0.0, 0.0)] * 4 + [(1.0, 0.0)], (0.0, FLOAT32_004))

#: A ``Dmm`` that undercut its face object: the box ``[0, a] x [0, 1]``
#: scored ``(a² + 1) - 1``, one ulp below ``a²``, and BBSS pruned the
#: leaf holding oid 0 (it returned oid 6 at the same distance).
A = 0.03343293443322182
FACE_REPRODUCTION = ([(A, 0.0)] * 8 + [(0.0, 1.0)], (0.0, 0.0))

coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, FLOAT32_004, 5e-324]),
    st.floats(-1.0, 1.0, width=32),
)
point = st.tuples(coordinate, coordinate)


@st.composite
def degenerate_sets(draw):
    """Few distinct points, each drawn many times, and a query that is
    a coordinate pair of the same kind or one of the points itself."""
    pool = draw(st.lists(point, min_size=1, max_size=6))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    query = draw(st.one_of(point, st.sampled_from(points)))
    return points, query


def answers(points, query, k):
    tree = build_parallel_tree(points, 2, NUM_DISKS, max_entries=4)
    executor = CountingExecutor(tree)
    dk = tree.kth_nearest_distance(query, k)
    found = {}
    for algorithm in (
        BBSS(query, k),
        FPSS(query, k),
        CRSS(query, k, num_disks=NUM_DISKS),
        WOPTSS(query, k, oracle_dk=dk),
    ):
        result = executor.execute(algorithm)
        found[algorithm.name] = [(n.distance, n.oid) for n in result]
    return found


def test_bbss_keeps_the_answer_rule_1_used_to_prune():
    points, query = REPRODUCTION
    for name, got in answers(points, query, 1).items():
        assert [oid for _, oid in got] == [0], name


def test_bbss_keeps_the_answer_its_face_guarantees():
    points, query = FACE_REPRODUCTION
    for name, got in answers(points, query, 1).items():
        assert [oid for _, oid in got] == [0], name


@settings(max_examples=150, deadline=None)
@given(degenerate_sets())
@example(REPRODUCTION)
@example(FACE_REPRODUCTION)
def test_all_algorithms_match_brute_force_on_degenerate_geometry(case):
    points, query = case
    for k in sorted({1, 2, len(points)}):
        expected = brute_force_knn(points, query, k)
        for name, got in answers(points, query, k).items():
            assert got == expected, (name, k)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(point, point), min_size=1, max_size=8),
    point,
    st.floats(0.0, 1.0, width=32),
)
def test_minmax_never_rounds_below_dmin(boxes, query, radius):
    lows = np.array([np.minimum(a, b) for a, b in boxes], dtype=np.float64)
    highs = np.array([np.maximum(a, b) for a, b in boxes], dtype=np.float64)
    centers = (lows + highs) / 2.0
    radii = np.full(len(boxes), radius)
    for family, arrays in (
        ("rect", (lows, highs)),
        ("sr", (lows, highs, centers, radii)),
    ):
        dmin = KERNELS[family, "dmin"](query, *arrays)
        dmm = KERNELS[family, "dmm"](query, *arrays)
        assert (dmin <= dmm).all(), family


def test_sr_minmax_holds_where_the_sphere_rounds_below_the_rect():
    """A one-point SR node at squared distance 0.25390625: the rect's
    ``Dmin`` is exact, the sphere's far side ``sqrt(d) ** 2`` one ulp
    below it, so the smaller existence bound undercut the region's
    ``Dmin`` until the SR ``Dmm`` was clamped too."""
    query = (0.0625, 0.5)
    corner = np.zeros((1, 2))
    arrays = (corner, corner, corner, np.zeros(1))
    assert math.sqrt(0.25390625) ** 2 < 0.25390625
    assert KERNELS["sphere", "dmm"](query, corner, np.zeros(1))[0] < 0.25390625
    assert KERNELS["sr", "dmin"](query, *arrays).tolist() == [0.25390625]
    assert KERNELS["sr", "dmm"](query, *arrays).tolist() == [0.25390625]


def _family_arrays(lows, highs, radius):
    """The four region families' arrays over the same 2-d boxes.

    SR regions pair each box with a sphere about its centre, so the
    intersection always holds the centre; TV regions take the first
    axis as the head and the second as the tail.
    """
    centers = (lows + highs) / 2.0
    radii = np.full(len(lows), radius)
    return {
        "rect": (lows, highs),
        "sphere": (centers, radii),
        "sr": (lows, highs, centers, radii),
        "tv": (lows[:, :1], highs[:, :1], lows[:, 1:], highs[:, 1:]),
    }


#: A one-point SR node at squared distance 2.0: the sphere's near side
#: ``sqrt(2.0) ** 2`` rounds one ulp above the rect's ``Dmax``.
SR_ABOVE_DMAX = ([((0.0, 0.0), (0.0, 0.0))], (1.0, 1.0), 0.0)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.tuples(point, point), min_size=1, max_size=8),
    point,
    st.floats(0.0, 1.0, width=32),
)
@example(*SR_ABOVE_DMAX)
def test_every_family_orders_its_three_bounds(boxes, query, radius):
    """``Dmin <= Dmm <= Dmax`` for every :data:`KERNELS` family."""
    lows = np.array([np.minimum(a, b) for a, b in boxes], dtype=np.float64)
    highs = np.array([np.maximum(a, b) for a, b in boxes], dtype=np.float64)
    for family, arrays in _family_arrays(lows, highs, radius).items():
        dmin, dmm, dmax = (
            KERNELS[family, metric](query, *arrays)
            for metric in ("dmin", "dmm", "dmax")
        )
        assert (dmin <= dmm).all(), family
        assert (dmm <= dmax).all(), family


@settings(max_examples=500, deadline=None)
@given(st.lists(point, min_size=1, max_size=8), point)
@example([(A, 0.0), (0.0, 1.0)], (0.0, 0.0))
def test_rect_dmm_never_undercuts_every_object(points, query):
    """Every face of an MBR touches one of its objects, so ``Dmm`` is at
    least the computed distance of the nearest of them."""
    matrix = np.array(points, dtype=np.float64)
    lows = matrix.min(axis=0, keepdims=True)
    highs = matrix.max(axis=0, keepdims=True)
    dmm = KERNELS["rect", "dmm"](query, lows, highs)[0]
    assert dmm >= kernels.batch_point_distance_sq(query, matrix).min()
