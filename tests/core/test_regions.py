"""The region kernel table: every family's kernels against the oracle.

``repro.core.regions.KERNELS`` maps ``(region family, metric)`` to a
batch kernel.  The rectangle kernels must equal the paper's exact
metrics; the sphere, SR and TV kernels must equal, with ``==``, the
per-region dispatchers they replaced (``tests/core/oracle.py``) —
including zero radii, queries on a centre, duplicate centres, one and
many dimensions, and TV regions with no tail or a one-axis head.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distances import (
    maximum_distance_sq,
    minimum_distance_sq,
    minmax_distance_sq,
)
from repro.core.regions import KERNELS
from repro.extensions.srtree import SRRegion
from repro.geometry.point import euclidean
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere
from tests.core import oracle

METRICS = ("dmin", "dmm", "dmax")
ORACLE = {
    "dmin": oracle.region_minimum_distance_sq,
    "dmm": oracle.region_minmax_distance_sq,
    "dmax": oracle.region_maximum_distance_sq,
}

coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, width=32)
radius = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32)


def _one(family, metric, query, *arrays):
    """One region's bound, through the kernel table."""
    rows = [np.asarray([a], dtype=np.float64) for a in arrays]
    return KERNELS[family, metric](query, *rows).tolist()[0]


def sphere_bounds(query, sphere):
    return [
        _one("sphere", m, query, sphere.center, sphere.radius)
        for m in METRICS
    ]


class TestRectDispatch:
    """For rectangles, the table holds the exact metrics' kernels."""

    @given(st.tuples(coord, coord), st.tuples(coord, coord),
           st.tuples(coord, coord))
    def test_matches_rect_metrics(self, q, a, b):
        rect = Rect(
            (min(a[0], b[0]), min(a[1], b[1])),
            (max(a[0], b[0]), max(a[1], b[1])),
        )
        for metric, scalar in zip(
            METRICS, (minimum_distance_sq, minmax_distance_sq,
                      maximum_distance_sq)
        ):
            assert _one("rect", metric, q, rect.low, rect.high) == scalar(
                q, rect
            )


class TestSphereDispatch:
    def test_point_inside_sphere(self):
        s = Sphere((0.0, 0.0), 2.0)
        assert sphere_bounds((1.0, 0.0), s)[0] == 0.0

    def test_point_outside_sphere(self):
        s = Sphere((0.0, 0.0), 1.0)
        dmin, _, dmax = sphere_bounds((3.0, 0.0), s)
        assert dmin == pytest.approx(4.0)
        assert dmax == pytest.approx(16.0)

    def test_minmax_equals_max_for_spheres(self):
        _, dmm, dmax = sphere_bounds((0.0, 0.0), Sphere((1.0, 1.0), 0.5))
        assert dmm == dmax

    @given(st.tuples(coord, coord), st.tuples(coord, coord), radius)
    def test_ordering_property(self, q, center, r):
        dmin, dmm, dmax = sphere_bounds(q, Sphere(center, r))
        assert dmin <= dmm + 1e-9
        assert dmm <= dmax + 1e-9

    @given(st.tuples(coord, coord), st.tuples(coord, coord), radius,
           st.floats(0, 6.25, allow_nan=False, width=32),
           st.floats(0, 1, allow_nan=False, width=32))
    def test_bounds_hold_for_contained_points(self, q, center, r, angle, t):
        """Any point inside the sphere respects both bounds."""
        s = Sphere(center, r)
        inside = (
            center[0] + t * r * math.cos(angle),
            center[1] + t * r * math.sin(angle),
        )
        d = euclidean(q, inside)
        dmin, _, dmax = sphere_bounds(q, s)
        assert d * d >= dmin - 1e-6
        assert d * d <= dmax + 1e-6

    @given(st.tuples(coord, coord), st.tuples(coord, coord), radius)
    def test_sphere_tighter_or_equal_to_bounding_rect_dmin(self, q, center, r):
        """The sphere's Dmin is at least its bounding box's (the box is
        a looser region, so its optimistic bound is smaller)."""
        s = Sphere(center, r)
        box = s.bounding_rect()
        assert (
            sphere_bounds(q, s)[0]
            >= _one("rect", "dmin", q, box.low, box.high) - 1e-6
        )


# -- the extension families against the per-region oracle ----------------

DIMS = st.sampled_from([1, 2, 8, 10])
value = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.5, 1.0]),
)


@st.composite
def sphere_batch(draw):
    """(query, centres, radii): zero radii, repeated centres and queries
    sitting on a centre all occur."""
    dims = draw(DIMS)
    point = st.lists(value, min_size=dims, max_size=dims)
    centers = draw(st.lists(point, min_size=1, max_size=12))
    if draw(st.booleans()):
        centers = centers + centers[: draw(st.integers(1, len(centers)))]
    radii = [
        draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_nan=False)))
        for _ in centers
    ]
    query = draw(st.one_of(point, st.sampled_from(centers)))
    return tuple(query), centers, radii


def _boxes(draw, centers, spread):
    lows, highs = [], []
    for center in centers:
        low, high = [], []
        for c in center:
            a = c - draw(spread)
            b = c + draw(spread)
            low.append(a)
            high.append(b)
        lows.append(low)
        highs.append(high)
    return lows, highs


def _kernel_lists(family, query, arrays):
    matrices = [np.asarray(a, dtype=np.float64) for a in arrays]
    results = [KERNELS[family, m](query, *matrices) for m in METRICS]
    # The one-pass pair returns the two single-metric kernels' bytes.
    pair = KERNELS[family, "dmin_dmm"](query, *matrices)
    assert [a.tobytes() for a in pair] == [a.tobytes() for a in results[:2]]
    return [a.tolist() for a in results]


def _oracle_lists(query, regions):
    return [[ORACLE[m](query, region) for region in regions] for m in METRICS]


@settings(max_examples=300, deadline=None)
@given(sphere_batch())
def test_sphere_kernels_equal_the_oracle(batch):
    query, centers, radii = batch
    spheres = [Sphere(c, r) for c, r in zip(centers, radii)]
    assert _kernel_lists("sphere", query, (centers, radii)) == _oracle_lists(
        query, spheres
    )


@settings(max_examples=300, deadline=None)
@given(sphere_batch(), st.data())
def test_sr_kernels_equal_the_oracle(batch, data):
    query, centers, radii = batch
    spread = st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_nan=False))
    lows, highs = _boxes(data.draw, centers, spread)
    regions = [
        SRRegion(Rect(lo, hi), Sphere(c, r))
        for lo, hi, c, r in zip(lows, highs, centers, radii)
    ]
    assert _kernel_lists(
        "sr", query, (lows, highs, centers, radii)
    ) == _oracle_lists(query, regions)


@settings(max_examples=300, deadline=None)
@given(sphere_batch(), st.data())
def test_tv_kernels_equal_the_oracle(batch, data):
    """Heads of 1 .. dims axes; ``active == dims`` has no tail."""
    query, centers, _ = batch
    dims = len(query)
    active = data.draw(st.sampled_from(sorted({1, dims, max(1, dims // 2)})))
    spread = st.floats(0.0, 2.0, allow_nan=False)
    lows, highs = _boxes(data.draw, centers, spread)
    tail_low, tail_high = _boxes(data.draw, [query[active:]], spread)
    tail = Rect(tail_low[0], tail_high[0]) if active < dims else None
    regions = [
        oracle.TVRegion(Rect(lo[:active], hi[:active]), tail)
        for lo, hi in zip(lows, highs)
    ]
    rows = len(lows)
    arrays = (
        [lo[:active] for lo in lows], [hi[:active] for hi in highs],
        np.broadcast_to(np.asarray(tail_low[0]), (rows, dims - active)),
        np.broadcast_to(np.asarray(tail_high[0]), (rows, dims - active)),
    )
    assert _kernel_lists("tv", query, arrays) == _oracle_lists(query, regions)


def test_every_family_has_every_metric():
    families = {family for family, _ in KERNELS}
    assert families == {"rect", "sphere", "sr", "tv"}
    assert set(KERNELS) == {
        (f, m) for f in families for m in (*METRICS, "dmin_dmm")
    }


def test_mismatched_arrays_are_rejected():
    centers = np.zeros((3, 2))
    with pytest.raises(ValueError, match="centres"):
        KERNELS["sphere", "dmin"]((0.0, 0.0, 0.0), centers, np.zeros(3))
    with pytest.raises(ValueError, match="radii"):
        KERNELS["sphere", "dmax"]((0.0, 0.0), centers, np.zeros(2))
    with pytest.raises(ValueError, match="spheres"):
        KERNELS["sr", "dmin"](
            (0.0, 0.0), centers, centers, centers[:2], np.zeros(2)
        )
