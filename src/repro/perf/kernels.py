"""Vectorized batch kernels (exact twins of the scalar arithmetic).

Each distance kernel takes a query point and the row-aligned arrays of
*n* branch regions and returns the *n* squared distances as a float64
array.  For MBRs those are the flat ``(n, dims)`` low/high corner
matrices (for point data the two coincide); the extension access
methods' regions take their own arrays — sphere centres and radii, an
SR region's corners *and* sphere, a TV region's head and tail boxes.
:mod:`repro.core.regions` maps each region family to its kernels.  The
build-path kernels at the bottom score the same corner matrices for R*
ChooseSubtree and the R* split — twins of
:class:`~repro.geometry.rect.Rect` methods instead of distances.

**Exactness contract.**  The kernels must return bit-identical results
to the scalar reference in :mod:`repro.core.distances` — the search
algorithms run on the kernels alone and the differential tests compare
the two with ``==``, not with a tolerance.  IEEE-754 addition is not
associative, so the kernels may not use :func:`numpy.sum` over the axis
dimension (numpy's pairwise summation reassociates terms).  Instead
each kernel computes its ``(n, dims)`` per-element terms in one
broadcast over all *n* rows — a node, or a whole fetch round — and then
folds the columns strictly left to right from axis 0 (:func:`_fold`),
the order of the scalar loops.  Those loops start from ``0.0``; the
fold starts from the first column itself, which is the same float
because every term is a square and a square is never ``-0.0``, so
``0.0 + x == x`` bit for bit.  Per-element operations (``+`` ``-``
``*`` ``abs`` ``min`` ``max`` ``sqrt``) are correctly rounded in both
numpy and CPython, so equal operand order implies equal results.  The
fold is one ``op.accumulate`` call on small blocks and a loop of ``op``
calls otherwise; both run the same left fold, so they give the same
bits.  The scalar side folds with explicit ``total += ...`` loops,
never the builtin ``sum()``, which is compensated since Python 3.12.

Rounding is monotone, so folding termwise-larger terms in the same
order never gives a smaller result.  The rect ``Dmm`` is built on
that: each axis's guarantee is folded on its own, in the point
kernel's order, so it stays between ``Dmin`` and ``Dmax`` and above
the computed distance of the object on its face, with no clamp
(:func:`_rect_bounds`).  Where two bounds are scored together — the
``batch_*_minimum_minmax_*`` and ``batch_*_minimum_maximum_*`` pairs
a search round asks for — the pair returns the two single kernels'
bits and counts as one call of each.

The module also owns one piece of global plumbing: an optional
:class:`~repro.obs.metrics.MetricsRegistry` hook counting kernel
invocations and entries processed per metric, which the bench harness
snapshots into ``BENCH_*.json``.

This module is a leaf: it imports only numpy and :mod:`repro.obs`, so
every layer (geometry, rtree, core) may call into it freely.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "batch_enlargement",
    "batch_intersection_area",
    "batch_maximum_distance_sq",
    "batch_minimum_distance_sq",
    "batch_minimum_minmax_distance_sq",
    "batch_minmax_distance_sq",
    "batch_point_distance_sq",
    "batch_sphere_maximum_distance_sq",
    "batch_sphere_minimum_distance_sq",
    "batch_sphere_minimum_maximum_distance_sq",
    "batch_split_scores",
    "batch_sr_maximum_distance_sq",
    "batch_sr_minimum_distance_sq",
    "batch_sr_minimum_minmax_distance_sq",
    "batch_sr_minmax_distance_sq",
    "batch_tv_maximum_distance_sq",
    "batch_tv_minimum_distance_sq",
    "batch_tv_minimum_maximum_distance_sq",
    "box_areas",
    "instrument_kernels",
    "record_kernel_use",
]


# -- kernel call accounting ------------------------------------------------

_registry: Optional[MetricsRegistry] = None


def instrument_kernels(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Install *registry* to receive kernel call counts; returns the old one.

    Counters are named ``kernels.<metric>.vector_batches`` and
    ``kernels.<metric>.vector_entries`` with ``<metric>`` one of
    ``dmin`` / ``dmm`` / ``dmax`` / ``pointdist`` (queries) or
    ``enlargement`` / ``overlap`` / ``split`` (the build path).  Pass
    ``None`` to detach.
    """
    global _registry
    previous = _registry
    _registry = registry
    return previous


def record_kernel_use(metric: str, entries: int) -> None:
    """Count one kernel call over *entries* rows.

    Every kernel calls this itself.  A no-op until
    :func:`instrument_kernels`.
    """
    if _registry is None or entries == 0:
        return
    _registry.counter(f"kernels.{metric}.vector_batches").inc()
    _registry.counter(f"kernels.{metric}.vector_entries").inc(entries)


# -- kernels ---------------------------------------------------------------


def _as_matrices(
    point: Sequence[float], lows, highs
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    query = np.asarray(point, dtype=np.float64)
    low_m = np.asarray(lows, dtype=np.float64)
    high_m = np.asarray(highs, dtype=np.float64)
    if query.ndim != 1 or low_m.ndim != 2 or low_m.shape != high_m.shape:
        raise ValueError(
            f"expected a point and two (n, dims) corner matrices, got shapes "
            f"{query.shape}, {low_m.shape}, {high_m.shape}"
        )
    if query.shape[0] != low_m.shape[1]:
        raise ValueError(
            f"dimension mismatch: point {query.shape[0]}-d, "
            f"MBRs {low_m.shape[1]}-d"
        )
    return query, low_m, high_m


#: Largest term, in elements, that :func:`_fold` folds with one
#: ``accumulate`` call (see there).
_ACCUMULATE_MAX_TERM = 64


def _fold(op: np.ufunc, sides: np.ndarray) -> np.ndarray:
    """Reduce the *leading* axis with *op*, strictly in axis order.

    Two ways, one result: a Python loop of ``op`` calls, one per term,
    or one ``op.accumulate`` call down the axis.  Both apply ``op``
    from term 0 onwards to the running result, so their bits are the
    same by construction.  Which one is faster depends only on the
    block: a loop pays one numpy call per term, ``accumulate`` one
    inner loop per column.  So a fold of more than two terms, each of
    at most :data:`_ACCUMULATE_MAX_TERM` elements (a 10-d node of 17
    boxes), takes ``accumulate``; two terms (every 2-d fold) and large
    terms (a 2 000-row round) take the loop.
    """
    terms = sides.shape[0]
    if terms > 2 and sides.size <= _ACCUMULATE_MAX_TERM * terms:
        return op.accumulate(sides, axis=0)[-1]
    result = sides[0]
    for axis in range(1, terms):
        result = op(result, sides[axis])
    return result


def _rect_gap_sq(query, low_m, high_m) -> np.ndarray:
    # Off the box one of the two differences is the positive gap and
    # the other negative; inside both are <= 0 and the gap is zero.
    gap = np.maximum(low_m - query, query - high_m)
    np.maximum(gap, 0.0, out=gap)
    return gap * gap


def _rect_minimum(query, low_m, high_m) -> np.ndarray:
    return _fold(np.add, _rect_gap_sq(query, low_m, high_m).T)


def _rect_maximum(query, low_m, high_m) -> np.ndarray:
    far = np.maximum(np.abs(query - low_m), np.abs(high_m - query))
    return _fold(np.add, (far * far).T)


def _rect_bounds(query, low_m, high_m) -> "tuple[np.ndarray, np.ndarray]":
    """Squared ``Dmin`` and ``Dmm`` of each box, in one fold.

    Per axis, ``near`` is the distance to the nearer face (Definition
    4's, chosen by the midpoint) and ``far`` the larger of the two face
    distances.  Candidate *k* of ``Dmm`` adds ``near_k²`` and
    ``far_j²`` (j != k) strictly in axis order, the point kernel's
    order.  Term by term it is at least the squared distance of an
    object on face *k* and at least ``Dmin``'s (``gap_j² <= near_j² <=
    far_j²``), and at most ``Dmax``'s.  Rounding is monotone, so each
    candidate is at least that object's computed distance and
    ``Dmin <= Dmm <= Dmax``, with no clamp.  The ``d`` candidates and
    ``Dmin`` are the ``d + 1`` columns of one ``(dims, d + 1, n)``
    fold.
    """
    n, dims = low_m.shape
    to_low = query - low_m
    to_high = query - high_m
    # The nearer face is the paper's: the low one up to the midpoint.
    near = np.where(query <= (low_m + high_m) / 2.0, to_low, to_high)
    far = np.maximum(np.abs(to_low), np.abs(to_high))
    far *= far
    near *= near
    terms = np.empty((dims, dims + 1, n))
    terms[:, :dims] = far.T[:, None, :]
    terms[:, dims] = _rect_gap_sq(query, low_m, high_m).T
    # Term (k, k) of candidate k: row k * (dims + 2) of the flat view.
    terms.reshape(dims * (dims + 1), n)[::dims + 2] = near.T
    folded = _fold(np.add, terms)
    return folded[dims], folded[:dims].min(axis=0)


def batch_minimum_distance_sq(point, lows, highs) -> np.ndarray:
    """Squared ``Dmin`` from *point* to each of *n* MBRs, all at once.

    Exact batch twin of
    :func:`repro.core.distances.minimum_distance_sq`.  Every family
    keeps ``Dmin <= Dmm <= Dmax`` row by row, as exact values do.
    """
    query, low_m, high_m = _as_matrices(point, lows, highs)
    record_kernel_use("dmin", low_m.shape[0])
    return _rect_minimum(query, low_m, high_m)


def batch_maximum_distance_sq(point, lows, highs) -> np.ndarray:
    """Squared ``Dmax`` from *point* to each of *n* MBRs, all at once.

    Exact batch twin of
    :func:`repro.core.distances.maximum_distance_sq`.  ``Dmin <= Dmm
    <= Dmax``: the far-side fold needs no clamp to stay on top.
    """
    query, low_m, high_m = _as_matrices(point, lows, highs)
    record_kernel_use("dmax", low_m.shape[0])
    return _rect_maximum(query, low_m, high_m)


def batch_minmax_distance_sq(point, lows, highs) -> np.ndarray:
    """Squared ``Dmm`` (MINMAXDIST) from *point* to each MBR, all at once.

    Exact batch twin of
    :func:`repro.core.distances.minmax_distance_sq`: per axis *k* the
    guarantee of the nearer face, ``near_k²`` plus every other axis's
    ``far_j²`` folded in axis order; the minimum over the axes is taken
    last (min is order-insensitive, so ``numpy.min`` is safe).

    ``Dmin <= Dmm <= Dmax``, and never below the computed distance of
    an object on the face it stands for, by monotone rounding and no
    clamp, so a pruning rule comparing one branch's ``Dmm`` with
    another's ``Dmin`` (BBSS's Rule 1) cannot discard the branch it
    compares against.
    """
    query, low_m, high_m = _as_matrices(point, lows, highs)
    record_kernel_use("dmm", low_m.shape[0])
    return _rect_bounds(query, low_m, high_m)[1]


def batch_minimum_minmax_distance_sq(
    point, lows, highs
) -> "tuple[np.ndarray, np.ndarray]":
    """``(Dmin, Dmm)`` of each MBR in one pass, counted as one call of
    each: :func:`batch_minimum_distance_sq` and
    :func:`batch_minmax_distance_sq` of the same arrays, bit for bit."""
    query, low_m, high_m = _as_matrices(point, lows, highs)
    record_kernel_use("dmin", low_m.shape[0])
    record_kernel_use("dmm", low_m.shape[0])
    return _rect_bounds(query, low_m, high_m)


# -- sphere, SR and TV regions ---------------------------------------------
#
# Twins of the per-region scalar bounds the extension access methods
# had before; a sphere's are closed forms in ``sqrt(fold(diff²))``.


def _as_spheres(point, centers, radii):
    query = np.asarray(point, dtype=np.float64)
    center_m = np.asarray(centers, dtype=np.float64)
    radius_v = np.asarray(radii, dtype=np.float64)
    if (query.ndim != 1 or center_m.shape[1:] != query.shape
            or radius_v.shape != center_m.shape[:1]):
        raise ValueError(
            f"expected a d-point, (n, d) centres and n radii, got shapes "
            f"{query.shape}, {center_m.shape}, {radius_v.shape}"
        )
    return query, center_m, radius_v


def _center_distance(query, center_m) -> np.ndarray:
    diff = query - center_m
    return np.sqrt(_fold(np.add, (diff * diff).T))


def _near_side(center_distance, radius_v) -> np.ndarray:
    gap = center_distance - radius_v
    return np.where(gap > 0.0, gap * gap, 0.0)


def _far_side(center_distance, radius_v) -> np.ndarray:
    reach = center_distance + radius_v
    return reach * reach


def batch_sphere_minimum_distance_sq(point, centers, radii) -> np.ndarray:
    """Squared ``Dmin = max(0, |q - c| - r)²`` to each of *n* spheres;
    ``Dmin <= Dmm == Dmax``."""
    query, center_m, radius_v = _as_spheres(point, centers, radii)
    record_kernel_use("dmin", center_m.shape[0])
    return _near_side(_center_distance(query, center_m), radius_v)


def batch_sphere_maximum_distance_sq(point, centers, radii) -> np.ndarray:
    """Squared ``Dmax = (|q - c| + r)²`` to each of *n* spheres.

    Also the spheres' ``Dmm``: a sphere has no face an object is
    guaranteed to touch, so its far side is the only existence bound.
    ``Dmin <= Dmm == Dmax``.
    """
    query, center_m, radius_v = _as_spheres(point, centers, radii)
    record_kernel_use("dmax", center_m.shape[0])
    return _far_side(_center_distance(query, center_m), radius_v)


def batch_sphere_minimum_maximum_distance_sq(
    point, centers, radii
) -> "tuple[np.ndarray, np.ndarray]":
    """``(Dmin, Dmax)`` of each sphere from one centre distance — its
    ``(Dmin, Dmm)`` — counted as one call of each of the two kernels
    above, whose bits it returns."""
    query, center_m, radius_v = _as_spheres(point, centers, radii)
    record_kernel_use("dmin", center_m.shape[0])
    record_kernel_use("dmax", center_m.shape[0])
    center_distance = _center_distance(query, center_m)
    return (
        _near_side(center_distance, radius_v),
        _far_side(center_distance, radius_v),
    )


def _sr_bound(metrics, bound, point, lows, highs, centers, radii):
    query, low_m, high_m = _as_matrices(point, lows, highs)
    _, center_m, radius_v = _as_spheres(query, centers, radii)
    if center_m.shape != low_m.shape:
        raise ValueError(
            f"{low_m.shape[0]} rectangles but {center_m.shape[0]} spheres"
        )
    for metric in metrics:
        record_kernel_use(metric, low_m.shape[0])
    return bound(query, low_m, high_m, center_m, radius_v)


def _sr_minimum(query, low_m, high_m, center_m, radius_v) -> np.ndarray:
    return np.maximum(
        _rect_minimum(query, low_m, high_m),
        _near_side(_center_distance(query, center_m), radius_v),
    )


def _sr_bounds(query, low_m, high_m, center_m, radius_v):
    """``(Dmin, Dmm, the sphere's far side)`` of each SR region."""
    rect_min, rect_mm = _rect_bounds(query, low_m, high_m)
    center_distance = _center_distance(query, center_m)
    dmin = np.maximum(rect_min, _near_side(center_distance, radius_v))
    far = _far_side(center_distance, radius_v)
    # Dmm is clamped to Dmin: the sphere's far side can round below the
    # rect's Dmin.  On a one-point node the rect gives ``d`` and the
    # sphere ``sqrt(d)**2``, one ulp below ``d`` for ``d == 3.0``.
    return dmin, np.maximum(np.minimum(rect_mm, far), dmin), far


def _sr_minimum_minmax(query, low_m, high_m, center_m, radius_v):
    return _sr_bounds(query, low_m, high_m, center_m, radius_v)[:2]


def _sr_minmax(query, low_m, high_m, center_m, radius_v) -> np.ndarray:
    return _sr_bounds(query, low_m, high_m, center_m, radius_v)[1]


def _sr_maximum(query, low_m, high_m, center_m, radius_v) -> np.ndarray:
    # Clamped to Dmm: on a one-point node at ``d == 2.0`` the sphere's
    # near side ``sqrt(d)**2`` rounds one ulp above the rect's ``d``.
    _, dmm, far = _sr_bounds(query, low_m, high_m, center_m, radius_v)
    rect_max = _rect_maximum(query, low_m, high_m)
    return np.maximum(np.minimum(rect_max, far), dmm)


def batch_sr_minimum_distance_sq(point, lows, highs, centers, radii):
    """Squared ``Dmin`` to *n* rect ∩ sphere regions: the larger part's;
    ``Dmin <= Dmm <= Dmax``."""
    return _sr_bound(("dmin",), _sr_minimum,
                     point, lows, highs, centers, radii)


def batch_sr_minmax_distance_sq(point, lows, highs, centers, radii):
    """Squared ``Dmm``: the rect's MINMAXDIST or the sphere's far side,
    whichever is smaller, clamped to the region's ``Dmin`` (the rect's
    needs no clamp, :func:`batch_minmax_distance_sq`, the sphere's
    does); ``Dmin <= Dmm <= Dmax``."""
    return _sr_bound(("dmm",), _sr_minmax,
                     point, lows, highs, centers, radii)


def batch_sr_minimum_minmax_distance_sq(point, lows, highs, centers, radii):
    """``(Dmin, Dmm)`` of each SR region in one pass, counted as one call
    of each of the two kernels above, whose bits it returns."""
    return _sr_bound(("dmin", "dmm"), _sr_minimum_minmax,
                     point, lows, highs, centers, radii)


def batch_sr_maximum_distance_sq(point, lows, highs, centers, radii):
    """Squared ``Dmax`` to *n* rect ∩ sphere regions: the smaller part's,
    clamped to the region's ``Dmm``; ``Dmin <= Dmm <= Dmax``."""
    return _sr_bound(("dmax",), _sr_maximum,
                     point, lows, highs, centers, radii)


def _tv_parts(point, lows, highs, tail_lows, tail_highs):
    """The head's ``(query, lows, highs)`` and, when the view has a
    tail, the tail's."""
    query = np.asarray(point, dtype=np.float64)
    active = np.shape(lows)[1]
    parts = [_as_matrices(query[:active], lows, highs)]
    if query.shape[0] > active:
        parts.append(_as_matrices(query[active:], tail_lows, tail_highs))
    return parts


def _tv_total(rect_bound, parts) -> np.ndarray:
    total = rect_bound(*parts[0])
    if len(parts) > 1:
        total = total + rect_bound(*parts[1])
    return total


def batch_tv_minimum_distance_sq(point, lows, highs, tail_lows, tail_highs):
    """Squared ``Dmin`` to *n* TV regions: head ``Dmin`` + tail ``Dmin``.

    *lows* / *highs* bound the leading ``active`` axes; *tail_lows* /
    *tail_highs* bound the rest (zero columns when ``active == dims``).
    ``Dmin <= Dmm == Dmax``.
    """
    parts = _tv_parts(point, lows, highs, tail_lows, tail_highs)
    record_kernel_use("dmin", parts[0][1].shape[0])
    return _tv_total(_rect_minimum, parts)


def batch_tv_maximum_distance_sq(point, lows, highs, tail_lows, tail_highs):
    """Squared ``Dmax`` to *n* TV regions: head ``Dmax`` + tail ``Dmax``.

    Also their ``Dmm``: no face-touching guarantee survives projection.
    ``Dmin <= Dmm == Dmax``.
    """
    parts = _tv_parts(point, lows, highs, tail_lows, tail_highs)
    record_kernel_use("dmax", parts[0][1].shape[0])
    return _tv_total(_rect_maximum, parts)


def batch_tv_minimum_maximum_distance_sq(
    point, lows, highs, tail_lows, tail_highs
) -> "tuple[np.ndarray, np.ndarray]":
    """``(Dmin, Dmax)`` of each TV region — its ``(Dmin, Dmm)`` — from
    one conversion, counted as one call of each of the two kernels
    above, whose bits it returns."""
    parts = _tv_parts(point, lows, highs, tail_lows, tail_highs)
    record_kernel_use("dmin", parts[0][1].shape[0])
    record_kernel_use("dmax", parts[0][1].shape[0])
    return _tv_total(_rect_minimum, parts), _tv_total(_rect_maximum, parts)


def batch_point_distance_sq(point, points) -> np.ndarray:
    """Squared Euclidean distance from *point* to each row of *points*.

    Exact batch twin of
    :func:`repro.geometry.point.squared_euclidean` — this is the leaf
    scan kernel, where ``points`` is the cached low-corner matrix of a
    leaf node (degenerate MBRs: low == high == the data point).
    """
    query = np.asarray(point, dtype=np.float64)
    matrix = np.asarray(points, dtype=np.float64)
    if query.ndim != 1 or matrix.ndim != 2:
        raise ValueError(
            f"expected a point and an (n, dims) matrix, got shapes "
            f"{query.shape}, {matrix.shape}"
        )
    if query.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"dimension mismatch: {query.shape[0]} vs {matrix.shape[1]}"
        )
    diff = query - matrix
    diff *= diff
    record_kernel_use("pointdist", matrix.shape[0])
    return _fold(np.add, diff.T)


# -- build-path kernels ----------------------------------------------------
#
# Twins of Rect arithmetic rather than of distances, fed by the tree's
# own corner matrices (``Node.entry_bounds``), so they take float64
# arrays as given and skip the shape checks above.  Same exactness
# contract: products and margins are accumulated axis by axis from axis
# 0, the order of the scalar loops, never with a reassociating
# ``sum``/``prod``.  A scalar accumulator starting at ``1.0`` (or
# ``sum``'s ``0``) is the identity on the first term, so starting from
# the first term itself is the same float.  ``minimum``/``maximum`` may
# differ from the scalar conditional in the sign of a zero only, which
# no comparison of the scores can observe; the scores decide, they are
# never stored.


def box_areas(lows, highs) -> np.ndarray:
    """The areas of *n* boxes, exact twins of
    :meth:`repro.geometry.rect.Rect.area`.

    Not a counted kernel: :func:`batch_enlargement` folds its areas
    here, and :func:`repro.rtree.validate.check_invariants` audits the
    areas an R*-tree node caches against it.
    """
    return _fold(np.multiply, (highs - lows).T)


def batch_enlargement(
    low, high, lows, highs, area=None
) -> "tuple[np.ndarray, np.ndarray]":
    """Area growth of each of *n* MBRs to cover one box, and their areas.

    Exact batch twin of :meth:`repro.geometry.rect.Rect.enlargement`
    and :meth:`~repro.geometry.rect.Rect.area`: returns
    ``(enlargement, area)``, entry *i* being what
    ``Rect(lows[i], highs[i])`` gives for the box ``(low, high)``.
    *area* is the MBRs' areas as an earlier call returned them (the
    R*-tree caches them per node, :class:`~repro.rtree.node.EntryBounds`);
    ``None`` folds them here.  *low* / *high* may be any sequences; the
    R*-tree hands down float64 arrays it converts once per descent.
    """
    if area is None:
        area = box_areas(lows, highs)
    sides = np.maximum(highs, high)
    sides -= np.minimum(lows, low)
    union_area = _fold(np.multiply, sides.T)
    record_kernel_use("enlargement", lows.shape[0])
    return union_area - area, area


def batch_intersection_area(a_lows, a_highs, b_lows, b_highs) -> np.ndarray:
    """Overlap volume of every box of *a* with every box of *b*.

    Exact batch twin of
    :meth:`repro.geometry.rect.Rect.intersection_area`: entry
    ``[i, j]`` is ``a[i].intersection_area(b[j])``.  The scalar method
    returns ``0.0`` at the first non-positive side; clamping sides at
    zero before multiplying gives the same value.

    Unlike the kernels above, the corners come **axis-major** —
    ``(dims, n)``, C-contiguous, the transpose of
    :meth:`~repro.rtree.node.Node.entry_bounds` — so that each axis is
    one ``(a, b)`` slab with the long *b* axis innermost; on strided
    views the same arithmetic runs several times slower.  Callers
    transpose once and reuse the result across calls.
    """
    sides = np.minimum(a_highs[:, :, None], b_highs[:, None, :])
    sides -= np.maximum(a_lows[:, :, None], b_lows[:, None, :])
    np.maximum(sides, 0.0, out=sides)
    record_kernel_use("overlap", sides.shape[1] * sides.shape[2])
    return _fold(np.multiply, sides)


def batch_split_scores(
    sorted_lows, sorted_highs, min_fill: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Margin, overlap and area of every R* split distribution at once.

    *sorted_lows* / *sorted_highs* are ``(sorts, n, dims)``: the corner
    matrices of the *n* entries of an overflowing node, reordered by
    each candidate sort.  Distribution *k* of a sort puts its first
    ``min_fill + k`` entries in group 1 and the rest in group 2, for
    ``k`` in ``0 .. n - 2 * min_fill``.  Returns three
    ``(sorts, distributions)`` arrays, exact batch twins of
    ``bb1.margin() + bb2.margin()``, ``bb1.intersection_area(bb2)`` and
    ``bb1.area() + bb2.area()`` with ``bb1``/``bb2`` the groups'
    bounding boxes (:meth:`repro.geometry.rect.Rect.union_of`): running
    minima/maxima from the front give every group-1 box, from the back
    every group-2 box.
    """
    sorts, n, _ = sorted_lows.shape
    if not 1 <= min_fill <= n // 2:
        raise ValueError(f"cannot split {n} entries with min fill {min_fill}")
    first = slice(min_fill - 1, n - min_fill)
    second = slice(min_fill, n - min_fill + 1)
    # Axis-major, (dims, sorts, distributions), for the per-axis folds.
    low1 = np.minimum.accumulate(sorted_lows, axis=1)[:, first].T
    high1 = np.maximum.accumulate(sorted_highs, axis=1)[:, first].T
    low2 = np.minimum.accumulate(sorted_lows[:, ::-1], axis=1)[:, ::-1][:, second].T
    high2 = np.maximum.accumulate(sorted_highs[:, ::-1], axis=1)[:, ::-1][:, second].T
    sides1 = high1 - low1
    sides2 = high2 - low2
    shared = np.minimum(high1, high2) - np.maximum(low1, low2)
    np.maximum(shared, 0.0, out=shared)
    record_kernel_use("split", sorts * (n - 2 * min_fill + 1))
    return (
        (_fold(np.add, sides1) + _fold(np.add, sides2)).T,
        _fold(np.multiply, shared).T,
        (_fold(np.multiply, sides1) + _fold(np.multiply, sides2)).T,
    )
