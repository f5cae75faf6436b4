"""Point-to-rectangle distance metrics (paper Definitions 3, 4, 5).

Three distances between a query point ``P_q`` and an MBR ``R`` drive all
pruning in the R-tree similarity search literature:

* ``Dmin`` — the **optimistic** bound: the smallest distance any object
  inside ``R`` can have from ``P_q`` (0 if the point is inside the MBR).
* ``Dmm`` (MINMAXDIST) — the **pessimistic** bound: the smallest distance
  within which an object inside ``R`` is *guaranteed* to exist, exploiting
  the fact that an MBR is minimal (every face touches some object).
* ``Dmax`` — the distance to the farthest vertex of ``R``: no object in
  ``R`` can be farther.  Lemma 1 of the paper sorts MBRs by this distance
  to derive the threshold ``D_th``.

All functions come in squared (fast, used internally) and plain variants.
``Dmin <= Dmm <= Dmax`` always holds (property-tested in the suite), with
the convention that ``Dmm`` of a degenerate (point) MBR equals the point
distance.

These scalar functions are the **reference oracle** for the vectorized
batch kernels in :mod:`repro.perf.kernels`, which evaluate the same
metrics for every entry of a node at once.  The two implementations are
kept bit-for-bit equal (same operations, same order, per axis) and the
differential suite in ``tests/perf`` enforces exact float equality —
any change to the arithmetic here must be mirrored there.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.geometry.rect import Rect


def _check_dims(point: Sequence[float], rect: Rect) -> None:
    if len(point) != rect.dims:
        raise ValueError(f"dimension mismatch: point {len(point)}-d, MBR {rect.dims}-d")


def minimum_distance_sq(point: Sequence[float], rect: Rect) -> float:
    """Squared ``Dmin``: squared distance to the nearest point of *rect*."""
    _check_dims(point, rect)
    total = 0.0
    for p, lo, hi in zip(point, rect.low, rect.high):
        if p < lo:
            total += (lo - p) * (lo - p)
        elif p > hi:
            total += (p - hi) * (p - hi)
    return total


def minimum_distance(point: Sequence[float], rect: Rect) -> float:
    """``Dmin(P_q, R)`` — paper Definition 3 (the optimistic metric)."""
    return math.sqrt(minimum_distance_sq(point, rect))


def maximum_distance_sq(point: Sequence[float], rect: Rect) -> float:
    """Squared ``Dmax``: squared distance to the farthest vertex of *rect*."""
    _check_dims(point, rect)
    total = 0.0
    for p, lo, hi in zip(point, rect.low, rect.high):
        far = max(abs(p - lo), abs(hi - p))
        total += far * far
    return total


def maximum_distance(point: Sequence[float], rect: Rect) -> float:
    """``Dmax(P_q, R)`` — paper Definition 5 (farthest-vertex distance)."""
    return math.sqrt(maximum_distance_sq(point, rect))


def minmax_distance_sq(point: Sequence[float], rect: Rect) -> float:
    """Squared ``Dmm`` (MINMAXDIST) — paper Definition 4.

    For each axis *k*, consider the face of the MBR nearest to the query
    along *k*; an object must touch that face somewhere, and the farthest
    it can be is the opposite extreme on every other axis.  ``Dmm`` is the
    minimum of those per-axis guarantees:

    .. math::

        Dmm^2 = \\min_k \\Big( (p_k - rm_k)^2
                 + \\sum_{j \\ne k} (p_j - rM_j)^2 \\Big)

    with ``rm_k`` the nearer edge of axis *k* (the low one up to the
    midpoint) and ``rM_j`` the farther edge of axis *j*, whichever
    computed distance is larger.  Each guarantee adds its terms
    strictly in axis order, the nearer edge's in place *k*, as the
    point distance adds an object's.  Term by term that object's (on
    the face at ``rm_k``) are at most these, and ``Dmin``'s too, and
    rounding is monotone, so ``Dmin <= Dmm <= Dmax`` and ``Dmm`` is
    never below the face object's computed distance, with no clamp.
    """
    _check_dims(point, rect)
    near_sq = []
    far_sq = []
    for p, lo, hi in zip(point, rect.low, rect.high):
        near = p - (lo if p <= (lo + hi) / 2.0 else hi)
        far = max(abs(p - lo), abs(p - hi))
        near_sq.append(near * near)
        far_sq.append(far * far)
    candidates = []
    for k, near in enumerate(near_sq):
        total = 0.0
        for j, far in enumerate(far_sq):
            total += near if j == k else far
        candidates.append(total)
    return min(candidates)


def minmax_distance(point: Sequence[float], rect: Rect) -> float:
    """``Dmm(P_q, R)`` — paper Definition 4 (the pessimistic metric)."""
    return math.sqrt(minmax_distance_sq(point, rect))


def squared_radius(radius: float) -> float:
    """*radius*² padded by a relative epsilon for boundary safety.

    Internally the library compares squared distances, but radii arrive
    from users (and from the WOPTSS oracle) as plain distances that were
    produced by a square root.  Round-tripping ``sqrt`` then ``*`` can
    land up to ~2 ulp *below* the original squared value, which would
    silently exclude objects lying exactly on the sphere — e.g. the k-th
    neighbor itself.  The padding is far below any geometric tolerance
    that could matter but safely above the round-trip error.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return radius * radius * (1.0 + 1e-12)
