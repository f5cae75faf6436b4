"""Distance metrics generalized over bounding *regions*.

The paper applies its algorithms to the R*-tree but notes (§5, future
work) that they carry over to other access methods — SS-trees bound
subtrees by *spheres* rather than rectangles.  The search algorithms
only ever need three scalars per branch: an optimistic bound
(``Dmin``), a pessimistic existence bound (``Dmm``), and the farthest
possible distance (``Dmax``).  These dispatchers provide them for both
region shapes, so BBSS / FPSS / CRSS / WOPTSS run unmodified over
either tree.

For spheres:

* ``Dmin = max(0, |q - c| - r)`` — the near side of the sphere;
* ``Dmax = |q - c| + r`` — the far side;
* ``Dmm = Dmax`` — a sphere has no MINMAXDIST analogue (no face an
  object is guaranteed to touch), so the only safe existence bound for
  a non-empty sphere is its far side.  This is conservative: CRSS makes
  slightly fewer "surely useful" activations over an SS-tree, which is
  exactly the behaviour the paper's criterion prescribes with the
  information available.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

import numpy as np

from repro.core.distances import (
    maximum_distance_sq,
    minimum_distance_sq,
    minmax_distance_sq,
)
from repro.geometry.point import squared_euclidean
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere
from repro.perf import kernels

Region = Union[Rect, Sphere]


def region_minimum_distance_sq(point: Sequence[float], region: Region) -> float:
    """Squared optimistic bound ``Dmin`` for any region shape.

    Composite regions (the SR-tree's rect ∩ sphere) expose ``rect`` and
    ``sphere`` attributes; the objects they bound lie in the
    *intersection*, so the larger of the two ``Dmin`` values is the
    valid (and tighter) bound.  Regions implementing their own bounds
    (the TV-tree's reduced-dimension regions) expose ``dmin_sq`` /
    ``dmm_sq`` / ``dmax_sq`` methods and are delegated to directly.
    """
    if isinstance(region, Rect):
        return minimum_distance_sq(point, region)
    if isinstance(region, Sphere):
        gap = (
            math.sqrt(squared_euclidean(point, region.center)) - region.radius
        )
        return gap * gap if gap > 0.0 else 0.0
    custom = getattr(region, "dmin_sq", None)
    if custom is not None:
        return custom(point)
    return max(
        region_minimum_distance_sq(point, region.rect),
        region_minimum_distance_sq(point, region.sphere),
    )


def region_minmax_distance_sq(point: Sequence[float], region: Region) -> float:
    """Squared pessimistic bound ``Dmm`` for any region shape.

    For a composite region the rectangle part is a true MBR (every face
    touches an object), so its MINMAXDIST guarantee applies; the sphere
    contributes ``Dmax`` as its best guarantee, and the smaller of the
    two existence bounds wins.
    """
    if isinstance(region, Rect):
        return minmax_distance_sq(point, region)
    if isinstance(region, Sphere):
        return region_maximum_distance_sq(point, region)
    custom = getattr(region, "dmm_sq", None)
    if custom is not None:
        return custom(point)
    return min(
        region_minmax_distance_sq(point, region.rect),
        region_maximum_distance_sq(point, region.sphere),
    )


def region_maximum_distance_sq(point: Sequence[float], region: Region) -> float:
    """Squared farthest distance ``Dmax`` for any region shape.

    For a composite region no object can exceed either part's ``Dmax``,
    so the smaller of the two is the valid bound.
    """
    if isinstance(region, Rect):
        return maximum_distance_sq(point, region)
    if isinstance(region, Sphere):
        reach = (
            math.sqrt(squared_euclidean(point, region.center)) + region.radius
        )
        return reach * reach
    custom = getattr(region, "dmax_sq", None)
    if custom is not None:
        return custom(point)
    return min(
        region_maximum_distance_sq(point, region.rect),
        region_maximum_distance_sq(point, region.sphere),
    )


# -- batched evaluation ----------------------------------------------------

_BATCH_SCALAR = {
    "dmin": region_minimum_distance_sq,
    "dmm": region_minmax_distance_sq,
    "dmax": region_maximum_distance_sq,
}
_BATCH_VECTOR = {
    "dmin": kernels.batch_minimum_distance_sq,
    "dmm": kernels.batch_minmax_distance_sq,
    "dmax": kernels.batch_maximum_distance_sq,
}


def batch_region_distances(
    point: Sequence[float],
    regions: Sequence[Region],
    metrics: Sequence[str],
) -> List[List[float]]:
    """Evaluate distance *metrics* for every region in one batch.

    :param point: the query point.
    :param regions: the regions to score, all of the same shape family.
    :param metrics: which metrics to compute, from ``dmin`` / ``dmm`` /
        ``dmax``; one result list is returned per requested metric, each
        aligned with *regions*.

    Rectangle batches run on the vectorized kernels of
    :mod:`repro.perf.kernels`; any other region shape (SS-tree spheres,
    SR-tree composites, TV-tree reduced regions) goes through the
    per-region dispatchers above, their only implementation.
    """
    unknown = [m for m in metrics if m not in _BATCH_SCALAR]
    if unknown:
        raise ValueError(f"unknown distance metrics: {unknown}")
    if regions and all(isinstance(r, Rect) for r in regions):
        lows = np.array([r.low for r in regions], dtype=np.float64)
        highs = np.array([r.high for r in regions], dtype=np.float64)
        return [
            _BATCH_VECTOR[m](point, lows, highs).tolist() for m in metrics
        ]
    results = []
    for m in metrics:
        scalar = _BATCH_SCALAR[m]
        results.append([scalar(point, region) for region in regions])
        kernels.record_kernel_use(m, "scalar", len(regions))
    return results
