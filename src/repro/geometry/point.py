"""Point helpers.

Points are represented as plain tuples of floats.  Keeping them as tuples
(rather than a wrapper class) makes them hashable, comparable and cheap to
create, which matters because k-NN search manipulates millions of them.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: Type alias used throughout the library for an n-dimensional point.
Point = Tuple[float, ...]


def validate_point(point: Sequence[float], dims: int = 0) -> Point:
    """Return *point* as a tuple of floats, checking basic sanity.

    :param point: any sequence of numbers.
    :param dims: if non-zero, the required dimensionality.
    :raises ValueError: if the point is empty, has the wrong dimensionality,
        or contains non-finite coordinates.
    """
    coords = tuple(map(float, point))
    if not coords:
        raise ValueError("a point needs at least one coordinate")
    if dims and len(coords) != dims:
        raise ValueError(
            f"expected a {dims}-dimensional point, got {len(coords)} coordinates"
        )
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"point has non-finite coordinates: {coords}")
    return coords


def squared_euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared Euclidean distance between two points of equal dimension.

    Squared distances order identically to true distances, so the search
    algorithms compare squared values and only take the square root when a
    distance is reported to the user.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    # An explicit left fold, not sum(): the batch kernels fold the same
    # way, and sum() of floats is compensated since Python 3.12.
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return total


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two points of equal dimension."""
    return math.sqrt(squared_euclidean(a, b))


def midpoint(a: Sequence[float], b: Sequence[float]) -> Point:
    """The point halfway between *a* and *b*."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple((x + y) / 2.0 for x, y in zip(a, b))
