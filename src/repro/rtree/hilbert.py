"""Hilbert space-filling curve encoding and Hilbert-packed bulk loading.

The paper's background (§2.1) cites the Hilbert R-tree of Kamel &
Faloutsos among the split-policy refinements of the R-tree family.
This module provides the underlying machinery:

* :func:`hilbert_index` — the distance of a point along the Hilbert
  curve of a given order, in any dimension (Butz/Lawder iterative
  algorithm via Gray-code transposition);
* :func:`hilbert_sort_key` — curve position for unit-cube coordinates;
* :func:`hilbert_bulk_load` — pack a tree by Hilbert order, the
  Kamel–Faloutsos packing that preserves spatial locality better than
  plain coordinate sorts (an alternative to the STR loader in
  :mod:`repro.rtree.bulk`, compared in the packing ablation bench).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.rtree.bulk import _even_chunks, pack_levels
from repro.rtree.node import Node
from repro.rtree.tree import RStarTree

#: Default curve order: 16 bits per dimension resolves the unit cube to
#: ~1.5e-5, far below any meaningful point separation in the data sets.
DEFAULT_ORDER = 16


def hilbert_index(coords: Sequence[int], order: int) -> int:
    """Hilbert-curve distance of integer *coords* on a 2^order grid.

    Implements the transposition algorithm (Skilling's variant of
    Butz): map the point through inverse-undo of the Hilbert
    transformation, then interleave the bits.

    :param coords: non-negative integers, each < 2**order.
    :param order: bits per dimension.
    :raises ValueError: on out-of-range coordinates.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    dims = len(coords)
    if dims < 1:
        raise ValueError("need at least one coordinate")
    x = list(coords)
    for value in x:
        if not 0 <= value < (1 << order):
            raise ValueError(
                f"coordinate {value} outside [0, 2^{order})"
            )

    # Inverse undo excess work (Skilling 2004, TRANSPOSE form).
    m = 1 << (order - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(dims):
            if x[i] & q:
                x[0] ^= p  # invert low bits of x[0]
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1

    # Gray encode.
    for i in range(1, dims):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[dims - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dims):
        x[i] ^= t

    # Interleave the transposed bits into a single index.
    index = 0
    for bit in range(order - 1, -1, -1):
        for i in range(dims):
            index = (index << 1) | ((x[i] >> bit) & 1)
    return index


def hilbert_sort_key(
    point: Sequence[float], order: int = DEFAULT_ORDER
) -> int:
    """Hilbert position of a unit-cube point (coordinates clamped)."""
    scale = (1 << order) - 1
    coords = [
        min(scale, max(0, int(c * scale))) for c in point
    ]
    return hilbert_index(coords, order)


def hilbert_center_key(rect, order: int = DEFAULT_ORDER) -> int:
    """Hilbert position of a rectangle's center (Hilbert R-tree order)."""
    return hilbert_sort_key(rect.center, order)


def hilbert_bulk_load(
    points: Sequence[Tuple[Sequence[float], int]],
    dims: int,
    max_entries: Optional[int] = None,
    page_size: int = 4096,
    fill_factor: float = 1.0,
    order: int = DEFAULT_ORDER,
    on_split: Optional[Callable[[Optional[Node], Node], None]] = None,
) -> RStarTree:
    """Build a packed R*-tree by Hilbert-sorting the points.

    Kamel & Faloutsos's packing: sort all points by Hilbert value, fill
    leaves left to right, then build each upper level by Hilbert value
    of the node centers.  Same parameters and guarantees as
    :func:`repro.rtree.bulk.str_bulk_load` (every node meets the
    minimum fill, dynamic operations work afterwards).
    """

    def group(items: List, capacity: int, key) -> List[List]:
        ordered = sorted(items, key=lambda it: hilbert_sort_key(key(it), order))
        return _even_chunks(ordered, max(1, math.ceil(len(ordered) / capacity)))

    return pack_levels(
        points, dims, max_entries, page_size, fill_factor, on_split, group
    )
