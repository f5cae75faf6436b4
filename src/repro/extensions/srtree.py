"""The SR-tree access method (Katayama & Satoh, SIGMOD 1997).

The last of the paper's named future-work access methods implemented
here (§5).  The SR-tree bounds every subtree by the **intersection of a
bounding rectangle and a bounding sphere**: the rectangle is tight on
skewed data, the sphere is tight around centroids, and their
intersection dominates both — so ``Dmin`` is the larger of the two
parts' bounds, which prunes strictly more than either tree alone.

Structure and insertion are the SS-tree's (centroid-guided descent,
variance split): :class:`SRTree` is an
:class:`~repro.extensions.sstree.SSTree` whose nodes additionally
maintain the exact MBR of their subtree, so it runs on the same page
table, structural hooks and declustering as the R*-tree.  The combined
bound is exposed as an :class:`SRRegion` through ``node.mbr`` (its
``bounding_rect()`` is what the placement policies read), and each
node's branches as row-aligned ``(lows, highs, centres, radii)`` arrays,
which the ``sr`` kernels of :mod:`repro.core.regions` combine per the
rules above.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.extensions.sstree import (
    Entry,
    ParallelSSTree,
    SSNode,
    SSTree,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere
from repro.rtree.node import LeafEntry


class SRRegion:
    """The SR-tree bounding region: a rectangle ∩ sphere pair."""

    __slots__ = ("rect", "sphere")

    def __init__(self, rect: Rect, sphere: Sphere):
        if rect.dims != sphere.dims:
            raise ValueError(
                f"dimension mismatch: rect {rect.dims}-d, sphere {sphere.dims}-d"
            )
        self.rect = rect
        self.sphere = sphere

    @property
    def dims(self) -> int:
        """Dimensionality of the region."""
        return self.rect.dims

    @property
    def center(self) -> Point:
        """The sphere's center (the subtree centroid)."""
        return self.sphere.center

    @property
    def radius(self) -> float:
        """The sphere's radius."""
        return self.sphere.radius

    def bounding_rect(self) -> Rect:
        """The rectangle part, which already bounds the region."""
        return self.rect

    def __repr__(self) -> str:
        return f"SRRegion(rect={self.rect}, sphere={self.sphere})"


def _entry_rect(entry: Entry) -> Rect:
    return entry.rect if isinstance(entry, LeafEntry) else entry.mbr.rect


class SRNode(SSNode):
    """One SR-tree node; ``mbr`` holds the combined :class:`SRRegion`."""

    __slots__ = ()

    region_family = "sr"

    def refresh(self) -> None:
        """Recompute the rect, the sphere and the object count.

        Following Katayama & Satoh: the rectangle is the exact union of
        the entry rectangles; the sphere is the SS-tree's (count-weighted
        centroid, radius covering every entry's sphere) unless the
        rectangle's farthest corner from the centroid is nearer — both
        reaches are valid covers, so the smaller wins.
        """
        super().refresh()
        sphere = self.mbr
        if sphere is None:
            return
        rect = Rect.union_of(_entry_rect(e) for e in self.entries)
        corner_sq = 0.0
        for c, lo, hi in zip(sphere.center, rect.low, rect.high):
            corner_sq += max(abs(c - lo), abs(hi - c)) ** 2
        radius = min(sphere.radius, math.sqrt(corner_sq))
        self.mbr = SRRegion(rect, Sphere(sphere.center, radius))

    def build_bounds(self) -> Tuple[np.ndarray, ...]:
        """Fresh ``(lows, highs, centres, radii)`` arrays, uncached."""
        rects = [_entry_rect(e) for e in self.entries]
        lows = np.array([r.low for r in rects], dtype=np.float64)
        highs = np.array([r.high for r in rects], dtype=np.float64)
        return (lows, highs) + super().build_bounds()


class SRTree(SSTree):
    """A dynamic SR-tree over n-dimensional points.

    Same construction parameters and page-table interface as
    :class:`~repro.extensions.sstree.SSTree`.
    """

    node_class = SRNode


class ParallelSRTree(ParallelSSTree):
    """An SR-tree declustered over a disk array (PI over the rect part)."""

    tree_class = SRTree
    cylinder_salt = 0x5271EE


#: Build a declustered SR-tree by one-by-one insertion.
build_parallel_srtree = ParallelSRTree.build
