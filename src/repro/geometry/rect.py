"""Axis-aligned minimum bounding rectangles (MBRs).

The R-tree family approximates every object and every subtree by its MBR;
all pruning decisions of the paper's algorithms are made on MBRs, so this
class is the geometric workhorse of the library.
"""

from __future__ import annotations

import math
from operator import le
from typing import Iterable, Sequence, Tuple

from repro.geometry.point import Point, validate_point


class Rect:
    """An immutable axis-aligned box in n-dimensional space.

    ``low`` and ``high`` are the bottom-left and top-right corners; for
    every axis ``low[i] <= high[i]`` holds.  Degenerate boxes (points) are
    allowed — they are how leaf entries for point data are stored.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: Sequence[float], high: Sequence[float]):
        low_t = tuple(float(c) for c in low)
        high_t = tuple(float(c) for c in high)
        if len(low_t) != len(high_t):
            raise ValueError(
                f"corner dimensionality mismatch: {len(low_t)} vs {len(high_t)}"
            )
        if not low_t:
            raise ValueError("a rectangle needs at least one dimension")
        for lo, hi in zip(low_t, high_t):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"non-finite corner coordinates: {low_t}, {high_t}")
            if lo > hi:
                raise ValueError(f"low corner exceeds high corner: {low_t} > {high_t}")
        object.__setattr__(self, "low", low_t)
        object.__setattr__(self, "high", high_t)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Rect is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, low: Tuple[float, ...], high: Tuple[float, ...]) -> "Rect":
        """Unvalidated constructor for internal hot paths.

        Callers guarantee *low*/*high* are well-formed float tuples of
        equal dimension with ``low <= high`` — true whenever both derive
        from already-validated rectangles (union, intersection, ...).
        """
        rect = object.__new__(cls)
        object.__setattr__(rect, "low", low)
        object.__setattr__(rect, "high", high)
        return rect

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """A degenerate rectangle covering a single point."""
        p = validate_point(point)
        return cls._raw(p, p)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """The tightest rectangle enclosing every rectangle in *rects*.

        :raises ValueError: if *rects* is empty.
        """
        rects = list(rects)
        if not rects:
            raise ValueError("union of an empty collection of rectangles")
        # Per axis, min/max over the column in order: each keeps the
        # first extreme it meets, as a strict ``<`` / ``>`` update loop.
        return cls._raw(
            tuple(map(min, zip(*[r.low for r in rects]))),
            tuple(map(max, zip(*[r.high for r in rects]))),
        )

    # -- basic properties --------------------------------------------------

    @property
    def dims(self) -> int:
        """Dimensionality of the rectangle."""
        return len(self.low)

    @property
    def center(self) -> Point:
        """Geometric center of the rectangle."""
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.low, self.high))

    def extent(self, axis: int) -> float:
        """Side length along *axis*."""
        return self.high[axis] - self.low[axis]

    def area(self) -> float:
        """Hyper-volume (what the R-tree literature calls *area*)."""
        result = 1.0
        for lo, hi in zip(self.low, self.high):
            result *= hi - lo
        return result

    def bounding_rect(self) -> "Rect":
        """The box itself: every node region answers this (a sphere or
        an SR-tree region with the box that bounds it)."""
        return self

    def margin(self) -> float:
        """Sum of side lengths — the R*-tree split criterion's *margin*."""
        total = 0.0
        for lo, hi in zip(self.low, self.high):
            total += hi - lo
        return total

    # -- relations ---------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """The tightest rectangle enclosing *self* and *other*.

        On a tie *other*'s coordinate is kept (``min``/``max`` return
        their first argument unless the second is strictly beyond it),
        so a ``-0.0`` in *other* replaces a ``0.0`` corner.
        """
        return Rect._raw(
            tuple(map(min, other.low, self.low)),
            tuple(map(max, other.high, self.high)),
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the two rectangles share at least a boundary point."""
        return all(
            lo <= o_hi and o_lo <= hi
            for lo, hi, o_lo, o_hi in zip(self.low, self.high, other.low, other.high)
        )

    def intersection_area(self, other: "Rect") -> float:
        """Hyper-volume of the overlap region (0.0 if disjoint)."""
        result = 1.0
        for lo, hi, o_lo, o_hi in zip(self.low, self.high, other.low, other.high):
            side = min(hi, o_hi) - max(lo, o_lo)
            if side <= 0.0:
                return 0.0
            result *= side
        return result

    def contains_point(self, point: Sequence[float]) -> bool:
        """True if *point* lies inside or on the boundary."""
        if len(point) != self.dims:
            raise ValueError(f"dimension mismatch: {len(point)} vs {self.dims}")
        return all(lo <= c <= hi for lo, c, hi in zip(self.low, point, self.high))

    def contains_rect(self, other: "Rect") -> bool:
        """True if *other* lies fully inside *self* (boundaries included)."""
        return all(map(le, self.low, other.low)) and all(
            map(le, other.high, self.high)
        )

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed for *self* to also cover *other*.

        This is Guttman's ChooseLeaf criterion and one input of the
        R*-tree's ChooseSubtree.  Computed without allocating the union
        rectangle — this sits on the insertion hot path.
        """
        union_area = 1.0
        area = 1.0
        for lo, hi, o_lo, o_hi in zip(self.low, self.high, other.low, other.high):
            union_area *= (hi if hi > o_hi else o_hi) - (lo if lo < o_lo else o_lo)
            area *= hi - lo
        return union_area - area

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rect)
            and self.low == other.low
            and self.high == other.high
        )

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    def __repr__(self) -> str:
        return f"Rect(low={self.low}, high={self.high})"
