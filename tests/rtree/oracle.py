"""The scalar R* insert path, kept as the oracle of the batch kernels.

These are the loops ``repro.rtree.tree`` and ``repro.rtree.split`` ran
before ChooseSubtree and the topological split moved onto
:mod:`repro.perf.kernels` — moved here verbatim (methods became
functions, nothing else changed).  They built every structure digest in
``test_structure_golden.py``; the differential tests require the
kernel path to pick the same child and the same two groups, always.

The leaf-data freshness check at the end is shared by the R*-tree and
SS-tree churn tests; it lives here, not in a test module, so importing
it applies no ``@given`` decorator.
"""

from typing import List, Sequence

import numpy as np

from repro.geometry.rect import Rect
from repro.rtree.node import Node, build_leaf_data
from repro.rtree.split import E, Groups, RectOf, SplitPolicy


def pick_internal_child(node: Node, rect: Rect) -> Node:
    """Least area enlargement, ties by least area."""
    best = None
    best_key = (float("inf"), float("inf"))
    for child in node.entries:
        area = child.mbr.area()
        key = (child.mbr.enlargement(rect), area)
        if key < best_key:
            best_key = key
            best = child
    return best


def pick_leaf_child(node: Node, rect: Rect) -> Node:
    """Least *overlap* enlargement among the children (R* rule).

    Overlap enlargement is O(fan-out^2); per the R* paper we restrict
    the quadratic part to the 32 children with least area enlargement.
    The inner loop is written with inline coordinate arithmetic and an
    early zero-overlap reject — it dominates tree construction time.
    """
    children: List[Node] = node.entries
    candidates = sorted(
        children, key=lambda c: (c.mbr.enlargement(rect), c.mbr.area())
    )[:32]
    dims = range(rect.dims)
    bounds = [(other.mbr.low, other.mbr.high, other) for other in children]

    best = None
    best_key = (float("inf"), float("inf"), float("inf"))
    for child in candidates:
        c_lo = child.mbr.low
        c_hi = child.mbr.high
        r_lo = rect.low
        r_hi = rect.high
        e_lo = tuple(
            a if a < b else b for a, b in zip(c_lo, r_lo)
        )
        e_hi = tuple(
            a if a > b else b for a, b in zip(c_hi, r_hi)
        )
        delta = 0.0
        for o_lo, o_hi, other in bounds:
            if other is child:
                continue
            # Overlap of the enlarged child with the sibling; the
            # child is contained in its enlargement, so zero here
            # implies zero overlap before the enlargement too.
            after = 1.0
            for i in dims:
                side = (e_hi[i] if e_hi[i] < o_hi[i] else o_hi[i]) - (
                    e_lo[i] if e_lo[i] > o_lo[i] else o_lo[i]
                )
                if side <= 0.0:
                    after = 0.0
                    break
                after *= side
            if after == 0.0:
                continue
            before = 1.0
            for i in dims:
                side = (c_hi[i] if c_hi[i] < o_hi[i] else o_hi[i]) - (
                    c_lo[i] if c_lo[i] > o_lo[i] else o_lo[i]
                )
                if side <= 0.0:
                    before = 0.0
                    break
                before *= side
            delta += after - before
            if delta > best_key[0]:
                break  # cannot beat the current best any more
        if delta > best_key[0]:
            continue
        key = (delta, child.mbr.enlargement(rect), child.mbr.area())
        if key < best_key:
            best_key = key
            best = child
    return best


def _bounding(entries: Sequence[E], rect_of: RectOf) -> Rect:
    return Rect.union_of(rect_of(e) for e in entries)


class ScalarRStarSplit(SplitPolicy):
    """The R*-tree topological split (Beckmann et al. 1990, §4.2).

    ChooseSplitAxis picks the axis whose candidate distributions have the
    smallest total margin; ChooseSplitIndex then picks the distribution
    with the least overlap between the two groups (ties broken by combined
    area).
    """

    name = "rstar"

    def split(self, entries: Sequence[E], min_fill: int, rect_of: RectOf) -> Groups:
        self._check(entries, min_fill)
        entries = list(entries)
        dims = rect_of(entries[0]).dims

        best_axis = -1
        best_margin_sum = float("inf")
        for axis in range(dims):
            margin_sum = 0.0
            for sorted_entries in self._axis_sorts(entries, axis, rect_of):
                for group1, group2 in self._distributions(sorted_entries, min_fill):
                    margin_sum += (
                        _bounding(group1, rect_of).margin()
                        + _bounding(group2, rect_of).margin()
                    )
            if margin_sum < best_margin_sum:
                best_margin_sum = margin_sum
                best_axis = axis

        best_groups: Groups = ([], [])
        best_key = (float("inf"), float("inf"))
        for sorted_entries in self._axis_sorts(entries, best_axis, rect_of):
            for group1, group2 in self._distributions(sorted_entries, min_fill):
                bb1 = _bounding(group1, rect_of)
                bb2 = _bounding(group2, rect_of)
                key = (bb1.intersection_area(bb2), bb1.area() + bb2.area())
                if key < best_key:
                    best_key = key
                    best_groups = (list(group1), list(group2))
        return best_groups

    @staticmethod
    def _axis_sorts(entries: List[E], axis: int, rect_of: RectOf):
        """The two sorts considered per axis: by low edge and by high edge."""
        yield sorted(entries, key=lambda e: (rect_of(e).low[axis],
                                             rect_of(e).high[axis]))
        yield sorted(entries, key=lambda e: (rect_of(e).high[axis],
                                             rect_of(e).low[axis]))

    @staticmethod
    def _distributions(sorted_entries: List[E], min_fill: int):
        """All (group1, group2) prefixes/suffixes respecting *min_fill*."""
        total = len(sorted_entries)
        for split_at in range(min_fill, total - min_fill + 1):
            yield sorted_entries[:split_at], sorted_entries[split_at:]


def assert_leaf_data_is_fresh(nodes):
    """Every leaf's ``leaf_data`` equals a fresh build, point objects
    included; reading it warms every cache for the next operation."""
    for node in nodes:
        if not node.is_leaf:
            assert node.leaf_data is None
            continue
        oids, points = node.leaf_data
        fresh_oids, fresh_points = build_leaf_data(node.entries)
        assert oids.dtype == np.int64
        assert oids.tolist() == fresh_oids.tolist()
        assert len(points) == len(fresh_points)
        assert all(a is b for a, b in zip(points, fresh_points))
