"""Node split policies.

The paper's index is an R*-tree, so :class:`RStarSplit` (the topological
split of Beckmann et al.) is the default.  Guttman's quadratic and linear
splits are included for the split-policy ablation bench and to support the
plain-R-tree baseline configuration.

A policy works on abstract *entries*: anything for which the caller can
supply a rectangle via ``rect_of``.  This lets the same code split leaf
entries, child nodes, and the SS-tree extension's sphere entries (via
bounding rectangles).
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

from repro.geometry.rect import Rect
from repro.perf import kernels

E = TypeVar("E")
RectOf = Callable[[E], Rect]
Groups = Tuple[List[E], List[E]]


class SplitPolicy:
    """Interface: distribute an overflowing entry set into two groups."""

    #: Human-readable policy name (used in ablation reports).
    name = "abstract"

    def split(self, entries: Sequence[E], min_fill: int, rect_of: RectOf) -> Groups:
        """Partition *entries* into two groups of at least *min_fill* each.

        :param entries: the M+1 entries of the overflowing node.
        :param min_fill: minimum number of entries per resulting group.
        :param rect_of: maps an entry to its MBR.
        """
        raise NotImplementedError

    def _check(self, entries: Sequence[E], min_fill: int) -> None:
        if len(entries) < 2 * min_fill:
            raise ValueError(
                f"cannot split {len(entries)} entries with min fill {min_fill}"
            )


class RStarSplit(SplitPolicy):
    """The R*-tree topological split (Beckmann et al. 1990, §4.2).

    ChooseSplitAxis picks the axis whose candidate distributions have the
    smallest total margin; ChooseSplitIndex then picks the distribution
    with the least overlap between the two groups (ties broken by combined
    area).

    Every distribution of every sort is scored in one
    :func:`repro.perf.kernels.batch_split_scores` call; what stays here
    is the order of things, which decides ties.  Per axis the entries
    are sorted by ``(low, high)`` and by ``(high, low)`` — ``lexsort``
    is stable, so equal keys keep entry order.  An axis's margin total
    adds its distributions one after another, low sort first, each sort
    by growing group 1 (``add.accumulate``, never a pairwise ``sum``);
    the first axis with the least total wins, and on it the first
    distribution, in the same order, with the least ``(overlap, area)``.
    """

    name = "rstar"

    def split(self, entries: Sequence[E], min_fill: int, rect_of: RectOf) -> Groups:
        self._check(entries, min_fill)
        entries = list(entries)
        rects = [rect_of(entry) for entry in entries]
        lows = np.array([rect.low for rect in rects], dtype=np.float64)
        highs = np.array([rect.high for rect in rects], dtype=np.float64)
        dims = lows.shape[1]

        orders = np.array([
            order
            for axis in range(dims)
            for order in (
                np.lexsort((highs[:, axis], lows[:, axis])),
                np.lexsort((lows[:, axis], highs[:, axis])),
            )
        ])
        margin, overlap, area = kernels.batch_split_scores(
            lows[orders], highs[orders], min_fill
        )
        # Rows 2a and 2a + 1 are axis a's two sorts; reshaping lays their
        # distributions end to end, the order the sums and ties follow.
        margin_sums = np.add.accumulate(margin.reshape(dims, -1), axis=1)[:, -1]
        best_axis = int(np.argmin(margin_sums))
        pair = slice(2 * best_axis, 2 * best_axis + 2)
        best = int(np.lexsort((area[pair].ravel(), overlap[pair].ravel()))[0])
        sort, distribution = divmod(best, margin.shape[1])
        order = orders[2 * best_axis + sort].tolist()
        split_at = min_fill + distribution
        return (
            [entries[i] for i in order[:split_at]],
            [entries[i] for i in order[split_at:]],
        )


class QuadraticSplit(SplitPolicy):
    """Guttman's quadratic-cost split (SIGMOD 1984, §3.5.2)."""

    name = "quadratic"

    def split(self, entries: Sequence[E], min_fill: int, rect_of: RectOf) -> Groups:
        self._check(entries, min_fill)
        remaining = list(entries)
        seed1, seed2 = self._pick_seeds(remaining, rect_of)
        # Remove the higher index first so the lower one stays valid.
        for index in sorted((seed1, seed2), reverse=True):
            remaining.pop(index)
        group1 = [entries[seed1]]
        group2 = [entries[seed2]]
        bb1 = rect_of(entries[seed1])
        bb2 = rect_of(entries[seed2])

        while remaining:
            # Min-fill forcing: if one group must absorb the rest, do it.
            if len(group1) + len(remaining) == min_fill:
                group1.extend(remaining)
                break
            if len(group2) + len(remaining) == min_fill:
                group2.extend(remaining)
                break
            index, prefer_first = self._pick_next(remaining, bb1, bb2, rect_of)
            entry = remaining.pop(index)
            if prefer_first:
                group1.append(entry)
                bb1 = bb1.union(rect_of(entry))
            else:
                group2.append(entry)
                bb2 = bb2.union(rect_of(entry))
        return group1, group2

    @staticmethod
    def _pick_seeds(entries: List[E], rect_of: RectOf) -> Tuple[int, int]:
        """The pair wasting the most area if placed together."""
        best = (0, 1)
        best_waste = float("-inf")
        for i in range(len(entries)):
            r_i = rect_of(entries[i])
            for j in range(i + 1, len(entries)):
                r_j = rect_of(entries[j])
                waste = r_i.union(r_j).area() - r_i.area() - r_j.area()
                if waste > best_waste:
                    best_waste = waste
                    best = (i, j)
        return best

    @staticmethod
    def _pick_next(
        remaining: List[E], bb1: Rect, bb2: Rect, rect_of: RectOf
    ) -> Tuple[int, bool]:
        """Entry with the strongest preference, and which group it prefers."""
        best_index = 0
        best_diff = -1.0
        best_prefer_first = True
        for i, entry in enumerate(remaining):
            r = rect_of(entry)
            d1 = bb1.enlargement(r)
            d2 = bb2.enlargement(r)
            diff = abs(d1 - d2)
            if diff > best_diff:
                best_diff = diff
                best_index = i
                if d1 != d2:
                    best_prefer_first = d1 < d2
                else:
                    # Resolve ties by smaller area, then smaller group.
                    if bb1.area() != bb2.area():
                        best_prefer_first = bb1.area() < bb2.area()
                    else:
                        best_prefer_first = True
        return best_index, best_prefer_first


class LinearSplit(SplitPolicy):
    """Guttman's linear-cost split (SIGMOD 1984, §3.5.3)."""

    name = "linear"

    def split(self, entries: Sequence[E], min_fill: int, rect_of: RectOf) -> Groups:
        self._check(entries, min_fill)
        remaining = list(entries)
        seed1, seed2 = self._pick_seeds(remaining, rect_of)
        entry1 = remaining[seed1]
        entry2 = remaining[seed2]
        for index in sorted((seed1, seed2), reverse=True):
            remaining.pop(index)
        group1 = [entry1]
        group2 = [entry2]
        bb1 = rect_of(entry1)
        bb2 = rect_of(entry2)

        for position, entry in enumerate(remaining):
            left = len(remaining) - position
            if len(group1) + left == min_fill:
                group1.extend(remaining[position:])
                return group1, group2
            if len(group2) + left == min_fill:
                group2.extend(remaining[position:])
                return group1, group2
            r = rect_of(entry)
            if bb1.enlargement(r) <= bb2.enlargement(r):
                group1.append(entry)
                bb1 = bb1.union(r)
            else:
                group2.append(entry)
                bb2 = bb2.union(r)
        return group1, group2

    @staticmethod
    def _pick_seeds(entries: List[E], rect_of: RectOf) -> Tuple[int, int]:
        """Pair with the greatest normalized separation over all axes."""
        dims = rect_of(entries[0]).dims
        best = (0, 1)
        best_separation = float("-inf")
        for axis in range(dims):
            lows = [rect_of(e).low[axis] for e in entries]
            highs = [rect_of(e).high[axis] for e in entries]
            # Entry with the highest low edge and entry with the lowest
            # high edge are the most separated pair along this axis.
            high_low = max(range(len(entries)), key=lambda i: lows[i])
            low_high = min(range(len(entries)), key=lambda i: highs[i])
            if high_low == low_high:
                continue
            width = max(highs) - min(lows)
            if width <= 0.0:
                continue
            separation = (lows[high_low] - highs[low_high]) / width
            if separation > best_separation:
                best_separation = separation
                best = (low_high, high_low)
        return best
