"""Maintaining the k current best answers during a search.

The paper keeps "an ordered sequence of the current k most promising
answers" and prunes against the distance to the k-th of them.  The
classic structure for this is a bounded max-heap: insertion is O(log k)
and the pruning distance (the k-th best so far) is the heap top.
"""

from __future__ import annotations

import heapq
import math
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point, squared_euclidean


class Neighbor(NamedTuple):
    """One answer of a k-NN query."""

    distance: float
    point: Point
    oid: int


class NeighborList:
    """A bounded list of the k nearest objects seen so far.

    Internally a max-heap on squared distance so the current pruning
    radius — the distance to the k-th best — is O(1).  Ties at equal
    distance are broken by object id, which makes every algorithm return
    the identical answer set and keeps the oracle comparisons in the test
    suite exact.
    """

    def __init__(self, query: Sequence[float], k: int):
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.query = tuple(query)
        self.k = k
        # Max-heap via negated key; key = (dist_sq, oid) so ties break
        # deterministically toward smaller oids.
        self._heap: List[Tuple[float, int, Point]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        """True once k candidates have been collected."""
        return len(self._heap) >= self.k

    def kth_distance_sq(self) -> float:
        """Squared pruning radius: distance to the current k-th best.

        Infinite while fewer than k objects have been seen — nothing can
        be pruned yet (paper §3.2: "until the first k objects are visited
        there is no available information concerning the upper bound").
        """
        if not self.full:
            return math.inf
        neg_dist_sq, neg_oid, _ = self._heap[0]
        return -neg_dist_sq

    def offer(self, point: Sequence[float], oid: int) -> float:
        """Consider one data object; returns its squared distance."""
        dist_sq = squared_euclidean(self.query, point)
        item = (-dist_sq, -oid, tuple(point))
        if not self.full:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            # Better than the current k-th (smaller distance, or equal
            # distance with smaller oid) — replace the worst.
            heapq.heapreplace(self._heap, item)
        return dist_sq

    def offer_block(self, dist_sq, oids, points) -> None:
        """Consider a block of objects (a round's leaves) from packed arrays.

        :param dist_sq: squared distances (array or list) aligned with
            *oids*, as produced by the batch point kernel.
        :param oids: the objects' ids (array or list).
        :param points: the row-aligned answer points, a sequence of the
            point tuples the leaves store (their ``leaf_data``).  An
            admitted candidate's tuple is kept as it is — the same
            object, no copy and no float conversion — so the points must
            already be the answer points.

        Admits exactly the objects :meth:`offer` would, one by one
        (items compare on ``(-dist_sq, -oid)`` first and oids are
        unique, so the point never decides an ordering).  The block is
        first filtered at a bound no admitted candidate exceeds: the
        k-th distance at block start once the list is full, else the
        k-th smallest over the held items *and* the block — held items
        can lie beyond the block's own values.  At least k items are
        within the bound, so a candidate beyond it would be evicted; a
        tie at the bound is kept and the loop decides it by oid.  The
        heap holds the unfiltered loop's items, not always in its
        array order; a full list offered nothing within its bound is
        left as it was, down to its heap list.
        """
        heap = self._heap
        k = self.k
        held = len(heap)
        dist_sq = np.asarray(dist_sq, dtype=np.float64)
        oids = np.asarray(oids, dtype=np.int64)
        if held >= k:
            bound = -heap[0][0]
        elif held + len(dist_sq) >= k:
            pool = np.concatenate((
                np.fromiter((-item[0] for item in heap), np.float64, held),
                dist_sq,
            ))
            bound = np.partition(pool, k - 1)[k - 1]
        else:
            bound = None
        if bound is None:
            rows = range(len(dist_sq))
        else:
            rows = (dist_sq <= bound).nonzero()[0]
            if not len(rows):
                # Nothing within the bound — half of a full list's
                # offers in a 10-d BBSS search: nothing to convert.
                return
            dist_sq, oids = dist_sq[rows], oids[rows]
            rows = rows.tolist()
        candidates = zip(rows, dist_sq.tolist(), oids.tolist())
        if held < k:
            for row, dist, oid in candidates:
                heapq.heappush(heap, (-dist, -oid, points[row]))
                if len(heap) >= k:
                    break
            else:
                return
        # Full from here on: a candidate enters only by beating the
        # k-th (smaller distance, or equal distance and smaller oid).
        top_dist, top_oid, _ = heap[0]
        for row, dist, oid in candidates:
            if -dist < top_dist or (-dist == top_dist and -oid <= top_oid):
                continue
            heapq.heapreplace(heap, (-dist, -oid, points[row]))
            top_dist, top_oid, _ = heap[0]

    def as_sorted(self) -> List[Neighbor]:
        """The answers, ascending by (distance, oid)."""
        # Items are (-dist_sq, -oid, point) and no two share an oid, so
        # descending items are ascending (distance, oid).
        return [
            Neighbor(math.sqrt(-neg_d), point, -neg_oid)
            for neg_d, neg_oid, point in sorted(self._heap, reverse=True)
        ]
