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
        return self.offer_computed(
            squared_euclidean(self.query, point), point, oid
        )

    def offer_computed(
        self, dist_sq: float, point: Sequence[float], oid: int
    ) -> float:
        """Consider a data object whose squared distance is already known.

        The batched leaf scan (:func:`repro.core.scan.offer_leaf`)
        computes all of a leaf's distances in one kernel call and feeds
        them through here; the selection logic is shared with
        :meth:`offer`, so both paths admit exactly the same objects.
        """
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
        :param points: ``(n, dims)`` point matrix, row-aligned.

        Admits exactly the objects :meth:`offer_computed` would, but the
        point tuple — the expensive part — is materialized only for
        candidates that actually enter the heap.  That is sound because
        heap items compare on ``(-dist_sq, -oid)`` first and oids are
        globally unique, so the point element never decides an ordering.
        Once the list is full, the whole block is first compared with
        the k-th distance at block start: that distance only shrinks,
        so a candidate beyond it would never be admitted by the loop.
        """
        heap = self._heap
        k = self.k
        dist_sq = np.asarray(dist_sq, dtype=np.float64)
        oids = np.asarray(oids, dtype=np.int64)
        points = np.asarray(points, dtype=np.float64)
        if len(heap) >= k:
            keep = np.flatnonzero(dist_sq <= -heap[0][0])
            dist_sq, oids, points = dist_sq[keep], oids[keep], points[keep]
        dist_list = dist_sq.tolist()
        oid_list = oids.tolist()
        for i, (dist, oid) in enumerate(zip(dist_list, oid_list)):
            if len(heap) < k:
                heapq.heappush(
                    heap, (-dist, -oid, tuple(points[i].tolist()))
                )
            else:
                top = heap[0]
                if -dist > top[0] or (-dist == top[0] and -oid > top[1]):
                    heapq.heapreplace(
                        heap, (-dist, -oid, tuple(points[i].tolist()))
                    )

    def as_sorted(self) -> List[Neighbor]:
        """The answers, ascending by (distance, oid)."""
        ordered = sorted(
            ((-neg_d, -neg_oid, point) for neg_d, neg_oid, point in self._heap)
        )
        return [
            Neighbor(math.sqrt(dist_sq), point, oid)
            for dist_sq, oid, point in ordered
        ]
