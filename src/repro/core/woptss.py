"""WOPTSS — Weak OPTimal Similarity Search (paper §3.4).

A *hypothetical* algorithm: it assumes the distance ``D_k`` from the
query point to its k-th nearest neighbor is known in advance, and fetches
exactly the tree nodes whose MBRs intersect the sphere
``sphere(P_q, D_k)`` — the defining node set of weak optimality
(Definition 6).  No real algorithm can know ``D_k`` beforehand, so
WOPTSS serves purely as the performance lower bound the paper measures
everything against.

The traversal is level-synchronous: all qualifying nodes of a level are
activated in one batch, which both visits the minimum possible node set
and exposes the maximum parallelism that node set admits.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.distances import squared_radius
from repro.core.protocol import (
    FetchRequest,
    SearchAlgorithm,
    SearchCoroutine,
)
from repro.core.results import NeighborList
from repro.core.scan import offer_leaf, scan_children
from repro.rtree.node import Node


class WOPTSS(SearchAlgorithm):
    """The weak-optimal oracle algorithm.

    :param query: query point.
    :param k: neighbors requested.
    :param num_disks: accepted for interface uniformity (unused).
    :param oracle_dk: the exact distance to the k-th nearest neighbor,
        obtained out-of-band (e.g. from the tree's
        ``kth_nearest_distance``).
    """

    name = "WOPTSS"
    requires_oracle = True

    def __init__(
        self,
        query: Sequence[float],
        k: int,
        num_disks: int = 1,
        oracle_dk: float = math.nan,
    ):
        super().__init__(query, k, num_disks)
        if math.isnan(oracle_dk) or oracle_dk < 0.0:
            raise ValueError(
                "WOPTSS needs the oracle distance D_k (a non-negative float)"
            )
        self.oracle_dk = float(oracle_dk)

    def run(self, root_page_id: int) -> SearchCoroutine:
        neighbors = NeighborList(self.query, self.k)
        radius_sq = squared_radius(self.oracle_dk)
        explain = self.explain
        batch = [root_page_id]
        # Dmin lower bound per in-flight page — the certificate of any
        # page that fails to arrive (degraded mode).
        pending = {root_page_id: 0.0}
        while batch:
            fetched: Mapping[int, Node] = yield FetchRequest(batch)
            leaves, internal = self.split_round(batch, fetched, pending)
            offer_leaf(self.query_vector, leaves, neighbors)
            scan = scan_children(self.query_vector, internal)
            if explain is not None:
                for page_id, d in zip(scan.pages, scan.dmin_sq):
                    if d > radius_sq:
                        explain.prune(page_id, "oracle")
            pending = {
                page_id: d
                for page_id, d in zip(scan.pages, scan.dmin_sq)
                if d <= radius_sq
            }
            if explain is not None:
                explain.threshold(radius_sq, neighbors.kth_distance_sq())
            batch = list(pending)
        return neighbors.as_sorted()
