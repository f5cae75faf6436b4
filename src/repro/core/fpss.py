"""FPSS — Full Parallel Similarity Search (paper §3.2).

A breadth-first sweep that is maximally optimistic about node usefulness:
at every level it computes the Lemma 1 threshold distance over the
current frontier, discards only the branches that *provably* cannot
matter (``Dmin > D_th``), and activates **all** remaining branches at
once.  Intra-query parallelism is maximal, but so is wasted work — the
paper shows FPSS collapses under multi-user load because it has no
control over the number of fetched nodes.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.protocol import (
    FetchRequest,
    SearchAlgorithm,
    SearchCoroutine,
)
from repro.core.results import NeighborList
from repro.core.scan import ChildScan, offer_leaf, scan_children
from repro.core.threshold import threshold_distance_sq
from repro.rtree.node import Node


class FPSS(SearchAlgorithm):
    """Breadth-first, fully parallel search."""

    name = "FPSS"

    def run(self, root_page_id: int) -> SearchCoroutine:
        neighbors = NeighborList(self.query, self.k)
        batch = [root_page_id]
        # Dmin lower bound per in-flight page — the certificate of any
        # page that fails to arrive (degraded mode).
        pending = {root_page_id: 0.0}
        while batch:
            fetched: Mapping[int, Node] = yield FetchRequest(batch)
            leaves, internal = self.split_round(batch, fetched, pending)
            offer_leaf(self.query_vector, leaves, neighbors)
            # One round scan yields both the Dmin used for the
            # intersection filter and the Dmax Lemma 1 needs.
            scan = scan_children(self.query_vector, internal, want_dmax=True)
            pending = self._activate(scan, neighbors)
            batch = list(pending)
        if self.explain is not None:
            # Terminal sample: the leaf scans ran after the last
            # activation, so the final k-th distance lands here.
            self.explain.threshold(math.inf, neighbors.kth_distance_sq())
        return neighbors.as_sorted()

    def _activate(
        self, scan: ChildScan, neighbors: NeighborList
    ) -> Mapping[int, float]:
        """Every branch of the round's *scan* that intersects the query sphere.

        The sphere radius is the tighter of the Lemma 1 threshold over the
        frontier and the k-th best actual distance seen so far.  Returns
        the surviving pages with their Dmin lower bounds (used as the
        degraded-mode certificate should a page never arrive).
        """
        frontier, dmin_sq = scan.pages, scan.dmin_sq
        if not frontier:
            return {}
        dth_sq = threshold_distance_sq(scan.dmax_sq, scan.counts, self.k).dth_sq
        kth_sq = neighbors.kth_distance_sq()
        radius_sq = min(dth_sq, kth_sq)
        explain = self.explain
        if explain is not None:
            explain.threshold(dth_sq, kth_sq)
            # The tighter bound takes the credit for each rejection.
            reason = "lemma1" if dth_sq <= kth_sq else "kth"
            for page_id, d in zip(frontier, dmin_sq):
                if d > radius_sq:
                    explain.prune(page_id, reason)
        return {
            page_id: d
            for page_id, d in zip(frontier, dmin_sq)
            if d <= radius_sq
        }
