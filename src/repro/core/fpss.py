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
from typing import List, Mapping, Optional

import numpy as np

from repro.core.protocol import (
    ChildRef,
    FetchRequest,
    SearchAlgorithm,
    SearchCoroutine,
)
from repro.core.results import NeighborList
from repro.core.scan import gathered_counts, offer_leaf, scan_children
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
            # Per fetched node, one batch scan yields both the Dmin used
            # for the intersection filter and the Dmax Lemma 1 needs.
            frontier: List[ChildRef] = []
            dmin_sq: List[float] = []
            dmax_sq: List[float] = []
            count_chunks: List[np.ndarray] = []
            for page_id in batch:
                node = fetched.get(page_id)
                if node is None:
                    self.note_unreachable(pending[page_id])
                elif node.is_leaf:
                    offer_leaf(self.query, node, neighbors)
                elif node.entries:
                    scan = scan_children(self.query, node, want_dmax=True)
                    frontier.extend(scan.refs)
                    dmin_sq.extend(scan.dmin_sq)
                    dmax_sq.extend(scan.dmax_sq)
                    count_chunks.append(scan.counts)
            pending = self._activate(
                frontier, dmin_sq, dmax_sq, neighbors,
                counts=gathered_counts(count_chunks),
            )
            batch = list(pending)
        if self.explain is not None:
            # Terminal sample: the leaf scans ran after the last
            # activation, so the final k-th distance lands here.
            self.explain.threshold(math.inf, neighbors.kth_distance_sq())
        return neighbors.as_sorted()

    def _activate(
        self,
        frontier: List[ChildRef],
        dmin_sq: List[float],
        dmax_sq: List[float],
        neighbors: NeighborList,
        counts: Optional[np.ndarray] = None,
    ) -> Mapping[int, float]:
        """Every frontier branch that intersects the current query sphere.

        The sphere radius is the tighter of the Lemma 1 threshold over the
        frontier and the k-th best actual distance seen so far.  Returns
        the surviving pages with their Dmin lower bounds (used as the
        degraded-mode certificate should a page never arrive).
        """
        if not frontier:
            return {}
        dth_sq = threshold_distance_sq(
            self.query, frontier, self.k, dmax_sq=dmax_sq, counts=counts
        ).dth_sq
        kth_sq = neighbors.kth_distance_sq()
        radius_sq = min(dth_sq, kth_sq)
        explain = self.explain
        if explain is not None:
            explain.threshold(dth_sq, kth_sq)
            # The tighter bound takes the credit for each rejection.
            reason = "lemma1" if dth_sq <= kth_sq else "kth"
            for ref, d in zip(frontier, dmin_sq):
                if d > radius_sq:
                    explain.prune(ref.page_id, reason)
        return {
            ref.page_id: d
            for ref, d in zip(frontier, dmin_sq)
            if d <= radius_sq
        }
