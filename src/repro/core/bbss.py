"""BBSS — Branch and Bound Similarity Search (paper §3.1).

The sequential branch-and-bound k-NN algorithm of Roussopoulos, Kelley &
Vincent (SIGMOD 1995), run unchanged on the disk array: a depth-first
descent that visits **one node at a time**, ordering sibling branches by
ascending ``Dmin`` and pruning with the three rules of the paper:

1. discard an MBR whose ``Dmin`` exceeds another MBR's ``Dmm``
   (applicable downward only for k = 1, since ``Dmm`` guarantees just a
   single object);
2. an MBR's ``Dmm`` bounds the best achievable distance from above;
3. discard every MBR whose ``Dmin`` exceeds the current k-th best actual
   distance (applied when returning from each subtree).

Because it fetches a single page per step, BBSS exhibits no intra-query
parallelism — that is exactly the weakness the paper's CRSS addresses.
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
from repro.core.scan import offer_leaf, scan_children
from repro.rtree.node import Node


class BBSS(SearchAlgorithm):
    """Depth-first branch-and-bound search (Roussopoulos et al. 1995)."""

    name = "BBSS"

    def run(self, root_page_id: int) -> SearchCoroutine:
        neighbors = NeighborList(self.query, self.k)
        fetched: Mapping[int, Node] = yield FetchRequest([root_page_id])
        root = fetched.get(root_page_id)
        if root is None:
            # Degraded mode: the root never arrived — nothing is
            # certified (the whole tree is beyond reach).
            self.note_unreachable(0.0)
        elif root.is_leaf:
            offer_leaf(self.query_vector, [root], neighbors)
        else:
            yield from self._visit(root, neighbors)
        return neighbors.as_sorted()

    def _visit(self, node: Node, neighbors: NeighborList):
        """Recursive DFS below internal *node*, one fetch per child
        visited; a leaf child is offered in place, an internal one
        visited in turn."""
        query = self.query_vector
        # Build the Active Branch List ordered by ascending Dmin; the
        # node is scored as a round of one, in one batch over its
        # cached bounds.
        scan = scan_children(query, [node], want_dmm=True)
        branches = sorted(zip(scan.dmin_sq, scan.dmm_sq, scan.pages))

        # Rule 1 (downward pruning, k = 1 only): an MBR whose Dmin exceeds
        # the smallest Dmm of any sibling cannot hold the nearest object.
        explain = self.explain
        if self.k == 1 and branches:
            best_dmm_sq = min(dmm_sq for _, dmm_sq, _ in branches)
            if explain is not None:
                for b_dmin_sq, _, b_page_id in branches:
                    if b_dmin_sq > best_dmm_sq:
                        explain.prune(b_page_id, "rule1_dmm")
            branches = [b for b in branches if b[0] <= best_dmm_sq]

        for dmin_sq, _, page_id in branches:
            # Rule 3 (upward pruning): re-checked before every descent,
            # since the pruning radius shrinks as subtrees complete.
            if dmin_sq > neighbors.kth_distance_sq():
                if explain is not None:
                    explain.prune(page_id, "kth")
                continue
            if explain is not None:
                explain.threshold(math.inf, neighbors.kth_distance_sq())
            fetched = yield FetchRequest([page_id])
            child = fetched.get(page_id)
            if child is None:
                # Degraded mode: the subtree is unreachable; its Dmin
                # bounds what might be hiding inside it.
                self.note_unreachable(dmin_sq)
            elif child.is_leaf:
                offer_leaf(query, [child], neighbors)
            else:
                yield from self._visit(child, neighbors)
