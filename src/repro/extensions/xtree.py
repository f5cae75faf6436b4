"""The X-tree access method (Berchtold, Keim & Kriegel, VLDB 1996).

Another of the paper's future-work access methods (§5).  The X-tree is
an R*-tree that refuses to perform *bad* splits: when every candidate
split of an overflowing directory node would leave the two halves
heavily overlapping (which in high dimension makes both halves be
searched anyway), the node is instead extended into a **supernode**
spanning several disk pages, read sequentially in one access.

This implementation subclasses :class:`~repro.rtree.tree.RStarTree`:

* leaf splits behave exactly as in the R*-tree;
* a directory split is evaluated first — if the resulting groups'
  MBR overlap exceeds ``max_overlap`` (the X-tree paper's MAX_OVERLAP,
  default 20 %), the node's capacity is extended by one page's worth of
  entries instead;
* supernodes honestly cost more I/O: the tree reports how many pages
  each node spans (``pages_spanned``, which the placed tree's read
  surface hands on, and a freeze keeps), and both executors charge
  accordingly (one seek + several sequential transfers).
"""

from __future__ import annotations

import math
from typing import Dict

from repro.geometry.rect import Rect
from repro.parallel.tree import ParallelRStarTree
from repro.rtree.node import Node
from repro.rtree.tree import RStarTree, _entry_rect


class XTree(RStarTree):
    """An R*-tree with supernodes for overlap-free directories.

    :param max_overlap: a directory split whose two groups would overlap
        more than this fraction of their combined area is rejected and
        the node becomes (or grows as) a supernode.
    :param max_supernode_pages: safety cap on supernode size.
    :param kwargs: everything :class:`RStarTree` accepts.
    """

    def __init__(
        self,
        dims: int,
        max_overlap: float = 0.2,
        max_supernode_pages: int = 8,
        **kwargs,
    ):
        if not 0.0 <= max_overlap <= 1.0:
            raise ValueError(f"max_overlap must be in [0, 1], got {max_overlap}")
        if max_supernode_pages < 1:
            raise ValueError(
                f"max_supernode_pages must be positive, got {max_supernode_pages}"
            )
        self.max_overlap = max_overlap
        self.max_supernode_pages = max_supernode_pages
        #: page id -> capacity in entries (only supernodes appear here).
        self._supernode_capacity: Dict[int, int] = {}
        super().__init__(dims, **kwargs)

    def node_capacity(self, node: Node) -> int:
        return self._supernode_capacity.get(node.page_id, self.max_entries)

    def pages_spanned(self, page_id: int) -> int:
        """Physical pages the node on *page_id* occupies (≥ 1)."""
        capacity = self._supernode_capacity.get(page_id)
        if capacity is None:
            return 1
        return math.ceil(capacity / self.max_entries)

    def is_supernode(self, page_id: int) -> bool:
        """True if *page_id* holds a supernode."""
        return page_id in self._supernode_capacity

    def _split(self, node: Node) -> None:
        # Leaves split normally — the X-tree's supernodes exist to keep
        # the *directory* overlap-free.
        if node.is_leaf:
            super()._split(node)
            return

        group1, group2 = self._partition(node.entries)
        bb1 = Rect.union_of(map(_entry_rect, group1))
        bb2 = Rect.union_of(map(_entry_rect, group2))
        union_area = bb1.union(bb2).area()
        overlap_ratio = (
            bb1.intersection_area(bb2) / union_area if union_area > 0 else 1.0
        )
        spanned = self.pages_spanned(node.page_id)
        if (
            overlap_ratio > self.max_overlap
            and spanned < self.max_supernode_pages
        ):
            # Bad split: extend the node into / as a supernode instead.
            self._supernode_capacity[node.page_id] = (
                self.node_capacity(node) + self.max_entries
            )
            return
        super()._split(node)

    def _free_node(self, node: Node) -> None:
        self._supernode_capacity.pop(node.page_id, None)
        super()._free_node(node)

    def supernode_count(self) -> int:
        """Number of live supernodes (a high-dimension health metric)."""
        return sum(
            1 for page_id in self._supernode_capacity if page_id in self.pages
        )


class ParallelXTree(ParallelRStarTree):
    """An X-tree declustered over a disk array.

    Identical to :class:`~repro.parallel.tree.ParallelRStarTree` except
    the underlying index is an :class:`XTree` (``max_overlap`` and
    ``max_supernode_pages`` go to it with the other tree keywords),
    whose supernode spans the read surface reports.
    """

    tree_class = XTree


#: Build a declustered X-tree by one-by-one insertion.
build_parallel_xtree = ParallelXTree.build
