"""The parallel (multiplexed) R*-tree.

One R*-tree whose pages are spread over the disks of a RAID-0 array —
the organization of Kamel & Faloutsos that the paper builds on (§2.2).
The tree behaves exactly like an ordinary R*-tree; the only addition is
*placement*: every page is pinned to a disk (chosen by a declustering
policy when the page is created) and to a cylinder on that disk (chosen
uniformly at random, per the paper's §4.1 allocation strategy).

The placement tables and the read surface the simulator consumes
(``disk_of`` routes each page request to a disk queue, ``cylinder_of``
feeds the seek-time model) are :class:`~repro.rtree.placed.PlacedTree`'s;
:class:`DeclusteredTree` adds the declustering that fills them for any
dynamic index — the R*- and X-trees here, the SS- and SR-trees in
:mod:`repro.extensions` — and :class:`ParallelRStarTree` the R*-tree's
deletes and oracle ``D_k``.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rect import Rect
from repro.parallel.declustering import (
    DeclusteringPolicy,
    PlacementContext,
    ProximityIndex,
)
from repro.rtree.node import Node
from repro.rtree.flat import kth_nearest_over_leaves
from repro.rtree.placed import PlacedTree
from repro.rtree.tree import PagedTree, RStarTree

#: Cylinder count of the paper's HP C2240A disk (Table 2).
DEFAULT_CYLINDERS = 1449


class DeclusteredTree(PlacedTree):
    """A dynamic index declustered over *num_disks* disks.

    The index is a :attr:`tree_class`; its structural hooks place every
    page it creates with the declustering *policy*.  A node's region
    stands in for it through ``bounding_rect()``, so the geometric
    policies place sphere- and box-bounded pages alike.

    :param dims: dimensionality of the indexed points.
    :param num_disks: disks in the array.
    :param policy: declustering heuristic (default: Proximity Index, the
        paper's adopted scheme).
    :param num_cylinders: cylinders per disk, for page→cylinder mapping.
    :param seed: seed for the cylinder assignment (and nothing else).
    :param tree_kwargs: forwarded to :attr:`tree_class`
        (``max_entries``, ``page_size``, ``split_policy``, ...).
    """

    #: The index type the placement hooks are wired into, and the salt
    #: of its cylinder RNG; each subclass over another index sets both.
    tree_class: type
    cylinder_salt: int

    def __init__(
        self,
        dims: int,
        num_disks: int,
        policy: Optional[DeclusteringPolicy] = None,
        num_cylinders: int = DEFAULT_CYLINDERS,
        seed: int = 0,
        **tree_kwargs,
    ):
        super().__init__(num_disks, num_cylinders)
        self.policy = policy if policy is not None else ProximityIndex()
        self._cylinder_rng = random.Random(seed ^ self.cylinder_salt)
        self._adopt(self.tree_class(dims, **tree_kwargs))
        self._place(self.tree.root)

    @classmethod
    def build(
        cls, data: Iterable[Sequence[float]], dims: int, num_disks: int,
        **kwargs,
    ):
        """Build the tree by inserting *data* one point at a time.

        Points receive sequential object ids starting at 0 — the
        incremental construction the paper uses (§4.1).  *kwargs* go to
        the constructor (``policy``, ``seed``, the tree's keywords).
        """
        tree = cls(dims, num_disks, **kwargs)
        for oid, point in enumerate(data):
            tree.insert(point, oid)
        return tree

    # -- placement hooks ----------------------------------------------------

    def _adopt(self, tree: PagedTree) -> None:
        """Make *tree* the index and route its page events here."""
        tree.on_split = lambda old, new: self._place(new)
        tree.on_new_root = self._on_new_root
        tree.on_page_freed = self.free_page
        self.tree = tree

    def _on_new_root(self, root: Node) -> None:
        if root.page_id not in self._placement:
            self._place(root)

    def _place(self, node: Node) -> None:
        disk = self.policy.choose_disk(self._context_for(node))
        self.place_page(
            node.page_id, disk, self._cylinder_rng.randrange(self.num_cylinders)
        )

    def _context_for(self, node: Node) -> PlacementContext:
        siblings: List[Tuple[Rect, int]] = []
        parent = node.parent
        if parent is not None:
            for sibling in parent.entries:
                if sibling is node:
                    continue
                disk = self._placement.get(sibling.page_id)
                if disk is not None and sibling.mbr is not None:
                    siblings.append((sibling.mbr.bounding_rect(), disk))
        objects = (
            self.objects_per_disk() if self.policy.needs_object_stats
            else [0] * self.num_disks
        )
        areas = (
            self.area_per_disk() if self.policy.needs_area_stats
            else [0.0] * self.num_disks
        )
        rect = node.mbr.bounding_rect() if node.mbr is not None else (
            Rect.from_point((0.0,) * self.dims)
        )
        return PlacementContext(
            rect=rect,
            siblings=siblings,
            num_disks=self.num_disks,
            nodes_per_disk=list(self._nodes_per_disk),
            objects_per_disk=objects,
            area_per_disk=areas,
        )

    # -- statistics ----------------------------------------------------------

    def objects_per_disk(self) -> List[int]:
        """Data objects stored on each disk (via resident leaf pages)."""
        totals = [0] * self.num_disks
        pages = self.tree.pages
        for page_id, disk in self._placement.items():
            node = pages.get(page_id)
            if node is not None and node.is_leaf:
                totals[disk] += len(node.entries)
        return totals

    def area_per_disk(self) -> List[float]:
        """Total bounding-box area of the pages resident on each disk."""
        totals = [0.0] * self.num_disks
        pages = self.tree.pages
        for page_id, disk in self._placement.items():
            node = pages.get(page_id)
            if node is not None and node.mbr is not None:
                totals[disk] += node.mbr.bounding_rect().area()
        return totals

    def placement_histogram(self) -> Counter:
        """Pages per disk — useful to eyeball declustering balance."""
        return Counter(self._placement.values())

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert one data point (may trigger splits and placements)."""
        self.tree.insert(point, oid)


class ParallelRStarTree(DeclusteredTree):
    """An R*-tree declustered over *num_disks* disks.

    The constructor is :class:`DeclusteredTree`'s; *tree_kwargs* go to
    :class:`~repro.rtree.tree.RStarTree`.
    """

    tree_class = RStarTree
    cylinder_salt = 0x9E3779B9

    def delete(self, point: Sequence[float], oid: int) -> bool:
        """Delete one data point; frees pages condensed away."""
        return self.tree.delete(point, oid)

    def kth_nearest_distance(self, point: Sequence[float], k: int) -> float:
        """Oracle distance ``D_k`` — what WOPTSS assumes known.

        :func:`~repro.rtree.flat.kth_nearest_over_leaves` over the
        leaves' MBR rows and their own point matrices.
        """
        leaves, lows, highs = self._leaf_rows()
        lengths = np.fromiter(
            (len(leaf.entries) for leaf in leaves), dtype=np.int64,
            count=len(leaves),
        )

        def points_of(indices: np.ndarray) -> np.ndarray:
            return np.concatenate(
                [leaves[i].entry_bounds()[0] for i in indices.tolist()]
            )

        return kth_nearest_over_leaves(
            point, k, len(self.tree), lows, highs, lengths, points_of
        )

    def _leaf_rows(self) -> Tuple[List[Node], np.ndarray, np.ndarray]:
        """The leaves in tree order and their MBR corner matrices.

        The rows come from the leaves' parents' cached bounds matrices;
        a one-page tree's root row is its own MBR.
        """
        root = self.tree.root
        if root.is_leaf:
            leaves = [root] if root.entries else []
            shape = (len(leaves), self.dims)
            lows = np.array([leaf.mbr.low for leaf in leaves], np.float64)
            highs = np.array([leaf.mbr.high for leaf in leaves], np.float64)
            return leaves, lows.reshape(shape), highs.reshape(shape)
        parents = [root]
        while parents[0].level > 1:
            parents = [child for node in parents for child in node.entries]
        lows, highs = (
            np.concatenate(column)
            for column in zip(*(node.entry_bounds() for node in parents))
        )
        return [leaf for node in parents for leaf in node.entries], lows, highs


#: Build a declustered R*-tree by inserting *data* one point at a time
#: (:meth:`DeclusteredTree.build`).
build_parallel_tree = ParallelRStarTree.build
