"""The parallel (multiplexed) R*-tree.

One R*-tree whose pages are spread over the disks of a RAID-0 array —
the organization of Kamel & Faloutsos that the paper builds on (§2.2).
The tree behaves exactly like an ordinary R*-tree; the only addition is
*placement*: every page is pinned to a disk (chosen by a declustering
policy when the page is created) and to a cylinder on that disk (chosen
uniformly at random, per the paper's §4.1 allocation strategy).

The placement tables are what the simulator consumes: ``disk_of`` routes
each page request to a disk queue, ``cylinder_of`` feeds the seek-time
model.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.parallel.declustering import (
    DeclusteringPolicy,
    PlacementContext,
    ProximityIndex,
)
from repro.rtree.node import Node
from repro.rtree.flat import kth_nearest_over_leaves
from repro.rtree.query import nodes_intersecting_sphere
from repro.rtree.tree import RStarTree

#: Cylinder count of the paper's HP C2240A disk (Table 2).
DEFAULT_CYLINDERS = 1449


class ParallelRStarTree:
    """An R*-tree declustered over *num_disks* disks.

    :param dims: dimensionality of the indexed points.
    :param num_disks: disks in the array.
    :param policy: declustering heuristic (default: Proximity Index, the
        paper's adopted scheme).
    :param num_cylinders: cylinders per disk, for page→cylinder mapping.
    :param seed: seed for the cylinder assignment (and nothing else).
    :param tree_kwargs: forwarded to :attr:`tree_class`
        (``max_entries``, ``page_size``, ``split_policy``, ...).
    """

    #: The index type the placement hooks are wired into.
    tree_class = RStarTree

    def __init__(
        self,
        dims: int,
        num_disks: int,
        policy: Optional[DeclusteringPolicy] = None,
        num_cylinders: int = DEFAULT_CYLINDERS,
        seed: int = 0,
        **tree_kwargs,
    ):
        if num_disks < 1:
            raise ValueError(f"num_disks must be positive, got {num_disks}")
        if num_cylinders < 1:
            raise ValueError(f"num_cylinders must be positive, got {num_cylinders}")
        self.num_disks = num_disks
        self.num_cylinders = num_cylinders
        self._dims = dims
        self.policy = policy if policy is not None else ProximityIndex()
        self._placement: Dict[int, int] = {}
        self._cylinder: Dict[int, int] = {}
        self._nodes_per_disk = [0] * num_disks
        self._cylinder_rng = random.Random(seed ^ 0x9E3779B9)
        # The RStarTree constructor fires on_new_root for the bootstrap
        # root, so every table above must exist before this line.
        self.tree = self.tree_class(
            dims,
            on_split=self._on_split,
            on_new_root=self._on_new_root,
            on_page_freed=self._on_page_freed,
            **tree_kwargs,
        )

    # -- placement hooks ----------------------------------------------------

    def _on_split(self, old_node: Optional[Node], new_node: Node) -> None:
        self._place(new_node)

    def _on_new_root(self, root: Node) -> None:
        if root.page_id not in self._placement:
            self._place(root)

    def _on_page_freed(self, page_id: int) -> None:
        disk = self._placement.pop(page_id, None)
        if disk is not None:
            self._nodes_per_disk[disk] -= 1
        self._cylinder.pop(page_id, None)

    def _place(self, node: Node) -> None:
        context = self._context_for(node)
        disk = self.policy.choose_disk(context)
        if not 0 <= disk < self.num_disks:
            raise ValueError(
                f"policy {self.policy.name!r} chose invalid disk {disk}"
            )
        self._placement[node.page_id] = disk
        self._nodes_per_disk[disk] += 1
        self._cylinder[node.page_id] = self._cylinder_rng.randrange(
            self.num_cylinders
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
                    siblings.append((sibling.mbr, disk))
        objects = (
            self.objects_per_disk() if self.policy.needs_object_stats
            else [0] * self.num_disks
        )
        areas = (
            self.area_per_disk() if self.policy.needs_area_stats
            else [0.0] * self.num_disks
        )
        rect = node.mbr if node.mbr is not None else Rect.from_point(
            (0.0,) * self._dims
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
        # During bootstrap the first root is placed before self.tree is
        # assigned; there are no pages to sum over yet.
        tree = getattr(self, "tree", None)
        if tree is None:
            return totals
        for page_id, disk in self._placement.items():
            node = tree.pages.get(page_id)
            if node is not None and node.is_leaf:
                totals[disk] += len(node.entries)
        return totals

    def area_per_disk(self) -> List[float]:
        """Total MBR area of the pages resident on each disk."""
        totals = [0.0] * self.num_disks
        tree = getattr(self, "tree", None)
        if tree is None:
            return totals
        for page_id, disk in self._placement.items():
            node = tree.pages.get(page_id)
            if node is not None and node.mbr is not None:
                totals[disk] += node.mbr.area()
        return totals

    def placement_histogram(self) -> Counter:
        """Pages per disk — useful to eyeball declustering balance."""
        return Counter(self._placement.values())

    # -- the interface executors and algorithms consume ----------------------

    @property
    def root_page_id(self) -> int:
        """Page id of the root — where every search starts."""
        return self.tree.root_page_id

    def page(self, page_id: int) -> Node:
        """The node stored on *page_id*."""
        return self.tree.page(page_id)

    def disk_of(self, page_id: int) -> int:
        """The disk hosting *page_id*."""
        return self._placement[page_id]

    def cylinder_of(self, page_id: int) -> int:
        """The cylinder (on its disk) hosting *page_id*."""
        return self._cylinder[page_id]

    # -- delegation to the underlying tree ------------------------------------

    @property
    def dims(self) -> int:
        """Dimensionality of the indexed points."""
        return self._dims

    @property
    def height(self) -> int:
        """Tree height (levels)."""
        return self.tree.height

    def __len__(self) -> int:
        return len(self.tree)

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert one data point (may trigger splits and placements)."""
        self.tree.insert(point, oid)

    def delete(self, point: Sequence[float], oid: int) -> bool:
        """Delete one data point; frees pages condensed away."""
        return self.tree.delete(point, oid)

    def knn(self, point: Sequence[float], k: int):
        """In-memory exact k-NN (oracle/reference; no disk accounting)."""
        return self.tree.knn(point, k)

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
            shape = (len(leaves), self._dims)
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

    def optimal_page_set(self, point: Sequence[float], k: int):
        """Page ids a weak-optimal search would fetch (Definition 6)."""
        dk = self.kth_nearest_distance(point, k)
        return nodes_intersecting_sphere(self.tree, tuple(point), dk)


def build_parallel_tree(
    data: Iterable[Sequence[float]],
    dims: int,
    num_disks: int,
    policy: Optional[DeclusteringPolicy] = None,
    seed: int = 0,
    **tree_kwargs,
) -> ParallelRStarTree:
    """Build a declustered R*-tree by inserting *data* one point at a time.

    Points receive sequential object ids starting at 0 — the incremental
    construction the paper uses (§4.1).
    """
    tree = ParallelRStarTree(
        dims, num_disks, policy=policy, seed=seed, **tree_kwargs
    )
    for oid, point in enumerate(data):
        tree.insert(point, oid)
    return tree
