"""The SS-tree access method (White & Jain, ICDE 1996).

The paper lists "the application of the algorithm on other access
methods for similarity search, like SS-tree, SR-tree, TV-tree and
X-tree" as future work.  This module provides the SS-tree: a height-
balanced tree whose nodes are bounded by **spheres** (centroid +
radius) rather than rectangles.  Spheres suit similarity search because
they match the query geometry, at the cost of more mutual overlap.

The SS-tree is the R*-tree's skeleton with another region and another
split.  :class:`SSNode` is a :class:`~repro.rtree.node.Node` whose
``mbr`` holds a :class:`~repro.geometry.sphere.Sphere` and whose
branches are row-aligned ``(centres, radii)`` arrays, which the
``sphere`` kernels of :mod:`repro.core.regions` score; :class:`SSTree`
is a :class:`~repro.rtree.tree.PagedTree`, with the R*-tree's page
table, structural hooks and split wiring; :class:`ParallelSSTree` is a
:class:`~repro.parallel.tree.DeclusteredTree`, placed by the R*-tree's
hooks.  So the four search algorithms of :mod:`repro.core` run over it
through the identical fetch protocol.

Insertion follows White & Jain: descend toward the child whose centroid
is nearest the new point; split an overflowing node along the
coordinate of highest centroid variance, at the index minimizing the
summed group variance.  The SR-tree (:mod:`repro.extensions.srtree`)
is this tree with a different node region.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.regions import KERNELS
from repro.geometry.point import Point, squared_euclidean, validate_point
from repro.geometry.sphere import Sphere
from repro.parallel.tree import DeclusteredTree
from repro.perf import kernels
from repro.rtree.node import LeafEntry, Node
from repro.rtree.tree import PagedTree

Entry = Union[LeafEntry, "SSNode"]


def _entry_centroid(entry: Entry) -> Point:
    return entry.point if isinstance(entry, LeafEntry) else entry.mbr.center


def _entry_count(entry: Entry) -> int:
    return 1 if isinstance(entry, LeafEntry) else entry.object_count


def _entry_radius(entry: Entry) -> float:
    return 0.0 if isinstance(entry, LeafEntry) else entry.mbr.radius


class SSNode(Node):
    """One SS-tree node (= one disk page), bounded by a sphere.

    An R*-tree :class:`~repro.rtree.node.Node` whose ``mbr`` holds a
    :class:`Sphere`; only the region and its row arrays differ.
    """

    __slots__ = ()

    region_family = "sphere"

    def refresh(self) -> None:
        """Recompute the bounding sphere and subtree object count.

        The centroid is the object-count-weighted mean of the entry
        centroids (so it tracks the true data centroid); the radius is
        the smallest value covering every entry's sphere around it.  The
        parent's cached arrays hold this node's row, so they are dropped.
        """
        if self.parent is not None:
            self.parent._bounds = None
        if not self.entries:
            self.mbr = None
            self.object_count = 0
            return
        total = sum(_entry_count(e) for e in self.entries)
        dims = len(_entry_centroid(self.entries[0]))
        centroid = [0.0] * dims
        for entry in self.entries:
            weight = _entry_count(entry) / total
            for i, c in enumerate(_entry_centroid(entry)):
                centroid[i] += weight * c
        center = tuple(centroid)
        radius = 0.0
        for entry in self.entries:
            reach = (
                math.sqrt(squared_euclidean(center, _entry_centroid(entry)))
                + _entry_radius(entry)
            )
            if reach > radius:
                radius = reach
        self.mbr = Sphere(center, radius)
        self.object_count = total

    def build_bounds(self) -> Tuple[np.ndarray, ...]:
        """Fresh ``(centres, radii)`` arrays, uncached."""
        centers = np.array(
            [_entry_centroid(e) for e in self.entries], dtype=np.float64
        )
        radii = np.array(
            [_entry_radius(e) for e in self.entries], dtype=np.float64
        )
        return centers, radii


class SSTree(PagedTree):
    """A dynamic SS-tree over n-dimensional points.

    :param dims: dimensionality of the indexed points.
    :param max_entries: fan-out M.
    :param min_entries: minimum fill (default 40 % of M).
    :param on_split: hook ``(old_node, new_node)`` after a split.
    :param on_new_root: hook ``(root)`` when the root changes.
    """

    node_class = SSNode

    def __init__(
        self,
        dims: int,
        max_entries: int = 20,
        min_entries: Optional[int] = None,
        on_split=None,
        on_new_root=None,
    ):
        super().__init__(dims, max_entries, min_entries, on_split, on_new_root)

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert one data point."""
        entry = LeafEntry(point, oid, self.dims)
        leaf = self._choose_leaf(entry.point)
        leaf.add(entry)
        leaf.refresh_path()
        if len(leaf) > self.max_entries:
            self._split(leaf)
        self.size += 1

    def _choose_leaf(self, point: Point) -> SSNode:
        node = self.root
        while not node.is_leaf:
            node = min(
                node.entries,
                key=lambda child: squared_euclidean(point, child.mbr.center),
            )
        return node

    def _partition(
        self, entries: List[Entry]
    ) -> Tuple[List[Entry], List[Entry]]:
        """White & Jain's split: highest-variance axis, minimal summed
        per-group variance along it."""
        centroids = [_entry_centroid(e) for e in entries]
        axis = max(range(self.dims), key=lambda d: _variance(
            [c[d] for c in centroids]
        ))
        order = sorted(range(len(entries)), key=lambda i: centroids[i][axis])
        values = [centroids[i][axis] for i in order]

        best_index = self.min_entries
        best_score = math.inf
        for split_at in range(
            self.min_entries, len(entries) - self.min_entries + 1
        ):
            score = _variance(values[:split_at]) + _variance(values[split_at:])
            if score < best_score:
                best_score = score
                best_index = split_at
        group1 = [entries[i] for i in order[:best_index]]
        group2 = [entries[i] for i in order[best_index:]]
        return group1, group2

    # -- reference queries -----------------------------------------------------

    def knn(self, point: Sequence[float], k: int) -> List[Tuple[float, Point, int]]:
        """Exact in-memory k-NN (oracle for WOPTSS and tests).

        Best-first; each node's entries are scored in one call of its
        own kernel (``Dmin`` for branches, point distances for data).
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        query = validate_point(point, self.dims)
        counter = itertools.count()
        heap = [(0.0, 0, next(counter), self.root)]
        results: List[Tuple[float, Point, int]] = []
        while heap:
            dist_sq, kind, _, item = heapq.heappop(heap)
            if kind == 1:
                results.append((math.sqrt(dist_sq), item.point, item.oid))
                if len(results) == k:
                    break
                continue
            node: SSNode = item
            if not node.entries:
                continue
            if node.is_leaf:
                distances = kernels.batch_point_distance_sq(
                    query, node.entry_bounds()[0]
                )
                for entry, d in zip(node.entries, distances.tolist()):
                    heapq.heappush(heap, (d, 1, entry.oid, entry))
            else:
                distances = KERNELS[node.region_family, "dmin"](
                    query, *node.entry_bounds()
                )
                for child, d in zip(node.entries, distances.tolist()):
                    heapq.heappush(heap, (d, 0, next(counter), child))
        return results

    def kth_nearest_distance(self, point: Sequence[float], k: int) -> float:
        """Oracle distance ``D_k`` for WOPTSS."""
        results = self.knn(point, k)
        if not results:
            raise ValueError("k-th nearest distance undefined on empty tree")
        return results[-1][0]


def _variance(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    total = 0.0
    for v in values:
        total += v
    mean = total / len(values)
    spread = 0.0
    for v in values:
        spread += (v - mean) ** 2
    return spread / len(values)


class ParallelSSTree(DeclusteredTree):
    """An SS-tree declustered over a disk array.

    The R*-tree's placement, policies included; a geometric policy
    reads the box that bounds each sphere.
    """

    tree_class = SSTree
    cylinder_salt = 0x51C6E5


#: Build a declustered SS-tree by one-by-one insertion.
build_parallel_sstree = ParallelSSTree.build
