"""The SS-tree access method (White & Jain, ICDE 1996).

The paper lists "the application of the algorithm on other access
methods for similarity search, like SS-tree, SR-tree, TV-tree and
X-tree" as future work.  This module provides the SS-tree: a height-
balanced tree whose nodes are bounded by **spheres** (centroid +
radius) rather than rectangles.  Spheres suit similarity search because
they match the query geometry, at the cost of more mutual overlap.

The implementation mirrors the R*-tree module's shape — same page
table, same structural hooks, same per-branch object counts — so the
four search algorithms of :mod:`repro.core` run over it through the
identical fetch protocol.  ``node.mbr`` holds a
:class:`~repro.geometry.sphere.Sphere`; the node exposes its branches as
row-aligned ``(centres, radii)`` arrays (:meth:`SSNode.entry_bounds`),
which the ``sphere`` kernels of :mod:`repro.core.regions` score.

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
import random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.regions import KERNELS
from repro.geometry.point import Point, squared_euclidean, validate_point
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere
from repro.parallel.declustering import PlacementContext, ProximityIndex
from repro.perf import kernels
from repro.rtree.node import LeafEntry, Node, cached_leaf_data
from repro.rtree.placed import PlacedTree

Entry = Union[LeafEntry, "SSNode"]


def _entry_centroid(entry: Entry) -> Point:
    return entry.point if isinstance(entry, LeafEntry) else entry.mbr.center


def _entry_count(entry: Entry) -> int:
    return 1 if isinstance(entry, LeafEntry) else entry.object_count


def _entry_radius(entry: Entry) -> float:
    return 0.0 if isinstance(entry, LeafEntry) else entry.mbr.radius


class SSNode:
    """One SS-tree node (= one disk page), bounded by a sphere.

    The attribute holding the bounding region is called ``mbr``, as on
    an R*-tree node; it holds a :class:`Sphere`.  A scan reads the
    branches as rows, through the same accessors as an R*-tree node.
    """

    __slots__ = ("page_id", "level", "entries", "parent", "mbr",
                 "object_count", "_bounds", "_leaf")

    region_family = "sphere"

    def __init__(self, page_id: int, level: int):
        self.page_id = page_id
        self.level = level
        self.entries: List[Entry] = []
        self.parent: Optional["SSNode"] = None
        self.mbr: Optional[Sphere] = None
        self.object_count = 0
        #: Cached :meth:`build_bounds` arrays; dropped when the entry
        #: list changes or a child's region does (:meth:`refresh`).
        self._bounds: Optional[Tuple[np.ndarray, ...]] = None
        #: Cached :attr:`leaf_data`, dropped when the entry list changes.
        self._leaf: Optional[Tuple[np.ndarray, List[Point]]] = None

    leaf_data = property(cached_leaf_data)
    child_pages = Node.child_pages
    child_counts = Node.child_counts

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes holding data entries."""
        return self.level == 0

    def add(self, entry: Entry) -> None:
        """Append *entry*, wiring parent pointers for child nodes."""
        if isinstance(entry, SSNode):
            entry.parent = self
        self.entries.append(entry)
        self._bounds = self._leaf = None

    def replace_entries(self, entries: Sequence[Entry]) -> None:
        """Replace the whole entry list, wiring parent pointers.

        Same contract as :meth:`repro.rtree.node.Node.replace_entries`:
        bulk rewrites go through here rather than rebinding ``entries``
        directly, so the cached region arrays and leaf data are dropped.
        """
        replacement = list(entries)
        for entry in replacement:
            if isinstance(entry, SSNode):
                entry.parent = self
        self.entries = replacement
        self._bounds = self._leaf = None

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

    def refresh_path(self) -> None:
        """Refresh this node and every ancestor."""
        node: Optional[SSNode] = self
        while node is not None:
            node.refresh()
            node = node.parent

    def entry_bounds(self) -> Tuple[np.ndarray, ...]:
        """The cached row-aligned region arrays of this node's entries.

        Row *i* describes ``entries[i]``; the first array is always the
        ``(n, dims)`` centre matrix, which for a leaf is its point
        matrix (data points are zero-radius spheres).  Treat the arrays
        as read-only.
        """
        if self._bounds is None:
            self._bounds = self.build_bounds()
        return self._bounds

    def build_bounds(self) -> Tuple[np.ndarray, ...]:
        """Fresh ``(centres, radii)`` arrays, uncached."""
        centers = np.array(
            [_entry_centroid(e) for e in self.entries], dtype=np.float64
        )
        radii = np.array(
            [_entry_radius(e) for e in self.entries], dtype=np.float64
        )
        return centers, radii

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return (
            f"{type(self).__name__}(page={self.page_id}, {kind}, "
            f"entries={len(self.entries)})"
        )


class SSTree:
    """A dynamic SS-tree over n-dimensional points.

    :param dims: dimensionality of the indexed points.
    :param max_entries: fan-out M.
    :param min_entries: minimum fill (default 40 % of M).
    :param on_split: hook ``(old_node, new_node)`` after a split.
    :param on_new_root: hook ``(root)`` when the root changes.
    """

    #: The page type; a subclass with another node region sets its own.
    node_class = SSNode

    def __init__(
        self,
        dims: int,
        max_entries: int = 20,
        min_entries: Optional[int] = None,
        on_split: Optional[Callable[[SSNode, SSNode], None]] = None,
        on_new_root: Optional[Callable[[SSNode], None]] = None,
    ):
        if dims < 1:
            raise ValueError(f"dimensionality must be positive, got {dims}")
        if max_entries < 2:
            raise ValueError(f"max_entries must be at least 2, got {max_entries}")
        self.dims = dims
        self.max_entries = max_entries
        if min_entries is not None:
            self.min_entries = min_entries
        else:
            self.min_entries = max(1, int(max_entries * 0.4))
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, {max_entries // 2}], "
                f"got {self.min_entries}"
            )
        self.on_split = on_split
        self.on_new_root = on_new_root
        self.pages: Dict[int, SSNode] = {}
        self._next_page_id = 0
        self.size = 0
        self.root = self._new_node(0)
        if self.on_new_root is not None:
            self.on_new_root(self.root)

    def _new_node(self, level: int) -> SSNode:
        node = self.node_class(self._next_page_id, level)
        self.pages[node.page_id] = node
        self._next_page_id += 1
        return node

    @property
    def root_page_id(self) -> int:
        """Page id of the root — the search entry point."""
        return self.root.page_id

    @property
    def height(self) -> int:
        """Number of levels."""
        return self.root.level + 1

    def page(self, page_id: int) -> SSNode:
        """The node stored on *page_id*."""
        return self.pages[page_id]

    def pages_spanned(self, page_id: int) -> int:
        """Physical pages the node on *page_id* occupies: always one."""
        return 1

    def __len__(self) -> int:
        return self.size

    def iter_points(self) -> Iterator[Tuple[Point, int]]:
        """All stored ``(point, oid)`` pairs."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    yield entry.point, entry.oid
            else:
                stack.extend(node.entries)

    # -- insertion -----------------------------------------------------------

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert one data point."""
        entry = LeafEntry(validate_point(point, self.dims), oid)
        leaf = self._choose_leaf(entry.point)
        leaf.add(entry)
        leaf.refresh_path()
        node = leaf
        while node is not None and len(node) > self.max_entries:
            parent = node.parent
            self._split(node)
            node = parent
        self.size += 1

    def _choose_leaf(self, point: Point) -> SSNode:
        node = self.root
        while not node.is_leaf:
            node = min(
                node.entries,
                key=lambda child: squared_euclidean(point, child.mbr.center),
            )
        return node

    def _split(self, node: SSNode) -> None:
        group1, group2 = self._variance_split(node.entries)
        new_node = self._new_node(node.level)
        node.replace_entries(())
        for entry in group1:
            node.add(entry)
        for entry in group2:
            new_node.add(entry)
        node.refresh()
        new_node.refresh()

        if node is self.root:
            new_root = self._new_node(node.level + 1)
            new_root.add(node)
            new_root.add(new_node)
            new_root.refresh()
            self.root = new_root
            if self.on_split is not None:
                self.on_split(node, new_node)
            if self.on_new_root is not None:
                self.on_new_root(new_root)
            return

        parent = node.parent
        parent.add(new_node)
        parent.refresh_path()
        if self.on_split is not None:
            self.on_split(node, new_node)

    def _variance_split(
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


class ParallelSSTree(PlacedTree):
    """An SS-tree declustered over a disk array.

    Uses the same declustering policies as the parallel R*-tree; for
    geometric policies the region's ``bounding_rect()`` stands in for
    the MBR.
    """

    #: The tree type and the salt of its cylinder RNG; subclasses over
    #: another tree set both.
    tree_class = SSTree
    cylinder_salt = 0x51C6E5

    def __init__(
        self,
        dims: int,
        num_disks: int,
        policy=None,
        num_cylinders: int = 1449,
        seed: int = 0,
        **tree_kwargs,
    ):
        super().__init__(num_disks, num_cylinders)
        self.policy = policy if policy is not None else ProximityIndex()
        self._cylinder_rng = random.Random(seed ^ self.cylinder_salt)
        self.tree = self.tree_class(
            dims, on_split=lambda old, new: self._place(new), **tree_kwargs
        )
        self.tree.on_new_root = self._on_new_root
        self._place(self.tree.root)

    def _on_new_root(self, root: SSNode) -> None:
        if root.page_id not in self._placement:
            self._place(root)

    def _place(self, node: SSNode) -> None:
        siblings = []
        if node.parent is not None:
            for sibling in node.parent.entries:
                if sibling is node or sibling.mbr is None:
                    continue
                disk = self._placement.get(sibling.page_id)
                if disk is not None:
                    siblings.append((sibling.mbr.bounding_rect(), disk))
        rect = (
            node.mbr.bounding_rect()
            if node.mbr is not None
            else Rect.from_point((0.0,) * self.dims)
        )
        context = PlacementContext(
            rect=rect,
            siblings=siblings,
            num_disks=self.num_disks,
            nodes_per_disk=list(self._nodes_per_disk),
            objects_per_disk=[0] * self.num_disks,
            area_per_disk=[0.0] * self.num_disks,
        )
        self.place_page(
            node.page_id,
            self.policy.choose_disk(context),
            self._cylinder_rng.randrange(self.num_cylinders),
        )

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert one data point."""
        self.tree.insert(point, oid)


def build_parallel_sstree(
    data, dims: int, num_disks: int, seed: int = 0, **tree_kwargs
) -> ParallelSSTree:
    """Build a declustered SS-tree by one-by-one insertion."""
    tree = ParallelSSTree(dims, num_disks, seed=seed, **tree_kwargs)
    for oid, point in enumerate(data):
        tree.insert(point, oid)
    return tree
