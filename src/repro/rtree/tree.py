"""The dynamic R*-tree.

Trees are built exactly the way the paper builds them (§4.1): objects are
inserted one by one, so the node layout reflects a dynamic environment
rather than a bulk-loading pass.  Structural hooks (``on_split``,
``on_new_root``, ``on_page_freed``) let the :mod:`repro.parallel` layer
assign every newly created page to a disk and a cylinder without this
module knowing anything about disk arrays.  The page table, the hooks
and the split wiring are :class:`PagedTree`'s, which the SS- and
SR-trees of :mod:`repro.extensions` share.

ChooseSubtree scores all children of a node at once with the exact batch
kernels of :mod:`repro.perf.kernels`, over the corner matrices the nodes
cache and patch in place (:meth:`repro.rtree.node.Node.entry_bounds`).
The kernels repeat the :class:`~repro.geometry.rect.Rect` arithmetic
operation for operation and this module keeps the order in which ties
fall, so the tree is the one the scalar loops built, bit for bit —
``tests/rtree/test_structure_golden.py`` pins it and
``tests/rtree/oracle.py`` keeps the loops to test against.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry.point import Point, validate_point
from repro.geometry.rect import Rect
from repro.perf import kernels
from repro.rtree.capacity import capacity_for_page
from repro.rtree.node import LeafEntry, Node
from repro.rtree.split import RStarSplit, SplitPolicy

Entry = Union[LeafEntry, Node]

#: R*-tree default: reinsert the 30% of entries farthest from the center.
DEFAULT_REINSERT_FRACTION = 0.3

#: R*-tree default minimum node fill as a fraction of the maximum.
DEFAULT_MIN_FILL_FRACTION = 0.4

#: ChooseSubtree scores overlap enlargement, quadratic in the fan-out,
#: for this many children of least area enlargement only (R* paper §4.1).
OVERLAP_CANDIDATES = 32


def _entry_rect(entry: Entry) -> Rect:
    return entry.rect if isinstance(entry, LeafEntry) else entry.mbr


class PagedTree:
    """A height-balanced tree of pages: the skeleton every index shares.

    It holds the page table (page id → node, nodes made from
    :attr:`node_class`), the fan-out, the structural hooks and the
    split that divides an overflowing node in two.  A subclass brings
    the node region (its :attr:`node_class`), where an entry goes and
    how the entries of a full node are partitioned (:meth:`_partition`).

    :param dims: dimensionality of the indexed points.
    :param max_entries: fan-out M.
    :param min_entries: minimum fill m (default 40 % of M, the R* choice).
    :param on_split: callback ``(old_node, new_node)`` fired after a node
        split, once the new node is wired into its parent.
    :param on_new_root: callback ``(root)`` fired whenever the tree grows
        (or shrinks to) a new root node.
    :param on_page_freed: callback ``(page_id)`` fired when a node is
        deallocated (condensed away or replaced as root).
    """

    #: The page type; a subclass with another node region sets its own.
    node_class = Node

    def __init__(
        self,
        dims: int,
        max_entries: int,
        min_entries: Optional[int] = None,
        on_split: Optional[Callable[[Node, Node], None]] = None,
        on_new_root: Optional[Callable[[Node], None]] = None,
        on_page_freed: Optional[Callable[[int], None]] = None,
    ):
        if dims < 1:
            raise ValueError(f"dimensionality must be positive, got {dims}")
        self.dims = dims
        self.max_entries = max_entries
        if self.max_entries < 2:
            raise ValueError(f"max_entries must be at least 2, got {self.max_entries}")
        if min_entries is not None:
            self.min_entries = min_entries
        else:
            self.min_entries = max(
                1, int(math.floor(self.max_entries * DEFAULT_MIN_FILL_FRACTION))
            )
        if not 1 <= self.min_entries <= self.max_entries // 2:
            raise ValueError(
                f"min_entries must be in [1, {self.max_entries // 2}], "
                f"got {self.min_entries}"
            )
        self.on_split = on_split
        self.on_new_root = on_new_root
        self.on_page_freed = on_page_freed

        self.pages: Dict[int, Node] = {}
        self._next_page_id = 0
        self.size = 0
        self.root = self._new_node(level=0)
        if self.on_new_root is not None:
            self.on_new_root(self.root)

    # -- page bookkeeping --------------------------------------------------

    def _new_node(self, level: int) -> Node:
        node = self.node_class(self._next_page_id, level)
        self.pages[node.page_id] = node
        self._next_page_id += 1
        return node

    def _free_node(self, node: Node) -> None:
        del self.pages[node.page_id]
        if self.on_page_freed is not None:
            self.on_page_freed(node.page_id)

    def page(self, page_id: int) -> Node:
        """The node stored on page *page_id* (KeyError if deallocated)."""
        return self.pages[page_id]

    def pages_spanned(self, page_id: int) -> int:
        """Physical pages the node on *page_id* occupies (the X-tree's vary)."""
        return 1

    @property
    def root_page_id(self) -> int:
        """Page id of the root node — the entry point of every search."""
        return self.root.page_id

    @property
    def height(self) -> int:
        """Number of levels; a sole (leaf) root gives height 1."""
        return self.root.level + 1

    def __len__(self) -> int:
        return self.size

    def iter_nodes(self) -> Iterator[Node]:
        """All live nodes, in no particular order."""
        return iter(self.pages.values())

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

    # -- overflow ------------------------------------------------------------

    def node_capacity(self, node: Node) -> int:
        """Maximum entries *node* may hold before overflow treatment.

        Uniformly ``max_entries`` here; the X-tree extension overrides
        this to give supernodes enlarged capacities.
        """
        return self.max_entries

    def _overflow(self, node: Node) -> None:
        """Treat an overfull *node*: split it (the R*-tree reinserts first)."""
        self._split(node)

    def _partition(self, entries: List[Entry]) -> Tuple[List[Entry], List[Entry]]:
        """The two groups an overflowing node's *entries* divide into."""
        raise NotImplementedError

    def _split(self, node: Node) -> None:
        """Divide *node* per :meth:`_partition`; a split root grows a new
        root, any other node hands its parent the new sibling and the
        parent's own overflow is treated in turn."""
        group1, group2 = self._partition(node.entries)
        new_node = self._new_node(node.level)
        node.replace_entries(group1)
        new_node.replace_entries(group2)
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
        if len(parent) > self.node_capacity(parent):
            self._overflow(parent)


class RStarTree(PagedTree):
    """A height-balanced R*-tree over n-dimensional point data.

    :param dims: dimensionality of the indexed points.
    :param max_entries: fan-out M; if omitted it is derived from
        *page_size* via :func:`~repro.rtree.capacity.capacity_for_page`.
    :param min_entries: minimum fill m (default 40 % of M, the R* choice).
    :param page_size: disk page size in bytes; one node occupies one page.
    :param split_policy: node split strategy (default: the R* topological
        split).
    :param reinsert_fraction: share of entries evicted on forced reinsert.
    :param on_split: see :class:`PagedTree`, as are *on_new_root* and
        *on_page_freed*.
    """

    def __init__(
        self,
        dims: int,
        max_entries: Optional[int] = None,
        min_entries: Optional[int] = None,
        page_size: int = 4096,
        split_policy: Optional[SplitPolicy] = None,
        reinsert_fraction: float = DEFAULT_REINSERT_FRACTION,
        on_split: Optional[Callable[[Node, Node], None]] = None,
        on_new_root: Optional[Callable[[Node], None]] = None,
        on_page_freed: Optional[Callable[[int], None]] = None,
    ):
        if not 0.0 < reinsert_fraction < 1.0:
            raise ValueError(
                f"reinsert_fraction must be in (0, 1), got {reinsert_fraction}"
            )
        self.page_size = page_size
        self.split_policy = split_policy if split_policy is not None else RStarSplit()
        self.reinsert_fraction = reinsert_fraction
        # Levels already treated by forced reinsertion during the current
        # top-level insert (forced reinsertion fires once per level).
        self._reinserted_levels: set = set()
        if max_entries is None:
            # Raises the dimensionality check's message for dims < 1.
            max_entries = capacity_for_page(page_size, dims)
        super().__init__(
            dims, max_entries, min_entries, on_split, on_new_root, on_page_freed
        )

    # -- insertion ---------------------------------------------------------

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert one data point with object identifier *oid*."""
        entry = LeafEntry(point, oid, self.dims)
        self._reinserted_levels = set()
        self._insert(entry, holder_level=0)
        self.size += 1

    def _insert(self, entry: Entry, holder_level: int) -> None:
        """Place *entry* into some node at *holder_level* (R* Insert)."""
        rect = _entry_rect(entry)
        node = self._choose_subtree(rect, holder_level)
        node.add(entry)
        added = 1 if isinstance(entry, LeafEntry) else entry.object_count
        node.extend_path(rect, added)
        if len(node) > self.node_capacity(node):
            self._overflow(node)

    def _choose_subtree(self, rect: Rect, holder_level: int) -> Node:
        """R* ChooseSubtree: descend from the root to *holder_level*.

        *rect*'s corners become float64 arrays once, for every level.
        """
        node = self.root
        if node.level <= holder_level:
            return node
        low = np.array(rect.low)
        high = np.array(rect.high)
        while node.level > holder_level:
            if node.level == 1:
                node = self._pick_leaf_child(node, rect, low, high)
            else:
                node = self._pick_internal_child(node, rect, low, high)
        return node

    @staticmethod
    def _score_children(node: Node, low: np.ndarray, high: np.ndarray):
        """The node's cached bounds and its children's area enlargements.

        *low* / *high* are the new box's corners as arrays.  The
        children's areas are folded on the node's first descent and
        cached beside its matrices (:class:`~repro.rtree.node.EntryBounds`).
        """
        bounds = node.entry_bounds()
        lows, highs = bounds
        enlargement, bounds.areas = kernels.batch_enlargement(
            low, high, lows, highs, bounds.areas
        )
        return bounds, enlargement

    @staticmethod
    def _least_child(bounds, enlargement: np.ndarray) -> int:
        """The child of least (area enlargement, area), ties in entry order.

        That is ``np.lexsort((areas, enlargement))[0]`` without the sort:
        the first minimum of the enlargement along the children in
        stable area order, which the node caches until an area changes.
        """
        by_area = bounds.by_area
        if by_area is None:
            by_area = bounds.by_area = bounds.areas.argsort(kind="stable")
        return by_area[enlargement[by_area].argmin()]

    @staticmethod
    def _pick_internal_child(
        node: Node, rect: Rect, low: np.ndarray, high: np.ndarray
    ) -> Node:
        """Least area enlargement, ties by least area, then entry order."""
        bounds, enlargement = RStarTree._score_children(node, low, high)
        return node.entries[RStarTree._least_child(bounds, enlargement)]

    @staticmethod
    def _pick_leaf_child(
        node: Node, rect: Rect, low: np.ndarray, high: np.ndarray
    ) -> Node:
        """Least *overlap* enlargement among the children (R* rule).

        Overlap enlargement is O(fan-out^2); per the R* paper the
        quadratic part is restricted to the :data:`OVERLAP_CANDIDATES`
        children with least area enlargement (ties by area, then entry
        order; ``lexsort`` is stable, like ``sorted``).  The winner is
        the first candidate, in that order, with the least
        ``(overlap enlargement, area enlargement, area)``; the candidates
        being sorted by the last two already, that is simply the first
        minimum of the overlap enlargement.

        *Containment exit.*  A candidate whose box contains *rect* does
        not grow, so its overlap with every sibling is unchanged and its
        overlap enlargement is exactly ``0.0``.  No candidate scores
        below zero (see below), so when the **first** candidate contains
        *rect* it wins outright and the quadratic part is skipped.  The
        test is on corners: ``enlargement == 0.0`` also holds for a box
        so large that the growth is lost to rounding, and such a box's
        overlap does change.

        *Overlap enlargement.*  Per candidate, the sum over its siblings
        of ``overlap(grown candidate, sibling) - overlap(candidate,
        sibling)``, added strictly in entry order (``add.accumulate``,
        never a pairwise ``sum``).  Every term is ``>= 0``: the grown box
        contains the candidate, each side of the first overlap is
        therefore no shorter than the same side of the second, and
        rounding is monotone through the subtractions and products; the
        candidate's own column is its area minus its area, exactly
        ``0.0``.  Partial sums never exceed the full sum, which is why
        summing every row in full picks the same child as a scalar loop
        that abandons a candidate once its partial sum passes the best
        so far.
        """
        children: List[Node] = node.entries
        bounds, enlargement = RStarTree._score_children(node, low, high)
        first = children[RStarTree._least_child(bounds, enlargement)]
        if first.mbr.contains_rect(rect):
            return first
        lows, highs = bounds
        order = np.lexsort((bounds.areas, enlargement))
        candidates = order[:OVERLAP_CANDIDATES]
        count = len(candidates)
        # Axis-major copies for the overlap kernel; the candidates and
        # then their grown twins go through it in one call.
        sibling_lows = np.ascontiguousarray(lows.T)
        sibling_highs = np.ascontiguousarray(highs.T)
        twice = np.concatenate((candidates, candidates))
        pair_lows = sibling_lows[:, twice]
        pair_highs = sibling_highs[:, twice]
        grown_lows = pair_lows[:, count:]
        grown_highs = pair_highs[:, count:]
        np.minimum(grown_lows, low[:, None], out=grown_lows)
        np.maximum(grown_highs, high[:, None], out=grown_highs)
        overlap = kernels.batch_intersection_area(
            pair_lows, pair_highs, sibling_lows, sibling_highs
        )
        delta = np.add.accumulate(overlap[count:] - overlap[:count], axis=1)
        return children[candidates[delta[:, -1].argmin()]]

    def _overflow(self, node: Node) -> None:
        """R* OverflowTreatment: reinsert once per level, else split."""
        if node is not self.root and node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._forced_reinsert(node)
        else:
            self._split(node)

    def _forced_reinsert(self, node: Node) -> None:
        """Evict the farthest entries and insert them again (R* §4.3).

        The key is the squared distance between the entry's centre,
        ``(lo + hi) / 2.0`` read off its corners, and the node's, summed
        axis by axis in scalar code: ``** 2`` is libm ``pow``, which a
        numpy square need not match in the last bit.
        """
        count = max(1, int(round(len(node.entries) * self.reinsert_fraction)))
        center = node.mbr.center

        def distance_from_center(entry: Entry) -> float:
            rect = _entry_rect(entry)
            total = 0.0
            for lo, hi, c in zip(rect.low, rect.high, center):
                total += ((lo + hi) / 2.0 - c) ** 2
            return total

        ordered = sorted(node.entries, key=distance_from_center, reverse=True)
        evicted = ordered[:count]
        node.replace_entries(ordered[count:])
        node.refresh_path()
        holder_level = node.level
        # "Close reinsert": start with the entry nearest the center, which
        # the R* evaluation found to perform best.
        for entry in reversed(evicted):
            self._insert(entry, holder_level)

    def _partition(self, entries: List[Entry]) -> Tuple[List[Entry], List[Entry]]:
        return self.split_policy.split(entries, self.min_entries, _entry_rect)

    # -- deletion ----------------------------------------------------------

    def delete(self, point: Sequence[float], oid: int) -> bool:
        """Remove the entry for (*point*, *oid*); True if it was found."""
        target = validate_point(point, self.dims)
        found = self._find_leaf(self.root, target, oid)
        if found is None:
            return False
        leaf, index = found
        leaf.discard(index)
        leaf.refresh_path()
        self.size -= 1
        self._condense(leaf)
        self._shrink_root()
        return True

    def _find_leaf(
        self, node: Node, point: Point, oid: int
    ) -> Optional[Tuple[Node, int]]:
        if node.is_leaf:
            for index, entry in enumerate(node.entries):
                if entry.oid == oid and entry.point == point:
                    return node, index
            return None
        for child in node.entries:
            if child.mbr is not None and child.mbr.contains_point(point):
                found = self._find_leaf(child, point, oid)
                if found is not None:
                    return found
        return None

    def _condense(self, node: Node) -> None:
        """Remove under-full ancestors and reinsert their orphans."""
        orphans: List[Tuple[Entry, int]] = []  # (entry, holder_level)
        current = node
        while current is not self.root:
            parent = current.parent
            if len(current) < self.min_entries:
                parent.discard(parent.entries.index(current))
                holder_level = current.level
                for entry in current.entries:
                    orphans.append((entry, holder_level))
                self._free_node(current)
                parent.refresh_path()
            else:
                current.refresh_path()
            current = parent
        # Reinsert orphans top-down (higher levels first) so subtree
        # reinsertion happens into a tree of adequate height.
        self._reinserted_levels = set()
        for entry, holder_level in sorted(
            orphans, key=lambda pair: pair[1], reverse=True
        ):
            self._insert(entry, holder_level)

    def _shrink_root(self) -> None:
        while not self.root.is_leaf and len(self.root) == 1:
            old_root = self.root
            self.root = old_root.entries[0]
            self.root.parent = None
            self._free_node(old_root)
            if self.on_new_root is not None:
                self.on_new_root(self.root)

    # -- in-memory queries (reference implementations) ----------------------

    def range_query(self, rect: Rect) -> List[Tuple[Point, int]]:
        """All ``(point, oid)`` with the point inside *rect*."""
        from repro.rtree.query import range_query

        return range_query(self, rect)

    def knn(self, point: Sequence[float], k: int) -> List[Tuple[float, Point, int]]:
        """Exact k nearest neighbors as ``(distance, point, oid)`` triples.

        This is the in-memory best-first reference used to validate the
        disk-array algorithms and to give WOPTSS its oracle distance.
        """
        from repro.rtree.query import knn

        return knn(self, validate_point(point, self.dims), k)
