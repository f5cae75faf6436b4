"""Tree nodes and leaf entries.

A node corresponds to exactly one disk page (paper §2.1).  Internal nodes
hold child nodes directly; the child's cached MBR and subtree object count
play the role of the on-disk ``(R, count, child_ptr)`` entry, and a scan
reads those rows as arrays: :meth:`Node.entry_bounds`,
:meth:`Node.child_pages` and :meth:`Node.child_counts`.  Leaf nodes
hold :class:`LeafEntry` records ``(R, object_ptr)`` — for point data the
MBR is degenerate and the raw point is kept alongside for fast distance
computation.
"""

from __future__ import annotations

from operator import lt
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry.point import Point, validate_point
from repro.geometry.rect import Rect


class LeafEntry:
    """A leaf-level entry: the MBR of one data object plus its pointer.

    For the point data sets of the paper the MBR degenerates to the point
    itself; ``point`` stores it unwrapped so distance computations avoid
    re-deriving it from the rectangle.
    """

    __slots__ = ("rect", "point", "oid")

    def __init__(self, point: Sequence[float], oid: int, dims: int = 0):
        """Validate *point* once (*dims*, if non-zero, is required of it)."""
        self.point: Point = validate_point(point, dims)
        # The point is validated, so the degenerate box needs no second look.
        self.rect: Rect = Rect._raw(self.point, self.point)
        self.oid = int(oid)

    def __repr__(self) -> str:
        return f"LeafEntry(oid={self.oid}, point={self.point})"


def build_leaf_data(
    entries: Sequence[LeafEntry],
) -> Tuple[np.ndarray, List[Point]]:
    """Fresh ``(oids, points)`` of data *entries*: an int64 oid vector
    and the entries' own point tuples — what :func:`cached_leaf_data`
    caches and :func:`repro.rtree.validate.check_invariants` audits."""
    oids = np.fromiter(
        (entry.oid for entry in entries), dtype=np.int64, count=len(entries)
    )
    return oids, [entry.point for entry in entries]


def cached_leaf_data(node) -> Optional[Tuple[np.ndarray, List[Point]]]:
    """``(oids, points)`` of a leaf's data entries; ``None`` above level 0.

    The ``leaf_data`` property of pointer and SS-tree nodes, which
    :func:`repro.core.scan.offer_leaf` hands the block offer, so answers
    keep the entries' own point tuples.  Built on the first read and
    dropped with the bounds arrays when the entry list changes; nothing
    runs on insert, split or build.
    """
    if node.level != 0:
        return None
    data = node._leaf
    if data is None:
        data = node._leaf = build_leaf_data(node.entries)
    return data


class EntryBounds(tuple):
    """A node's cached ``(lows, highs)`` corner matrices.

    ChooseSubtree also needs the entries' areas; the first descent
    through a directory node folds them
    (:func:`repro.perf.kernels.batch_enlargement`) and leaves them here
    as :attr:`areas`, row-aligned with the matrices, with the rows in
    area order as :attr:`by_area`.  Riding on the same object, they are
    built with the matrices and dropped with them by whatever drops the
    cache, and a node that never descends (a leaf, a scanned node)
    never holds them.
    """

    #: The entries' areas, ``None`` until a descent folds them.
    areas: Optional[np.ndarray] = None
    #: The rows by ascending area, ties in entry order (a stable
    #: argsort of :attr:`areas`); ``None`` until a descent sorts them
    #: and again once a row's area changes.
    by_area: Optional[np.ndarray] = None


class Node:
    """One R*-tree node (= one disk page).

    ``level`` is 0 for leaves and grows toward the root.  ``entries`` holds
    :class:`LeafEntry` objects at level 0 and child :class:`Node` objects
    above.  ``mbr`` and ``object_count`` are caches refreshed by
    :meth:`refresh` whenever the entry list changes; the tree code is
    responsible for calling it (and :meth:`refresh_path` for ancestors).
    """

    __slots__ = ("page_id", "level", "entries", "parent", "mbr",
                 "object_count", "_bounds", "_leaf")

    #: Key of the branch-bound kernels in :data:`repro.core.regions.KERNELS`.
    region_family = "rect"

    def __init__(self, page_id: int, level: int):
        self.page_id = page_id
        self.level = level
        self.entries: List[Union[LeafEntry, "Node"]] = []
        self.parent: Optional["Node"] = None
        self.mbr: Optional[Rect] = None
        self.object_count = 0
        #: Cached (lows, highs) float64 matrices over the entries' MBRs
        #: (an :class:`EntryBounds`, with the entries' areas once a
        #: descent has folded them), feeding the batch kernels in
        #: :mod:`repro.perf.kernels`; row *i* is ``entries[i]``.
        #: Dropped only when the entry *list* changes (:meth:`add`,
        #: :meth:`discard`, :meth:`replace_entries`); a child whose MBR
        #: changes rewrites its own row in place (:meth:`refresh`,
        #: :meth:`extend_path`).
        self._bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Cached :attr:`leaf_data`, dropped with :attr:`_bounds`.
        self._leaf: Optional[Tuple[np.ndarray, List[Point]]] = None

    leaf_data = property(cached_leaf_data)

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes, which store data entries."""
        return self.level == 0

    def refresh(self) -> None:
        """Recompute the cached MBR and subtree object count from entries.

        The new MBR is written into this node's row of the parent's
        bounds matrices.  This node's own matrices are left alone: they
        follow the entry list, whose mutators drop them.
        """
        if not self.entries:
            self.mbr = None
            self.object_count = 0
        else:
            rects = [
                e.rect if isinstance(e, LeafEntry) else e.mbr
                for e in self.entries
            ]
            present = [r for r in rects if r is not None]
            self.mbr = Rect.union_of(present) if present else None
            if self.is_leaf:
                self.object_count = len(self.entries)
            else:
                self.object_count = sum(
                    child.object_count for child in self.entries
                )
        self._sync_parent_row()

    def _sync_parent_row(self) -> None:
        """Write this node's MBR into its row of the parent's matrices.

        In place, so the parent's cache stays warm across inserts: row
        *i* of a node's matrices *is* entry *i*, and a child that grows
        rewrites one row instead of invalidating the structure.  The
        parent's cached areas, if a descent folded them, get this row's
        :meth:`Rect.area`, whose ``1.0 * s0 * s1 ...`` is the kernel's
        ``s0 * s1 ...`` bit for bit, and their order is dropped.  A
        child without an MBR has no matrix form; the parent's cache is
        dropped then, as :meth:`entry_bounds` would refuse to build it.
        """
        parent = self.parent
        if parent is None or parent._bounds is None:
            return
        if self.mbr is None:
            parent._bounds = None
            return
        bounds = parent._bounds
        lows, highs = bounds
        row = parent.entries.index(self)
        lows[row] = self.mbr.low
        highs[row] = self.mbr.high
        if bounds.areas is not None:
            bounds.areas[row] = self.mbr.area()
            bounds.by_area = None

    def refresh_path(self) -> None:
        """Refresh this node and every ancestor up to the root."""
        node: Optional[Node] = self
        while node is not None:
            node.refresh()
            node = node.parent

    def extend_path(self, rect: Rect, added_objects: int) -> None:
        """Incrementally grow caches after appending one entry.

        Cheaper than :meth:`refresh_path` — O(height · dims) instead of
        O(height · fan-out · dims) — and exact for pure additions: the
        MBR can only grow and the count only increases.  Callers removing
        or replacing entries must use :meth:`refresh_path` instead.

        A level whose box holds *rect* strictly inside, on every axis,
        keeps its box: :meth:`Rect.union` meets no tie there and would
        return the old corners, and every ancestor's box holds that box,
        so *rect* is strictly inside those too.  From there up only the
        counts change.  Any other level is unioned with *rect*:
        :meth:`Rect.union` takes its argument's value on a tie, so a
        ``-0.0`` coordinate replaces a ``0.0`` corner all the way up.
        Only a box whose *values* changed rewrites its row of the
        parent's bounds matrices.
        """
        node: Optional[Node] = self
        while node is not None:
            old = node.mbr
            if old is None:
                grown = rect
            elif all(map(lt, old.low, rect.low)) and all(
                map(lt, rect.high, old.high)
            ):
                while node is not None:
                    node.object_count += added_objects
                    node = node.parent
                return
            else:
                grown = old.union(rect)
            node.mbr = grown
            node.object_count += added_objects
            if old is None or grown.low != old.low or grown.high != old.high:
                node._sync_parent_row()
            node = node.parent

    def add(self, entry: Union[LeafEntry, "Node"]) -> None:
        """Append *entry*, fixing parent pointers for child nodes.

        Does **not** refresh caches — callers batch modifications and then
        call :meth:`refresh` / :meth:`refresh_path` once.
        """
        if isinstance(entry, Node):
            entry.parent = self
        self.entries.append(entry)
        self._bounds = self._leaf = None

    def discard(self, index: int) -> None:
        """Remove the entry at *index*, invalidating the entry caches.

        Like :meth:`add`, does not refresh the MBR/count caches.
        """
        del self.entries[index]
        self._bounds = self._leaf = None

    def replace_entries(
        self, entries: Sequence[Union[LeafEntry, "Node"]]
    ) -> None:
        """Replace the whole entry list, invalidating the entry caches.

        Rebinding ``node.entries`` directly bypasses invalidation: a
        same-length replacement would keep serving the old corner
        matrices to the batch kernels.  Every bulk rewrite (forced
        reinsertion, node splits) must come through here.  Like
        :meth:`add`, this does not refresh the MBR/count caches —
        callers follow up with :meth:`refresh` / :meth:`refresh_path`.
        """
        replacement = list(entries)
        for entry in replacement:
            if isinstance(entry, Node):
                entry.parent = self
        self.entries = replacement
        self._bounds = self._leaf = None

    def entry_bounds(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Flat ``(lows, highs)`` corner matrices over this node's entries.

        Shape ``(len(entries), dims)`` each, row *i* holding the MBR of
        ``entries[i]`` (for leaves the two coincide: degenerate point
        MBRs).  This is the input format of the batch kernels in
        :mod:`repro.perf.kernels`; the matrices are cached until the
        entry list changes, so repeated scans of a static tree and the
        ChooseSubtree descents of a growing one pay the flattening cost
        once per node.  Children update their rows **in place**: treat
        the returned arrays as read-only and consume them before the
        tree mutates again.

        Returns ``None`` when no matrix form exists — an empty node, or
        an entry without a materialized MBR — states a consistent tree
        never hands to a scan.
        """
        # Cache validity is purely "has a mutation invalidated it" — a
        # length comparison against the entry list would mask rebinding
        # bugs by serving stale matrices for same-length replacements.
        if self._bounds is None:
            self._bounds = self.build_bounds()
        return self._bounds

    def build_bounds(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Fresh ``(lows, highs)`` matrices from the entries, uncached.

        What :meth:`entry_bounds` caches, and what
        :func:`repro.rtree.validate.check_invariants` compares the
        cache against.
        """
        if not self.entries:
            return None
        rects = []
        for entry in self.entries:
            rect = entry.rect if isinstance(entry, LeafEntry) else entry.mbr
            if rect is None:
                return None
            rects.append(rect)
        lows = np.array([rect.low for rect in rects], dtype=np.float64)
        highs = np.array([rect.high for rect in rects], dtype=np.float64)
        return EntryBounds((lows, highs))

    def child_pages(self) -> List[int]:
        """The children's page ids, in entry order (internal nodes)."""
        return [child.page_id for child in self.entries]

    def child_counts(self) -> np.ndarray:
        """The children's subtree object counts as int64, in entry order."""
        return np.fromiter(
            (child.object_count for child in self.entries),
            dtype=np.int64, count=len(self.entries),
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return (
            f"{type(self).__name__}(page={self.page_id}, {kind}, "
            f"entries={len(self.entries)})"
        )
