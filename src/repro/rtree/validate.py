"""Structural invariant checking for R*-trees.

Used pervasively by the test suite after randomized insert/delete
interleavings; also handy for users debugging custom split policies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.geometry.rect import Rect
from repro.perf.kernels import box_areas
from repro.rtree.node import LeafEntry, Node, build_leaf_data

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rtree.tree import RStarTree


class InvariantViolation(AssertionError):
    """Raised by :func:`check_invariants` when the tree is malformed."""


def check_invariants(tree: "RStarTree") -> int:
    """Verify every structural invariant of *tree*; returns object count.

    Checked invariants:

    * the root has no parent; every other node's parent pointer is right;
    * every node except the root holds between ``min_entries`` and
      ``max_entries`` entries; the root holds at most ``max_entries``
      (and at least 2 if it is internal);
    * all leaves are at level 0 and levels decrease by exactly 1 per step
      (height balance);
    * every node's cached MBR equals the union of its entries' MBRs;
    * every node's cached object count equals the objects in its subtree
      (the paper's §2.1 branch counts);
    * every cached bounds matrix (:meth:`Node.entry_bounds`) equals a
      fresh rebuild from the entries in values, shape and dtype — the
      caches are patched in place on the insert path, so a missed
      invalidation or a row written to the wrong slot shows up here;
      the entry areas a descent caches beside them
      (:class:`~repro.rtree.node.EntryBounds`) are absent or equal, bit
      for bit, to a fresh fold of the cached corners, and their cached
      order to a stable sort of them; likewise every
      cached leaf oid vector and point list (:attr:`Node.leaf_data`),
      which must also hold the entries' own point tuples;
    * every live node is registered in the page table under its page id;
    * the total object count equals ``len(tree)``.

    :raises InvariantViolation: on the first violated invariant.
    """
    seen_pages: List[int] = []
    total = _check_node(tree, tree.root, expected_parent=None)
    _collect_pages(tree.root, seen_pages)
    if sorted(seen_pages) != sorted(tree.pages.keys()):
        raise InvariantViolation(
            f"page table out of sync: tree has {len(seen_pages)} reachable "
            f"nodes but the table holds {len(tree.pages)}"
        )
    if total != len(tree):
        raise InvariantViolation(
            f"tree.size is {len(tree)} but {total} objects are stored"
        )
    return total


def _collect_pages(node: Node, out: List[int]) -> None:
    out.append(node.page_id)
    if not node.is_leaf:
        for child in node.entries:
            _collect_pages(child, out)


def _check_node(tree: "RStarTree", node: Node, expected_parent) -> int:
    if node.parent is not expected_parent:
        raise InvariantViolation(
            f"page {node.page_id}: bad parent pointer "
            f"(expected {expected_parent!r}, found {node.parent!r})"
        )
    if tree.pages.get(node.page_id) is not node:
        raise InvariantViolation(
            f"page {node.page_id} is not registered in the page table"
        )

    is_root = node is tree.root
    if len(node.entries) > tree.node_capacity(node):
        raise InvariantViolation(
            f"page {node.page_id} overflows: {len(node.entries)} entries"
        )
    if not is_root and len(node.entries) < tree.min_entries:
        raise InvariantViolation(
            f"page {node.page_id} underflows: {len(node.entries)} entries"
        )
    if is_root and not node.is_leaf and len(node.entries) < 2:
        raise InvariantViolation("internal root must have at least 2 children")

    if node.is_leaf:
        for entry in node.entries:
            if not isinstance(entry, LeafEntry):
                raise InvariantViolation(
                    f"leaf page {node.page_id} holds a non-leaf entry"
                )
        expected_count = len(node.entries)
        expected_mbr = (
            Rect.union_of(e.rect for e in node.entries) if node.entries else None
        )
    else:
        expected_count = 0
        child_mbrs = []
        for child in node.entries:
            if not isinstance(child, Node):
                raise InvariantViolation(
                    f"internal page {node.page_id} holds a raw leaf entry"
                )
            if child.level != node.level - 1:
                raise InvariantViolation(
                    f"page {node.page_id} (level {node.level}) has child "
                    f"page {child.page_id} at level {child.level}"
                )
            expected_count += _check_node(tree, child, expected_parent=node)
            child_mbrs.append(child.mbr)
        expected_mbr = Rect.union_of(child_mbrs) if child_mbrs else None

    _check_bounds_cache(node)
    _check_leaf_cache(node)
    if node.mbr != expected_mbr:
        raise InvariantViolation(
            f"page {node.page_id}: cached MBR {node.mbr} differs from "
            f"recomputed {expected_mbr}"
        )
    if node.object_count != expected_count:
        raise InvariantViolation(
            f"page {node.page_id}: cached object count {node.object_count} "
            f"differs from actual {expected_count}"
        )
    return expected_count


def _check_bounds_cache(node: Node) -> None:
    cached = node._bounds
    if cached is None:
        return
    fresh = node.build_bounds()
    if fresh is None:
        raise InvariantViolation(
            f"page {node.page_id}: cached bounds matrices but the entries "
            f"have no matrix form"
        )
    for name, have, want in zip(("lows", "highs"), cached, fresh):
        if (
            have.shape != want.shape
            or have.dtype != want.dtype
            or not np.array_equal(have, want)
        ):
            raise InvariantViolation(
                f"page {node.page_id}: cached {name} matrix differs from a "
                f"rebuild from the entries"
            )
    areas = getattr(cached, "areas", None)
    if areas is not None:
        want = box_areas(*cached[:2])
        if (
            areas.shape != want.shape
            or areas.dtype != want.dtype
            or areas.tobytes() != want.tobytes()
        ):
            raise InvariantViolation(
                f"page {node.page_id}: cached areas differ from a fold of "
                f"the cached corners"
            )
    by_area = getattr(cached, "by_area", None)
    if by_area is not None and (
        areas is None
        or not np.array_equal(by_area, areas.argsort(kind="stable"))
    ):
        raise InvariantViolation(
            f"page {node.page_id}: cached area order differs from a stable "
            f"sort of the cached areas"
        )


def _check_leaf_cache(node: Node) -> None:
    cached = node._leaf
    if cached is None:
        return
    oids, points = cached
    fresh_oids, fresh_points = build_leaf_data(node.entries)
    if (
        oids.dtype != fresh_oids.dtype
        or not np.array_equal(oids, fresh_oids)
        or len(points) != len(fresh_points)
        or any(have is not want for have, want in zip(points, fresh_points))
    ):
        raise InvariantViolation(
            f"page {node.page_id}: cached leaf oids or points differ from "
            f"the entries'"
        )
