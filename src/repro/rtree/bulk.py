"""STR (Sort-Tile-Recursive) bulk loading.

The paper builds its trees incrementally ("an R*-tree for a particular
data set is constructed incrementally, i.e. by inserting the objects
one-by-one", §4.1) because it targets dynamic environments.  Bulk loading
is provided as a comparison point: the packing ablation bench contrasts
search effectiveness over dynamically built vs. STR-packed trees.

Leppänen/Leutenegger et al.'s STR: sort points into tiles along each
dimension recursively, pack leaves to capacity, then build upper levels
the same way over node centers.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.rtree.node import LeafEntry, Node
from repro.rtree.tree import RStarTree


def _even_chunks(items: List, chunks: int) -> List[List]:
    """Split *items* into *chunks* contiguous parts of near-equal size.

    Sizes differ by at most one, so no part ever falls below
    ``floor(len(items) / chunks)`` — the property that keeps bulk-built
    leaves above the R*-tree's minimum fill.
    """
    base, extra = divmod(len(items), chunks)
    parts: List[List] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        parts.append(items[start:start + size])
        start += size
    return [p for p in parts if p]


def _tile(items: List, dims: int, axis: int, capacity: int, key) -> List[List]:
    """Recursively partition *items* into groups of at most *capacity*."""
    if len(items) <= capacity:
        return [items]
    pages = math.ceil(len(items) / capacity)
    if axis >= dims - 1:
        items = sorted(items, key=lambda it: key(it)[axis])
        return _even_chunks(items, pages)
    # Number of vertical slabs: S = ceil(P ** (1/(remaining dims))).
    remaining = dims - axis
    slabs = math.ceil(pages ** (1.0 / remaining))
    items = sorted(items, key=lambda it: key(it)[axis])
    groups: List[List] = []
    for slab in _even_chunks(items, slabs):
        groups.extend(_tile(slab, dims, axis + 1, capacity, key))
    return groups


def pack_levels(
    points: Sequence[Tuple[Sequence[float], int]],
    dims: int,
    max_entries: Optional[int],
    page_size: int,
    fill_factor: float,
    on_split: Optional[Callable[[Optional[Node], Node], None]],
    group: Callable[[List, int, Callable], List[List]],
) -> RStarTree:
    """Pack an R*-tree bottom up: the body both bulk loaders share.

    ``group(items, capacity, key)`` divides one level's items into
    groups of at most *capacity*, each of which becomes a node; *key*
    maps an item to its point (a data entry's point, a node's MBR
    centre).  The leaves are packed from the data, each upper level
    from the nodes below, until one node — the root — remains.  The
    other parameters are :func:`str_bulk_load`'s.
    """
    if not 0.0 < fill_factor <= 1.0:
        raise ValueError(f"fill_factor must be in (0, 1], got {fill_factor}")
    tree = RStarTree(dims, max_entries=max_entries, page_size=page_size)
    if not points:
        return tree
    capacity = max(2, int(tree.max_entries * fill_factor))

    def pack(items: List, key: Callable, level: int) -> List[Node]:
        nodes: List[Node] = []
        for members in group(items, capacity, key):
            node = tree._new_node(level=level)
            for item in members:
                node.add(item)
            node.refresh()
            nodes.append(node)
            if on_split is not None:
                on_split(None, node)
        return nodes

    entries = [LeafEntry(point, oid) for point, oid in points]
    level_nodes = pack(entries, lambda e: e.point, 0)
    level = 1
    while len(level_nodes) > 1:
        level_nodes = pack(level_nodes, lambda n: n.mbr.center, level)
        level += 1

    # Install the new root, discarding the empty bootstrap root.
    old_root = tree.root
    tree.root = level_nodes[0]
    tree._free_node(old_root)
    tree.size = len(entries)
    if tree.on_new_root is not None:
        tree.on_new_root(tree.root)
    return tree


def str_bulk_load(
    points: Sequence[Tuple[Sequence[float], int]],
    dims: int,
    max_entries: Optional[int] = None,
    page_size: int = 4096,
    fill_factor: float = 1.0,
    on_split: Optional[Callable[[Node, Node], None]] = None,
) -> RStarTree:
    """Build a packed R*-tree from ``(point, oid)`` pairs via STR.

    :param points: the data to load.
    :param dims: dimensionality.
    :param max_entries: node capacity (default: derived from *page_size*).
    :param page_size: disk page size, used when *max_entries* is omitted.
    :param fill_factor: fraction of capacity to fill per node (packing
        slightly below 100 % leaves room for later inserts).
    :param on_split: optional hook invoked as ``(None, node)`` for every
        node created, letting a disk-placement layer see bulk-built pages.
    :returns: a fully functional :class:`RStarTree` (dynamic operations
        keep working on it afterwards).
    """
    return pack_levels(
        points, dims, max_entries, page_size, fill_factor, on_split,
        lambda items, capacity, key: _tile(items, dims, 0, capacity, key),
    )
