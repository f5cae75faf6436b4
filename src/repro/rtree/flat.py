"""Frozen struct-of-arrays R*-tree layout (ROADMAP item 2).

A built pointer tree is *frozen* into contiguous per-level arrays — the
index-arithmetic layout of Wald's stack-free BVH traversal
(arXiv:2210.12859) applied to the paper's R*-tree:

* per level, ``lows``/``highs`` float64 matrices hold every node MBR,
  plus int64 vectors for page ids, subtree object counts, and the
  entry offset/count of each node;
* nodes are packed in **level order**, so the children of one node are
  a contiguous slice of the level below and a whole-level scan is one
  matrix slice;
* leaf data is packed into one ``(total_objects, dims)`` point matrix
  and an aligned oid vector.

Searches run unchanged: a :class:`FlatNode` view answers the row
contract :mod:`repro.core.scan` reads (``len()`` / ``entry_bounds()`` /
``leaf_data`` / ``child_pages()`` / ``child_counts()``) with zero-copy
slices of the level arrays.  Only lists are copies, one ``tolist()``
each, built on a node's first read and kept for the snapshot's life:
its page ids, and a leaf's point tuples — the answer points every
query over that leaf hands out, as a pointer leaf hands out its
entries' own.  No per-entry object is built on the search path
(``entries`` is built on first use, for the callers that walk a tree),
and no list by :func:`flatten`, :func:`save_flat` or :func:`load_flat`.
Answer digests are bit-identical to the pointer tree: the arrays hold
the exact float64 values of the pointer nodes' cached MBRs and points,
and every kernel consumes them through the same code path.

**Freeze contract.**  The pointer tree remains the only mutation
surface.  A freeze is a snapshot, not a mirror: after inserting or
deleting on the pointer tree, callers run :func:`flatten` again.  A
:class:`FlatTree` never mutates itself.

The binary serialization (:func:`save_flat` / :func:`load_flat`) is the
repo's one at-rest format: an 8-byte-aligned header over raw
C-contiguous array blobs, so the file can be ``mmap``-ed and the arrays
used in place (``load_flat(path, mmap=True)``).  Position in the arrays
*is* the structure, so the loader can check a file without walking it:
sizes against the header, child slices against the level below,
placement ids against the array, page spans against 1 — any mismatch is a
:class:`FlatFormatError`.  ``load_flat(path).rehydrate(policy=, seed=)``
is the way back to a tree that takes inserts and deletes.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rect import Rect
from repro.perf import kernels
from repro.rtree.node import LeafEntry, Node
from repro.rtree.placed import PlacedTree
from repro.rtree.query import knn
from repro.rtree.tree import RStarTree

_MAGIC = b"RPFL"
_VERSION = 2
#: Header: magic, version, flags, dims, height, max_entries, min_entries,
#: page_size, num_disks, num_cylinders, size, root_page, next_page,
#: total_points.
_HEADER = struct.Struct("<4sHHIIIIIIIQQQQ")
_FLAG_PLACEMENT = 1


class FlatFormatError(ValueError):
    """Raised when a flat-tree file is truncated, foreign or inconsistent."""


class FlatNode:
    """Read-only view of one node inside a :class:`FlatTree`.

    Satisfies the node surface the protocol, the scan layer and the
    executors consume: its rows are slices of the level arrays —
    :meth:`entry_bounds` and :meth:`child_counts` zero-copy,
    :meth:`child_pages` one cached list, and :attr:`leaf_data` a
    zero-copy oid slice beside one cached list of point tuples.
    """

    __slots__ = ("tree", "level", "index", "page_id", "entry_offset",
                 "entry_count", "object_count", "span", "_mbr", "_bounds",
                 "_pages", "_entries", "_leaf")

    region_family = "rect"

    def __init__(
        self, tree: "FlatTree", level: int, index: int, page_id: int,
        entry_offset: int, entry_count: int, object_count: int, span: int,
    ):
        self.tree = tree
        self.level = level
        self.index = index
        self.page_id = page_id
        self.entry_offset = entry_offset
        self.entry_count = entry_count
        self.object_count = object_count
        self.span = span
        self._mbr: Optional[Rect] = None
        self._bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._pages: Optional[List[int]] = None
        self._entries: Optional[list] = None
        self._leaf: Optional[Tuple[np.ndarray, List[tuple]]] = None

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes, which store data entries."""
        return self.level == 0

    @property
    def mbr(self) -> Optional[Rect]:
        """The node MBR, lazily rebuilt from the packed corner rows."""
        if self.entry_count == 0:
            return None  # only a root that froze empty
        rect = self._mbr
        if rect is None:
            tree = self.tree
            rect = Rect._raw(
                tuple(tree.level_lows[self.level][self.index].tolist()),
                tuple(tree.level_highs[self.level][self.index].tolist()),
            )
            self._mbr = rect
        return rect

    @property
    def entries(self) -> list:
        """Child views above level 0, data entries at level 0.

        Built on first use: the scan path reads rows instead, so a
        search over a frozen tree never builds it.
        """
        entries = self._entries
        if entries is None:
            if self.level == 0:
                oids, points = self.leaf_data
                entries = [
                    LeafEntry(point, oid)
                    for point, oid in zip(points, oids.tolist())
                ]
            else:
                entries = [self.tree.pages[p] for p in self.child_pages()]
            self._entries = entries
        return entries

    def entry_bounds(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Zero-copy ``(lows, highs)`` slices over this node's entries.

        Same contract as :meth:`repro.rtree.node.Node.entry_bounds`, but
        the matrices are views into the per-level arrays (or the leaf
        point matrix, whose degenerate MBRs make both corners the same
        slice) — no flattening, ever.
        """
        if self.entry_count == 0:
            return None
        bounds = self._bounds
        if bounds is None:
            tree = self.tree
            start = self.entry_offset
            stop = start + self.entry_count
            if self.level == 0:
                points = tree.points[start:stop]
                bounds = (points, points)
            else:
                below = self.level - 1
                bounds = (
                    tree.level_lows[below][start:stop],
                    tree.level_highs[below][start:stop],
                )
            self._bounds = bounds
        return bounds

    def child_pages(self) -> List[int]:
        """The children's page ids in entry order, listed once per node."""
        pages = self._pages
        if pages is None:
            start = self.entry_offset
            pages = self._pages = self.tree.level_page_ids[self.level - 1][
                start:start + self.entry_count
            ].tolist()
        return pages

    def child_counts(self) -> np.ndarray:
        """Zero-copy int64 slice of the children's subtree object counts."""
        start = self.entry_offset
        below = self.level - 1
        return self.tree.level_object_counts[below][start:start + self.entry_count]

    @property
    def leaf_data(self) -> Optional[Tuple[np.ndarray, List[tuple]]]:
        """A leaf's zero-copy int64 oid slice and its packed point rows
        as a list of tuples, built on the first read and kept (the
        snapshot never changes); ``None`` above level 0."""
        if self.level != 0:
            return None
        data = self._leaf
        if data is None:
            start = self.entry_offset
            stop = start + self.entry_count
            tree = self.tree
            data = self._leaf = (
                tree.oids[start:stop],
                list(map(tuple, tree.points[start:stop].tolist())),
            )
        return data

    def __len__(self) -> int:
        return self.entry_count

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"FlatNode(page={self.page_id}, {kind}, entries={self.entry_count})"


class FlatTree:
    """A frozen R*-tree in contiguous struct-of-arrays storage.

    Arrays are indexed by level (0 = leaves, ``height - 1`` = root), each
    holding that level's nodes in level order:

    * ``level_lows[L]`` / ``level_highs[L]`` — ``(n_L, dims)`` float64
      node-MBR corner matrices;
    * ``level_page_ids[L]`` / ``level_object_counts[L]`` — int64;
    * ``level_entry_offsets[L]`` / ``level_entry_counts[L]`` — int64;
      for ``L > 0`` the offset indexes into level ``L - 1``'s arrays,
      for ``L == 0`` into :attr:`points` / :attr:`oids`;
    * ``page_spans`` — int64, one per page in page-table (level) order:
      the physical pages each node occupies (> 1 for a supernode).

    Page ids are preserved from the source tree, so fetch traces, disk
    placements and answer digests carry over unchanged.
    """

    def __init__(
        self,
        dims: int,
        level_lows: List[np.ndarray],
        level_highs: List[np.ndarray],
        level_page_ids: List[np.ndarray],
        level_object_counts: List[np.ndarray],
        level_entry_offsets: List[np.ndarray],
        level_entry_counts: List[np.ndarray],
        points: np.ndarray,
        oids: np.ndarray,
        root_page_id: int,
        size: int,
        max_entries: int,
        min_entries: int,
        page_size: int,
        next_page_id: int,
        page_spans: np.ndarray,
    ):
        self.dims = dims
        self.level_lows = level_lows
        self.level_highs = level_highs
        self.level_page_ids = level_page_ids
        self.level_object_counts = level_object_counts
        self.level_entry_offsets = level_entry_offsets
        self.level_entry_counts = level_entry_counts
        self.points = points
        self.oids = oids
        self.root_page_id = root_page_id
        self.size = size
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.page_size = page_size
        self.next_page_id = next_page_id
        self.page_spans = page_spans
        #: Every node as a :class:`FlatNode` view, keyed by page id —
        #: the executors' fetch surface.
        self.pages: Dict[int, FlatNode] = {}
        spans = iter(page_spans.tolist())
        for level in range(len(level_page_ids)):
            ids = level_page_ids[level].tolist()
            offsets = level_entry_offsets[level].tolist()
            counts = level_entry_counts[level].tolist()
            objects = level_object_counts[level].tolist()
            for index, page_id in enumerate(ids):
                self.pages[page_id] = FlatNode(
                    self, level, index, page_id,
                    offsets[index], counts[index], objects[index], next(spans),
                )

    # -- the interface executors and reference queries consume -------------

    @property
    def root(self) -> FlatNode:
        """The root view — entry point of the in-memory reference queries."""
        return self.pages[self.root_page_id]

    @property
    def height(self) -> int:
        """Number of levels; a sole (leaf) root gives height 1."""
        return len(self.level_page_ids)

    def page(self, page_id: int) -> FlatNode:
        """The node view for *page_id* (KeyError if unknown)."""
        return self.pages[page_id]

    def pages_spanned(self, page_id: int) -> int:
        """Physical pages the node on *page_id* occupies (≥ 1)."""
        return self.pages[page_id].span

    def __len__(self) -> int:
        return self.size

    def knn(self, point: Sequence[float], k: int):
        """In-memory exact k-NN (oracle/reference; no disk accounting)."""
        return knn(self, tuple(point), k)

    def node_count(self) -> int:
        """Total nodes across all levels."""
        return sum(len(ids) for ids in self.level_page_ids)

    # -- round-trip ---------------------------------------------------------

    @classmethod
    def from_tree(cls, tree: RStarTree) -> "FlatTree":
        """Freeze *tree* (a built pointer R*-tree or X-tree) into flat arrays."""
        dims = tree.dims
        root = tree.root
        height = root.level + 1
        levels: List[List[Node]] = [[] for _ in range(height)]
        levels[root.level].append(root)
        # Level-order packing: walking each level in node order and
        # appending children keeps every node's children contiguous —
        # and in entry order — one level down.
        for level in range(root.level, 0, -1):
            for node in levels[level]:
                levels[level - 1].extend(node.entries)

        level_lows: List[np.ndarray] = []
        level_highs: List[np.ndarray] = []
        level_page_ids: List[np.ndarray] = []
        level_object_counts: List[np.ndarray] = []
        level_entry_offsets: List[np.ndarray] = []
        level_entry_counts: List[np.ndarray] = []
        zero = (0.0,) * dims
        for level in range(height):
            nodes = levels[level]
            level_lows.append(np.array(
                [n.mbr.low if n.mbr is not None else zero for n in nodes],
                dtype=np.float64,
            ).reshape(len(nodes), dims))
            level_highs.append(np.array(
                [n.mbr.high if n.mbr is not None else zero for n in nodes],
                dtype=np.float64,
            ).reshape(len(nodes), dims))
            level_page_ids.append(np.array(
                [n.page_id for n in nodes], dtype=np.int64
            ))
            level_object_counts.append(np.array(
                [n.object_count for n in nodes], dtype=np.int64
            ))
            counts = np.array([len(n.entries) for n in nodes], dtype=np.int64)
            level_entry_offsets.append(np.cumsum(counts) - counts)
            level_entry_counts.append(counts)

        data = [entry for node in levels[0] for entry in node.entries]
        points = np.array(
            [entry.point for entry in data], dtype=np.float64
        ).reshape(len(data), dims)
        oids = np.array([entry.oid for entry in data], dtype=np.int64)
        return cls(
            dims=dims,
            level_lows=level_lows,
            level_highs=level_highs,
            level_page_ids=level_page_ids,
            level_object_counts=level_object_counts,
            level_entry_offsets=level_entry_offsets,
            level_entry_counts=level_entry_counts,
            points=points,
            oids=oids,
            root_page_id=tree.root_page_id,
            size=tree.size,
            max_entries=tree.max_entries,
            min_entries=tree.min_entries,
            page_size=tree.page_size,
            next_page_id=tree._next_page_id,
            page_spans=np.array([
                tree.pages_spanned(node.page_id)
                for nodes in levels for node in nodes
            ], dtype=np.int64),
        )

    def rehydrate(self) -> RStarTree:
        """Rebuild an equivalent pointer R*-tree from the arrays.

        Page ids, entry order, MBRs and counts are restored exactly, so
        ``flatten(rehydrate(flat))`` round-trips and searches over the
        rebuilt tree produce the same digests as over the original.
        The rebuilt tree is mutable again — the way back out of a
        freeze.
        """
        tree = RStarTree(
            self.dims,
            max_entries=self.max_entries,
            min_entries=self.min_entries,
            page_size=self.page_size,
        )
        nodes: Dict[int, Node] = {
            page_id: Node(page_id, view.level)
            for page_id, view in self.pages.items()
        }
        for page_id, view in self.pages.items():
            node = nodes[page_id]
            if view.level == 0:
                start = view.entry_offset
                stop = start + view.entry_count
                node.replace_entries([
                    LeafEntry(point, oid) for point, oid in zip(
                        self.points[start:stop].tolist(),
                        self.oids[start:stop].tolist(),
                    )
                ])
            else:
                node.replace_entries([nodes[p] for p in view.child_pages()])
            node.object_count = view.object_count
            node.mbr = view.mbr
        tree.pages = nodes
        tree.root = nodes[self.root_page_id]
        tree.root.parent = None
        tree.size = self.size
        tree._next_page_id = self.next_page_id
        return tree


def kth_nearest_over_leaves(
    point: Sequence[float],
    k: int,
    size: int,
    lows: np.ndarray,
    highs: np.ndarray,
    lengths: np.ndarray,
    points_of: Callable[[np.ndarray], np.ndarray],
) -> float:
    """The distance ``D_k`` from *point* to its k-th nearest object.

    The one ``D_k`` body of the frozen and the pointer tree, computed
    on leaf arrays and bit-identical to the best-first
    :func:`repro.rtree.query.kth_nearest_distance`: leaves sorted
    (stably) by ``Dmin``, the k-th smallest point distance over the
    shortest prefix holding ``min(k, size)`` objects bounds the answer,
    and the k-th smallest over that prefix plus every leaf with ``Dmin``
    below the bound is ``D_k``².  Exact because a leaf's MBR row bounds
    its points and IEEE rounding is monotone, so a leaf's ``Dmin``
    never exceeds any of its point distances, bit for bit.  With fewer
    than *k* objects stored, the farthest one's distance is returned.

    :param size: objects in the tree.
    :param lows: ``(leaves, dims)`` low corners of the leaf MBRs.
    :param highs: the high corners, row-aligned with *lows*.
    :param lengths: int64 object count of each leaf, row-aligned.
    :param points_of: maps an index vector of leaves to the row
        concatenation of their point matrices, in that order.
    :raises ValueError: if the tree is empty, *k* is not positive or
        *point* has the wrong dimensionality.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not size:
        raise ValueError(
            "k-th nearest distance is undefined on an empty tree"
        )
    dmin = kernels.batch_minimum_distance_sq(point, lows, highs)
    order = np.argsort(dmin, kind="stable")
    rank = min(k, size) - 1
    prefix = int(np.searchsorted(np.cumsum(lengths[order]), rank + 1)) + 1
    dist = kernels.batch_point_distance_sq(point, points_of(order[:prefix]))
    bound = np.partition(dist, rank)[rank]
    stop = int(np.searchsorted(dmin[order], bound, side="left"))
    if stop > prefix:
        dist = np.concatenate((dist, kernels.batch_point_distance_sq(
            point, points_of(order[prefix:stop])
        )))
    return math.sqrt(float(np.partition(dist, rank)[rank]))


class FrozenParallelTree(PlacedTree):
    """A :class:`FlatTree` plus the disk/cylinder placement tables.

    Drop-in replacement for
    :class:`~repro.parallel.tree.ParallelRStarTree` on the *read* side:
    the :class:`~repro.rtree.placed.PlacedTree` surface over the
    :class:`FlatTree` as :attr:`tree`.  It has no mutation surface —
    freezes are snapshots; :func:`flatten` and :func:`load_flat` fill
    its tables.
    """

    def __init__(self, flat: FlatTree, num_disks: int, num_cylinders: int):
        super().__init__(num_disks, num_cylinders)
        self.tree = flat

    def kth_nearest_distance(self, point: Sequence[float], k: int) -> float:
        """Oracle distance ``D_k`` — what WOPTSS assumes known.

        :func:`kth_nearest_over_leaves` on the leaf level's arrays.
        """
        flat = self.tree
        starts = flat.level_entry_offsets[0]
        lengths = flat.level_entry_counts[0]

        def points_of(leaves: np.ndarray) -> np.ndarray:
            counts = lengths[leaves]
            ends = np.cumsum(counts)
            rows = np.arange(ends[-1]) + np.repeat(
                starts[leaves] - ends + counts, counts
            )
            return flat.points[rows]

        return kth_nearest_over_leaves(
            point, k, flat.size, flat.level_lows[0], flat.level_highs[0],
            lengths, points_of,
        )

    def rehydrate(self, policy=None, seed: int = 0):
        """Rebuild a mutable :class:`ParallelRStarTree` from the freeze.

        The placement tables are restored verbatim.  Neither the
        declustering *policy* nor the cylinder RNG is part of a freeze:
        pass the policy that should place pages created from now on
        (default: Proximity Index, like a fresh tree) and the cylinder
        *seed*; the RNG restarts from it, so *future* page placements
        may differ from a never-frozen tree's — existing pages are
        unaffected.  The rebuilt R*-tree reports splits, new roots and
        freed pages to the new wrapper, so pages created or condensed
        away later are placed and released like in a tree that was
        never frozen.
        """
        from repro.parallel.tree import ParallelRStarTree

        parallel = ParallelRStarTree(
            self.tree.dims, self.num_disks, policy=policy,
            num_cylinders=self.num_cylinders, seed=seed,
            max_entries=self.tree.max_entries,
            min_entries=self.tree.min_entries,
            page_size=self.tree.page_size,
        )
        parallel.free_page(parallel.root_page_id)  # the fresh, empty root
        parallel._adopt(self.tree.rehydrate())
        for page_id, disk in self._placement.items():
            parallel.place_page(page_id, disk, self._cylinder[page_id])
        return parallel


def flatten(tree):
    """Freeze *tree* into its struct-of-arrays form.

    A bare :class:`~repro.rtree.tree.RStarTree` gives a
    :class:`FlatTree`; a :class:`~repro.rtree.placed.PlacedTree` over
    one (the :class:`~repro.parallel.tree.ParallelRStarTree`) gives a
    :class:`FrozenParallelTree` holding a copy of its placement tables.
    """
    if not isinstance(tree, PlacedTree):
        return FlatTree.from_tree(tree)
    frozen = FrozenParallelTree(
        FlatTree.from_tree(tree.tree), tree.num_disks, tree.num_cylinders
    )
    for page_id in tree.page_ids():
        frozen.place_page(
            page_id, tree.disk_of(page_id), tree.cylinder_of(page_id)
        )
    return frozen


# -- serialization ----------------------------------------------------------


def _pad8(blob: bytes) -> bytes:
    """Pad to an 8-byte boundary so every array blob stays mmap-aligned."""
    remainder = len(blob) % 8
    return blob + b"\x00" * (8 - remainder) if remainder else blob


def save_flat(tree, path: str) -> None:
    """Write a :class:`FlatTree` or :class:`FrozenParallelTree` to *path*.

    Layout: one fixed header, the per-level node counts, then every
    array as a raw little-endian C-contiguous blob in a fixed order (the
    level arrays, the leaf data, the placement tables if any, the page
    spans), each starting on an 8-byte boundary — ready to be mapped
    back without parsing (``load_flat(path, mmap=True)``).
    """
    placed = isinstance(tree, FrozenParallelTree)
    flat = tree.tree if placed else tree
    flags = _FLAG_PLACEMENT if placed else 0
    header = _HEADER.pack(
        _MAGIC, _VERSION, flags, flat.dims, flat.height,
        flat.max_entries, flat.min_entries, flat.page_size,
        tree.num_disks if placed else 0,
        tree.num_cylinders if placed else 0,
        flat.size, flat.root_page_id, flat.next_page_id,
        len(flat.oids),
    )
    chunks = [_pad8(header)]
    counts = np.array(
        [len(ids) for ids in flat.level_page_ids], dtype=np.int64
    )
    chunks.append(counts.tobytes())
    for level in range(flat.height):
        for array in (
            flat.level_lows[level], flat.level_highs[level],
            flat.level_page_ids[level], flat.level_object_counts[level],
            flat.level_entry_offsets[level], flat.level_entry_counts[level],
        ):
            chunks.append(np.ascontiguousarray(array).tobytes())
    chunks.append(np.ascontiguousarray(flat.points).tobytes())
    chunks.append(flat.oids.tobytes())
    if placed:
        # Placement in page-table (level-order) scan order, aligned with
        # the concatenated page-id arrays above.
        disks = []
        cylinders = []
        for level in range(flat.height):
            for page_id in flat.level_page_ids[level].tolist():
                disks.append(tree.disk_of(page_id))
                cylinders.append(tree.cylinder_of(page_id))
        chunks.append(np.array(disks, dtype=np.int64).tobytes())
        chunks.append(np.array(cylinders, dtype=np.int64).tobytes())
    chunks.append(flat.page_spans.tobytes())
    with open(path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)


def load_flat(path: str, mmap: bool = False):
    """Read a tree written by :func:`save_flat`.

    :param mmap: when True the arrays are memory-mapped views into the
        file (read-only) instead of in-memory copies — the zero-parse
        load the on-disk layout is designed for.
    :returns: a :class:`FlatTree`, or a :class:`FrozenParallelTree`
        when the file carries placement tables.
    :raises FlatFormatError: when the file is not a complete,
        self-consistent flat-tree file: too short for its header or for
        the arrays the header announces, longer than them, foreign
        magic or version, a child slice reaching past the level below,
        a root that is not a stored page, a page spanning fewer than
        one page, or a page placed on a disk or cylinder the array does
        not have.
    """
    if os.path.getsize(path) < _HEADER.size:
        raise FlatFormatError(
            f"{path}: {os.path.getsize(path)} bytes is too short for a "
            f"flat-tree header ({_HEADER.size} bytes)"
        )
    if mmap:
        buffer = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        with open(path, "rb") as handle:
            buffer = np.frombuffer(handle.read(), dtype=np.uint8)
    (magic, version, flags, dims, height, max_entries, min_entries,
     page_size, num_disks, num_cylinders, size, root_page_id,
     next_page_id, total_points) = _HEADER.unpack(
        bytes(buffer[:_HEADER.size])
    )
    if magic != _MAGIC:
        raise FlatFormatError(
            f"{path} is not a flat-tree file (magic {magic!r})"
        )
    if version != _VERSION:
        raise FlatFormatError(
            f"{path}: unsupported flat-tree version {version}"
        )

    offset = (_HEADER.size + 7) // 8 * 8

    def take(count: int, dtype, shape=None):
        nonlocal offset
        nbytes = count * np.dtype(dtype).itemsize
        if count < 0 or offset + nbytes > len(buffer):
            raise FlatFormatError(
                f"{path}: truncated: {nbytes} bytes expected at offset "
                f"{offset}, file has {len(buffer)}"
            )
        array = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
        offset += nbytes
        return array.reshape(shape) if shape is not None else array

    node_counts = take(height, np.int64).tolist()
    level_lows, level_highs = [], []
    level_page_ids, level_object_counts = [], []
    level_entry_offsets, level_entry_counts = [], []
    for level in range(height):
        n = node_counts[level]
        level_lows.append(take(n * dims, np.float64, (n, dims)))
        level_highs.append(take(n * dims, np.float64, (n, dims)))
        level_page_ids.append(take(n, np.int64))
        level_object_counts.append(take(n, np.int64))
        level_entry_offsets.append(take(n, np.int64))
        level_entry_counts.append(take(n, np.int64))
    points = take(total_points * dims, np.float64, (total_points, dims))
    oids = take(total_points, np.int64)
    total_nodes = sum(node_counts)
    placed = bool(flags & _FLAG_PLACEMENT)
    if placed:
        # One row per page, in page-table order: a table that ends
        # early (pages without a placement) reads as truncation.
        disks = take(total_nodes, np.int64)
        cylinders = take(total_nodes, np.int64)
    page_spans = take(total_nodes, np.int64)
    if offset != len(buffer):
        raise FlatFormatError(
            f"{path}: {len(buffer) - offset} trailing bytes after the "
            f"arrays its header announces"
        )

    if size != total_points:
        raise FlatFormatError(
            f"{path}: object count mismatch: header says {size}, "
            f"leaves hold {total_points}"
        )
    for level in range(height):
        below = total_points if level == 0 else node_counts[level - 1]
        starts, lengths = level_entry_offsets[level], level_entry_counts[level]
        if node_counts[level] and (
            starts.min() < 0
            or lengths.min() < 0
            or (starts + lengths).max() > below
        ):
            raise FlatFormatError(
                f"{path}: a level-{level} node's entries reach outside the "
                f"{below} rows below it"
            )
    flat = FlatTree(
        dims=dims,
        level_lows=level_lows,
        level_highs=level_highs,
        level_page_ids=level_page_ids,
        level_object_counts=level_object_counts,
        level_entry_offsets=level_entry_offsets,
        level_entry_counts=level_entry_counts,
        points=points,
        oids=oids,
        root_page_id=root_page_id,
        size=size,
        max_entries=max_entries,
        min_entries=min_entries,
        page_size=page_size,
        next_page_id=next_page_id,
        page_spans=page_spans,
    )
    if len(flat.pages) != total_nodes:
        raise FlatFormatError(
            f"{path}: {total_nodes - len(flat.pages)} duplicate page ids"
        )
    if root_page_id not in flat.pages:
        raise FlatFormatError(
            f"{path}: root page {root_page_id} is not a stored page"
        )
    page_order = [
        page_id
        for level in range(height)
        for page_id in level_page_ids[level].tolist()
    ]
    bad = np.flatnonzero(page_spans < 1)
    if len(bad):
        raise FlatFormatError(
            f"{path}: page {page_order[bad[0]]} spans {page_spans[bad[0]]} pages"
        )
    if not placed:
        return flat
    for unit, table, limit in (
        ("disk", disks, num_disks),
        ("cylinder", cylinders, num_cylinders),
    ):
        bad = np.flatnonzero((table < 0) | (table >= limit))
        if len(bad):
            raise FlatFormatError(
                f"{path}: page {page_order[bad[0]]} on invalid {unit} "
                f"{table[bad[0]]} (array has {limit})"
            )
    frozen = FrozenParallelTree(flat, num_disks, num_cylinders)
    for page_id, disk, cylinder in zip(
        page_order, disks.tolist(), cylinders.tolist()
    ):
        frozen.place_page(page_id, disk, cylinder)
    return frozen
