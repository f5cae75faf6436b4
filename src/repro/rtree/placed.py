"""The placed tree: an index whose pages sit on the disks of an array.

In the paper's parallel R*-tree (§2.2) the index stays an ordinary tree.
The one addition is a page → (disk, cylinder) table, and the unit of
cost is the page.  :class:`PlacedTree` writes that contract once: the
tables, filled through one writer (:meth:`~PlacedTree.place_page` /
:meth:`~PlacedTree.free_page`); the index, :attr:`~PlacedTree.tree`;
and the whole read surface the executors, the simulator, the fetch
broker and the rebuild consume.  The declustered R*-, X-, SS- and
SR-trees, the TV view and the frozen tree derive from it and keep only
what differs: how a new page is placed, updates, the oracle ``D_k``,
and the TV view's pages.
"""

from __future__ import annotations

from typing import Callable, Dict, KeysView, Sequence, Set

from repro.rtree.query import nodes_intersecting_sphere


class PlacedTree:
    """An index plus the page → (disk, cylinder) placement tables.

    A subclass sets :attr:`tree`, the index: a tree with a ``pages``
    dict (page id → node) and ``root_page_id``, ``page``,
    ``pages_spanned``, ``dims``, ``height``, ``len`` and ``knn``.

    :param num_disks: disks in the array.
    :param num_cylinders: cylinders per disk.
    """

    def __init__(self, num_disks: int, num_cylinders: int):
        if num_disks < 1:
            raise ValueError(f"num_disks must be positive, got {num_disks}")
        if num_cylinders < 1:
            raise ValueError(f"num_cylinders must be positive, got {num_cylinders}")
        self.num_disks = num_disks
        self.num_cylinders = num_cylinders
        self._placement: Dict[int, int] = {}
        self._cylinder: Dict[int, int] = {}
        self._nodes_per_disk = [0] * num_disks

    # -- the table writer ----------------------------------------------------

    def place_page(self, page_id: int, disk: int, cylinder: int) -> None:
        """Pin *page_id* to *disk* and to *cylinder* on it."""
        if not 0 <= disk < self.num_disks:
            raise ValueError(
                f"page {page_id} placed on invalid disk {disk} "
                f"(array has {self.num_disks})"
            )
        self._placement[page_id] = disk
        self._nodes_per_disk[disk] += 1
        self._cylinder[page_id] = cylinder

    def free_page(self, page_id: int) -> None:
        """Release the placement of *page_id* (a page freed by the index)."""
        disk = self._placement.pop(page_id, None)
        if disk is not None:
            self._nodes_per_disk[disk] -= 1
        self._cylinder.pop(page_id, None)

    # -- the read surface ------------------------------------------------------

    @property
    def root_page_id(self) -> int:
        """Page id of the root — where every search starts."""
        return self.tree.root_page_id

    def page(self, page_id: int):
        """The node stored on *page_id*."""
        return self.tree.page(page_id)

    def page_ids(self) -> KeysView[int]:
        """The live page ids (a supernode is one id)."""
        return self.tree.pages.keys()

    def disk_of(self, page_id: int) -> int:
        """The disk hosting *page_id*."""
        return self._placement[page_id]

    def cylinder_of(self, page_id: int) -> int:
        """The cylinder (on its disk) hosting *page_id*."""
        return self._cylinder[page_id]

    @property
    def pages_spanned(self) -> Callable[[int], int]:
        """``pages_spanned(page_id)``: physical pages the node occupies.

        1 unless the node is a supernode.  This is the index's own bound
        method, so a fetch pays one call for it.
        """
        return self.tree.pages_spanned

    @property
    def dims(self) -> int:
        """Dimensionality of the indexed points."""
        return self.tree.dims

    @property
    def height(self) -> int:
        """Tree height (levels)."""
        return self.tree.height

    def __len__(self) -> int:
        return len(self.tree)

    def knn(self, point: Sequence[float], k: int):
        """In-memory exact k-NN (oracle/reference; no disk accounting)."""
        return self.tree.knn(point, k)

    def kth_nearest_distance(self, point: Sequence[float], k: int) -> float:
        """Oracle distance ``D_k`` — what WOPTSS assumes known."""
        return self.tree.kth_nearest_distance(point, k)

    def optimal_page_set(self, point: Sequence[float], k: int) -> Set[int]:
        """Page ids a weak-optimal search would fetch (Definition 6).

        Walks the index's MBRs, so the index is an R*-tree (pointer, X
        or frozen); a TV view answers for the exact MBRs it projects.
        """
        dk = self.kth_nearest_distance(point, k)
        return nodes_intersecting_sphere(self.tree, tuple(point), dk)
