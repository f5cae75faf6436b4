"""A TV-style reduced-dimension tree (after Lin, Jagadish & Faloutsos).

The last access method on the paper's future-work list (§5) is the
TV-tree ("telescope vector" tree): in high dimension, directory entries
that store bounds for *every* coordinate waste page space on dimensions
that barely discriminate.  The TV-tree stores bounds only for a small
number of **active dimensions**, which multiplies the directory fan-out
— at the price of looser pruning bounds.

This module implements that trade-off honestly as a *reduced-dimension
R\\*-tree* rather than the full telescoping machinery (which needs
exactly-shared coordinate prefixes that continuous data does not have —
a substitution documented in DESIGN.md):

* directory entries carry the subtree MBR over the first ``active``
  dimensions only, so the directory fan-out is that of an
  ``active``-dimensional tree (e.g. 2.4× more 8-d entries per 4 KB page
  with ``active = 3``);
* the remaining dimensions are bounded by the *global* data bounding
  box, giving valid — just looser — ``Dmin`` / ``Dmax`` bounds, with
  ``Dmm = Dmax`` (no face-touching guarantee survives projection);
* leaves store full points, so answers stay exact: the search
  algorithms run unchanged — an internal view hands the scan the
  ``[:, :active]`` slices of the wrapped node's corner matrices plus
  the tail box, which the ``tv`` kernels of :mod:`repro.core.regions`
  score, and the wrapped node's own page and count rows — and simply
  prune less aggressively.

The data sets are generated with uniform per-axis importance, so the
first dimensions here are "active by convention" — matching how the
TV-tree is used after a variance-ordering transform.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.rtree.capacity import capacity_for_page
from repro.rtree.placed import PlacedTree


class TVTreeView(PlacedTree):
    """A reduced-dimension *view* over a parallel R*-tree.

    The underlying index is a full R*-tree (exact maintenance, exact
    reference queries); this view is what the executors and algorithms
    see: each internal entry's region is the TV projection of the true
    MBR — exact bounds on the active dimensions, the global data box on
    the inactive tail.  Fan-out economics are modeled by construction —
    the wrapped tree is built with the *active*-dimensional page
    capacity, i.e. the fan-out a real TV directory page of the same
    byte size would hold.  Everything but :meth:`page` and the oracle
    ``D_k`` is the wrapped tree's: the same index, page ids, spans and
    placement tables (shared, not copied).

    :param parallel_tree: a placed tree over the full-dimensional data.
    :param active: number of leading active dimensions in the directory.
    """

    def __init__(self, parallel_tree: PlacedTree, active: int):
        dims = parallel_tree.dims
        if not 1 <= active <= dims:
            raise ValueError(
                f"active must be in [1, {dims}], got {active}"
            )
        self._tree = parallel_tree
        self.tree = parallel_tree.tree
        self.num_disks = parallel_tree.num_disks
        self.num_cylinders = parallel_tree.num_cylinders
        self._placement = parallel_tree._placement
        self._cylinder = parallel_tree._cylinder
        self._nodes_per_disk = parallel_tree._nodes_per_disk
        self.active = active
        root_mbr = self.tree.root.mbr
        tail_low = tail_high = ()
        if root_mbr is not None and active < dims:
            tail_low = root_mbr.low[active:]
            tail_high = root_mbr.high[active:]
        #: The corners of the global data box on the inactive tail, as
        #: vectors (empty when there is no tail).
        self._tail_bounds = (
            np.array(tail_low, dtype=np.float64),
            np.array(tail_high, dtype=np.float64),
        )

    def page(self, page_id: int):
        """The TV view of the node on *page_id*.

        Leaves are returned as-is (full points).  Internal nodes are
        wrapped so their region rows read as TV regions.
        """
        node = self.tree.page(page_id)
        return node if node.is_leaf else _TVInternalView(node, self)

    def kth_nearest_distance(self, point: Sequence[float], k: int) -> float:
        """Oracle ``D_k`` via the underlying full-dim tree."""
        return self._tree.kth_nearest_distance(point, k)


class _TVInternalView:
    """Internal-node wrapper: the wrapped node's rows, with TV regions.

    Page and count rows are the wrapped node's own; only the region
    arrays are projected.
    """

    __slots__ = ("_node", "_view", "page_id", "level")

    region_family = "tv"
    is_leaf = False
    leaf_data = None

    def __init__(self, node, view: TVTreeView):
        self._node = node
        self._view = view
        self.page_id = node.page_id
        self.level = node.level

    def entry_bounds(self):
        """``(lows, highs, tail lows, tail highs)`` over the children.

        The wrapped node's corner matrices cut to the active axes, and
        the global tail box repeated on every row (a broadcast view).
        """
        lows, highs = self._node.entry_bounds()
        active = self._view.active
        tail_low, tail_high = self._view._tail_bounds
        shape = (lows.shape[0], tail_low.shape[0])
        return (
            lows[:, :active], highs[:, :active],
            np.broadcast_to(tail_low, shape), np.broadcast_to(tail_high, shape),
        )

    def child_pages(self):
        """The wrapped node's child page ids."""
        return self._node.child_pages()

    def child_counts(self):
        """The wrapped node's subtree object counts."""
        return self._node.child_counts()

    def __len__(self) -> int:
        return len(self._node)


def tv_directory_capacity(page_size: int, active: int) -> int:
    """Directory fan-out of a TV page bounding only *active* dims."""
    return capacity_for_page(page_size, active)


def build_tv_view(
    data,
    dims: int,
    num_disks: int,
    active: int,
    page_size: int = 4096,
    seed: int = 0,
    **tree_kwargs,
) -> TVTreeView:
    """Build a declustered TV-style tree over *data*.

    The underlying R*-tree is constructed with the *TV directory
    fan-out* — the entry count an ``active``-dimensional directory page
    of ``page_size`` bytes holds — so the tree is exactly as shallow and
    page-hungry as a real TV-tree of those parameters, and every page
    costs one disk access as usual.
    """
    from repro.parallel.tree import build_parallel_tree

    capacity = tv_directory_capacity(page_size, active)
    parallel = build_parallel_tree(
        data,
        dims=dims,
        num_disks=num_disks,
        seed=seed,
        max_entries=capacity,
        **tree_kwargs,
    )
    return TVTreeView(parallel, active)
