"""Batched round scans — the hot path of every search algorithm.

All four algorithms do the same two things with the pages of a fetch
round: score every child region of its internal nodes (``Dmin`` /
``Dmm`` / ``Dmax``), and score every data point of its leaves against
the running neighbor list.  The unit of work here is the round, not the
node: FPSS and WOPTSS hand over every node of a level at once, CRSS up
to ``NumOfDisks`` of them, BBSS a round of one.  Each metric is one call
of the nodes' region kernel (:data:`repro.core.regions.KERNELS`) over
the round's concatenated region arrays (``entry_bounds()``: MBR corner
matrices, or the sphere, SR and TV arrays of the extension access
methods), and the results come back already concatenated in round order
— exactly what scanning node by node and joining the lists would give.
The algorithms above this module never need to know the node type.

Every leaf takes one block path: the round's point matrices go through
one kernel call, and the round's leaves are offered through one
:meth:`~repro.core.results.NeighborList.offer_block` over their
``leaf_data`` — every leaf, pointer, SS/SR or frozen
(:class:`repro.rtree.flat.FlatNode`), hands over an int64 oid vector
and the list of the point tuples it stores — so no leaf is offered
entry by entry and no answer point is built from a matrix row.

**Branches are rows.**  A directory page stores one row per branch,
``(R, count, child_ptr)`` (paper §2.1), and a scan reads it as such:
every node it can be handed answers ``len()``, ``entry_bounds()`` (the
``R`` column as region arrays), ``child_pages()`` (the child page ids as
ints, in entry order) and ``child_counts()`` (the subtree object counts
as int64), all aligned row for row.  No per-branch object is built.  A
frozen node's rows are zero-copy slices of the per-level arrays (its
page list is one ``tolist()`` of its slice, cached), so a round's
children are a gather of contiguous level slices.
"""

from __future__ import annotations

from itertools import chain
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.regions import KERNELS
from repro.core.results import NeighborList
from repro.perf import kernels


class ChildScan(NamedTuple):
    """Per-entry distances for the branches of one round's internal nodes.

    :attr:`pages` holds the child page id of every branch of the scanned
    nodes, node after node in round order, and each distance field is a
    list aligned with it, or ``None`` when the metric was not requested.
    :attr:`counts` carries the subtree object counts as an int64 array
    (aligned with :attr:`pages`) whenever ``Dmax`` was requested — what
    the Lemma 1 consumers feed to
    :func:`~repro.core.threshold.threshold_distance_sq`.
    """

    pages: List[int]
    dmin_sq: Optional[List[float]]
    dmm_sq: Optional[List[float]] = None
    dmax_sq: Optional[List[float]] = None
    counts: Optional[np.ndarray] = None


def _gather(chunks: Sequence) -> Sequence:
    """Row-concatenate per-node arrays (or point / page lists); a lone
    chunk is passed through."""
    if len(chunks) == 1:
        return chunks[0]
    if isinstance(chunks[0], np.ndarray):
        return np.concatenate(chunks)
    return list(chain.from_iterable(chunks))


def scan_children(
    query: Sequence[float],
    nodes: Sequence,
    *,
    want_dmm: bool = False,
    want_dmax: bool = False,
) -> ChildScan:
    """Score every child branch of a round's internal *nodes* at once.

    ``Dmin`` is always computed (every algorithm needs it); ``Dmm`` and
    ``Dmax`` on request — over the nodes' concatenated region arrays,
    ``Dmin`` and ``Dmm`` in one call of the family's ``"dmin_dmm"``
    kernel, every other metric in one call of its own.  The nodes of a
    round come from one tree and so share one region family.  The
    result lists contain plain Python floats, identical to scanning the
    nodes one by one and concatenating.
    """
    nodes = [node for node in nodes if len(node)]
    if not nodes:
        return ChildScan([], [], [] if want_dmm else None,
                         [] if want_dmax else None,
                         np.empty(0, dtype=np.int64) if want_dmax else None)
    bounds = [node.entry_bounds() for node in nodes]
    arrays = [_gather(list(column)) for column in zip(*bounds)]
    family = nodes[0].region_family
    dmm_sq = None
    if want_dmm:
        dmin, dmm = KERNELS[family, "dmin_dmm"](query, *arrays)
        dmm_sq = dmm.tolist()
    else:
        dmin = KERNELS[family, "dmin"](query, *arrays)
    return ChildScan(
        _gather([node.child_pages() for node in nodes]),
        dmin.tolist(),
        dmm_sq,
        KERNELS[family, "dmax"](query, *arrays).tolist() if want_dmax
        else None,
        _gather([node.child_counts() for node in nodes]) if want_dmax
        else None,
    )


def offer_leaf(
    query: Sequence[float], nodes: Sequence, neighbors: NeighborList
) -> None:
    """Offer every data object of a round's leaf *nodes* to *neighbors*.

    Every leaf takes the block path: one kernel call over the round's
    point matrices (``entry_bounds()[0]``: the low corners of
    degenerate MBRs, the centres of zero-radius spheres, or a frozen
    leaf's slice of the packed points), then one
    :meth:`~repro.core.results.NeighborList.offer_block` over the
    ``leaf_data`` oids and point tuples — a lone leaf's own, a wider
    round's gathered.  The neighbor list keeps the k best under a
    total order on ``(distance, oid)``, so the order of offers within a
    round does not change what it holds afterwards.
    """
    if len(nodes) == 1:
        leaf = nodes[0]
        if not len(leaf):
            return
        oids, points = leaf.leaf_data
        matrix = leaf.entry_bounds()[0]
    else:
        leaves = [node for node in nodes if len(node)]
        if not leaves:
            return
        oids, points = zip(*[node.leaf_data for node in leaves])
        oids, points = _gather(oids), _gather(points)
        matrix = _gather([node.entry_bounds()[0] for node in leaves])
    neighbors.offer_block(
        kernels.batch_point_distance_sq(query, matrix), oids, points
    )
