"""Batched node scans — the hot path of every search algorithm.

All four algorithms do the same two things with a fetched page: score
every child MBR of an internal node (``Dmin`` / ``Dmm`` / ``Dmax``), or
score every data point of a leaf against the running neighbor list.
This module performs both as single batch operations over the node's
cached corner matrices (:meth:`repro.rtree.node.Node.entry_bounds`),
on the vectorized kernels of :mod:`repro.perf.kernels`.

Flat nodes (:class:`repro.rtree.flat.FlatNode`) take the fastest path:
their child-reference lists are cached across scans, their corner
matrices are zero-copy slices of the frozen per-level arrays, and leaf
offers go through :meth:`~repro.core.results.NeighborList.offer_block`
over the packed oid/point slices — no per-entry Python objects at all.

Nodes without corner matrices — sphere-bounded SS-tree nodes, SR-tree
composites, TV-tree reduced regions — are scored region by region
through :func:`~repro.core.regions.batch_region_distances`, so the
algorithms above this module never need to know the node type.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.protocol import ChildRef, child_refs, leaf_points
from repro.core.regions import batch_region_distances
from repro.core.results import NeighborList
from repro.perf import kernels

#: metric name -> batch kernel, for the pre-flattened bounds fast path.
_VECTOR_KERNELS = {
    "dmin": kernels.batch_minimum_distance_sq,
    "dmm": kernels.batch_minmax_distance_sq,
    "dmax": kernels.batch_maximum_distance_sq,
}


class ChildScan(NamedTuple):
    """Per-entry distances for one internal node's branches.

    Each distance field is a list aligned with :attr:`refs`, or ``None``
    when the metric was not requested.  :attr:`counts` carries the
    subtree object counts as an int64 array (aligned with :attr:`refs`)
    whenever ``Dmax`` was requested — the Lemma 1 consumers feed it to
    :func:`~repro.core.threshold.threshold_distance_sq`, saving the
    per-entry count gather there.  For flat nodes it is a zero-copy
    slice of the frozen count array.
    """

    refs: List[ChildRef]
    dmin_sq: Optional[List[float]]
    dmm_sq: Optional[List[float]] = None
    dmax_sq: Optional[List[float]] = None
    counts: Optional[np.ndarray] = None


def _node_bounds(node):
    """The node's cached corner matrices, or None if unsupported."""
    getter = getattr(node, "entry_bounds", None)
    return getter() if getter is not None else None


def scan_children(
    query: Sequence[float],
    node,
    *,
    want_dmm: bool = False,
    want_dmax: bool = False,
) -> ChildScan:
    """Score every child branch of internal *node* in one batch.

    ``Dmin`` is always computed (every algorithm needs it); ``Dmm`` and
    ``Dmax`` on request.  The result lists contain plain Python floats.
    """
    refs_getter = getattr(node, "child_refs", None)
    refs = refs_getter() if refs_getter is not None else child_refs(node)
    if not refs:
        return ChildScan(refs, [], [] if want_dmm else None,
                         [] if want_dmax else None,
                         np.empty(0, dtype=np.int64) if want_dmax else None)
    metrics = ["dmin"]
    if want_dmm:
        metrics.append("dmm")
    if want_dmax:
        metrics.append("dmax")
    bounds = _node_bounds(node)
    if bounds is not None:
        # Pre-flattened corner matrices: call the kernels directly,
        # skipping both the per-scan region-list build and the shape
        # dispatch of batch_region_distances.
        lows, highs = bounds
        results = [
            _VECTOR_KERNELS[m](query, lows, highs).tolist() for m in metrics
        ]
    else:
        results = batch_region_distances(
            query, [ref.rect for ref in refs], metrics
        )
    counts: Optional[np.ndarray] = None
    if want_dmax:
        counts_getter = getattr(node, "child_counts", None)
        counts = (
            counts_getter()
            if counts_getter is not None
            else np.fromiter(
                (ref.count for ref in refs), dtype=np.int64, count=len(refs)
            )
        )
    by_metric = dict(zip(metrics, results))
    return ChildScan(
        refs,
        by_metric["dmin"],
        by_metric.get("dmm"),
        by_metric.get("dmax"),
        counts,
    )


def gathered_counts(chunks: List[np.ndarray]) -> Optional[np.ndarray]:
    """Concatenate the per-scan count arrays of one fetch batch.

    The Lemma 1 consumers accumulate :attr:`ChildScan.counts` across a
    fetch batch and pass the concatenation to
    :func:`~repro.core.threshold.threshold_distance_sq`, which rejects
    a result that does not line up with the frontier.  ``None`` for an
    empty frontier.
    """
    if not chunks:
        return None
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks)


def offer_leaf(
    query: Sequence[float], node, neighbors: NeighborList
) -> None:
    """Offer every data object of leaf *node* to *neighbors*.

    All squared distances come from one kernel call over the leaf's
    cached point matrix (the low corners of its degenerate MBRs).  Flat
    leaves then feed the packed oid/point slices straight to the
    neighbor list's block offer; pointer leaves offer entry by entry.
    Leaves without a point matrix (the extension access methods) take
    the neighbor list's own per-entry distance loop.  All three admit
    exactly the same objects.
    """
    if not node.entries:
        return
    bounds = _node_bounds(node)
    if bounds is not None:
        distances = kernels.batch_point_distance_sq(query, bounds[0])
        leaf_data = getattr(node, "leaf_data", None)
        if leaf_data is not None:
            oids, points = leaf_data
            neighbors.offer_block(distances, oids, points)
            return
        for entry, dist_sq in zip(node.entries, distances.tolist()):
            neighbors.offer_computed(dist_sq, entry.point, entry.oid)
        return
    entries = leaf_points(node)
    neighbors.offer_many(entries)
    kernels.record_kernel_use("pointdist", "scalar", len(entries))
