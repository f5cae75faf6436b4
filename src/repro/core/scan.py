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

Flat nodes (:class:`repro.rtree.flat.FlatNode`) take the fastest path:
their child-reference lists are cached across scans, their corner
matrices are zero-copy slices of the frozen per-level arrays (a round's
children are a gather of contiguous level slices), and a round's leaves
are offered through one
:meth:`~repro.core.results.NeighborList.offer_block` over their gathered
oid/point slices — no per-entry Python objects at all.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.protocol import ChildRef, child_refs
from repro.core.regions import KERNELS
from repro.core.results import NeighborList
from repro.perf import kernels


class ChildScan(NamedTuple):
    """Per-entry distances for the branches of one round's internal nodes.

    :attr:`refs` holds every branch of the scanned nodes, node after
    node in round order, and each distance field is a list aligned with
    it, or ``None`` when the metric was not requested.  :attr:`counts`
    carries the subtree object counts as an int64 array (aligned with
    :attr:`refs`) whenever ``Dmax`` was requested — the Lemma 1
    consumers feed it to
    :func:`~repro.core.threshold.threshold_distance_sq`, saving the
    per-entry count gather there.
    """

    refs: List[ChildRef]
    dmin_sq: Optional[List[float]]
    dmm_sq: Optional[List[float]] = None
    dmax_sq: Optional[List[float]] = None
    counts: Optional[np.ndarray] = None


def _gather(chunks: List[np.ndarray]) -> np.ndarray:
    """Row-concatenate per-node arrays; a lone chunk is passed through."""
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def scan_children(
    query: Sequence[float],
    nodes: Sequence,
    *,
    want_dmm: bool = False,
    want_dmax: bool = False,
) -> ChildScan:
    """Score every child branch of a round's internal *nodes* at once.

    ``Dmin`` is always computed (every algorithm needs it); ``Dmm`` and
    ``Dmax`` on request — one call of the nodes' region kernel per
    metric over their concatenated region arrays.  The nodes of a round
    come from one tree and so share one region family.  The result
    lists contain plain Python floats, identical to scanning the nodes
    one by one and concatenating.
    """
    nodes = [node for node in nodes if node.entries]
    refs: List[ChildRef] = []
    for node in nodes:
        getter = getattr(node, "child_refs", None)
        refs.extend(getter() if getter is not None else child_refs(node))
    if not refs:
        return ChildScan(refs, [], [] if want_dmm else None,
                         [] if want_dmax else None,
                         np.empty(0, dtype=np.int64) if want_dmax else None)
    metrics = ["dmin"]
    if want_dmm:
        metrics.append("dmm")
    if want_dmax:
        metrics.append("dmax")
    bounds = [node.entry_bounds() for node in nodes]
    arrays = [_gather(list(column)) for column in zip(*bounds)]
    family = nodes[0].region_family
    results = [
        KERNELS[family, metric](query, *arrays).tolist() for metric in metrics
    ]
    counts: Optional[np.ndarray] = None
    if want_dmax:
        if all(hasattr(node, "child_counts") for node in nodes):
            counts = _gather([node.child_counts() for node in nodes])
        else:
            counts = np.fromiter(
                (ref.count for ref in refs), dtype=np.int64, count=len(refs)
            )
    by_metric = dict(zip(metrics, results))
    return ChildScan(
        refs,
        by_metric["dmin"],
        by_metric.get("dmm"),
        by_metric.get("dmax"),
        counts,
    )


def offer_leaf(
    query: Sequence[float], nodes: Sequence, neighbors: NeighborList
) -> None:
    """Offer every data object of a round's leaf *nodes* to *neighbors*.

    Frozen leaves are offered together: one kernel call over their
    gathered point slices, then one
    :meth:`~repro.core.results.NeighborList.offer_block` over the
    gathered oids.  Every other leaf scores its point matrix (the first
    of its region arrays: the low corners of degenerate MBRs, or the
    centres of zero-radius spheres) in one kernel call and offers entry
    by entry.  The neighbor list keeps the k best under a total order on
    ``(distance, oid)``, so the order of offers within a round does not
    change what it holds afterwards.
    """
    frozen = []
    for node in nodes:
        if not node.entries:
            continue
        leaf_data = getattr(node, "leaf_data", None)
        if leaf_data is not None:
            frozen.append(leaf_data)
            continue
        distances = kernels.batch_point_distance_sq(
            query, node.entry_bounds()[0]
        )
        for entry, dist_sq in zip(node.entries, distances.tolist()):
            neighbors.offer_computed(dist_sq, entry.point, entry.oid)
    if frozen:
        points = _gather([p for _, p in frozen])
        neighbors.offer_block(
            kernels.batch_point_distance_sq(query, points),
            _gather([o for o, _ in frozen]),
            points,
        )
