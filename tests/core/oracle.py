"""The read side's replaced loops, kept as the oracle.

* The scalar Lemma 1 and CRSS reduction loops ``repro.core.threshold``
  and ``repro.core.crss`` ran behind the ``use_vectorized(False)``
  switch before the array forms became the only query path — moved
  here verbatim (the method became a function taking ``max_active`` and
  ``explain``, nothing else changed).  The differential tests require
  the array forms to return the same threshold, the same active and
  saved runs in the same order, and to report the same prunes in the
  same order, always.
* The per-axis distance kernels, the per-node scans and the unfiltered
  ``NeighborList.offer_block`` loop that ``repro.perf.kernels``,
  ``repro.core.scan`` and ``repro.core.results`` ran before a scan's
  unit became the fetch round — moved here verbatim, except that the
  kernels' names lost their ``batch_`` prefix and the method became a
  function taking the neighbor list, which the per-node leaf scan
  calls, and that scan reads a frozen leaf's answer points from the
  tree's packed rows, not from the ``leaf_data`` under test.  The
  round scans must return the concatenation of the
  per-node scans, the broadcast kernels the loops' floats, and the
  filtered block offer the loop's heap.
* ``NeighborList.offer_computed``, the per-entry offer pointer leaves
  took before every leaf went through the block offer — moved here
  verbatim, except that the method became a function taking the
  neighbor list.  The block offer must leave the items this loop
  leaves, with the same answer-point objects.
* The per-region distance dispatchers of ``repro.core.regions`` and the
  ``dmin_sq`` / ``dmm_sq`` / ``dmax_sq`` methods of
  ``repro.extensions.tvtree.TVRegion``, which scored SS-tree spheres,
  SR-tree rect ∩ sphere pairs and TV regions one region at a time
  before every region family got batch kernels — moved here verbatim,
  except that the TV methods became functions taking the region first,
  the dispatchers reach them by ``isinstance`` instead of ``getattr``,
  the batch loop counts no kernel use, and the per-node leaf scan's
  ``offer_many`` call became its loop.  The sphere, SR and TV kernels
  must return these floats, and a round scan over such nodes the
  concatenation of the per-node, per-region scans.
* Both ``Dmm`` loops (the per-axis rect kernel and the SR dispatcher)
  took the kernels' clamp to ``Dmin`` when the kernels did, so a
  rounding that puts ``Dmm`` below ``Dmin`` can never prune the answer;
  the SR ``Dmax`` dispatcher took the SR kernel's clamp to ``Dmm`` the
  same way.  The rect loop then took the kernel's exact-monotone form
  in place of its clamp: each axis's guarantee is folded on its own in
  axis order (``near_k²`` in place *k*, ``far_j²`` elsewhere), with
  ``far_j = max(|q - lo|, |q - hi|)`` instead of the edge opposite the
  midpoint's choice, so it cannot round below the object on its face
  or below ``Dmin``.  The SR clamps stay.
* ``BBSS.run`` and ``BBSS._visit`` as they were before BBSS offered a
  fetched leaf child in place: :class:`RecursiveBBSS`, the visit moved
  here as ``_visit_any`` except that it scans and offers through this
  module's per-node ``scan_children`` / ``offer_leaf`` and the comments
  are gone.  BBSS must leave the same answers, pages, rounds, certified
  radius and explain log.
* ``repro.extensions.tvtree.TVRegion`` and ``TVTreeView.project``, and
  the branch objects ``repro.core.protocol.child_refs`` built for every
  scan before scans returned rows — moved here when their last caller
  in ``src/`` went.  ``TVRegion`` is verbatim; ``project`` became a
  function taking the view; ``ChildRef`` became :class:`Branch` and
  ``child_refs`` :func:`branches`, which projects a TV view's children
  itself (the view no longer holds projected child objects).  The
  per-node scans still score these objects region by region, so a
  round scan's rows must line up with them.
"""

import math

import heapq
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.bbss import BBSS
from repro.core.distances import (
    maximum_distance_sq as rect_maximum_distance_sq,
    minimum_distance_sq as rect_minimum_distance_sq,
    minmax_distance_sq as rect_minmax_distance_sq,
)
from repro.core.protocol import FetchRequest
from repro.core.results import NeighborList
from repro.core.stack import Candidate
from repro.core.threshold import Threshold
from repro.geometry.point import squared_euclidean
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere
from repro.perf import kernels
from repro.perf.kernels import _as_matrices, record_kernel_use
from repro.rtree.flat import FlatNode


class TVRegion:
    """A directory region with exact bounds on the active dimensions
    only; the inactive tail is bounded by the global data box."""

    __slots__ = ("active_rect", "tail_rect")

    def __init__(self, active_rect: Rect, tail_rect: Optional[Rect]):
        self.active_rect = active_rect
        self.tail_rect = tail_rect

    @property
    def dims(self) -> int:
        """Full dimensionality (active + tail)."""
        tail = self.tail_rect.dims if self.tail_rect is not None else 0
        return self.active_rect.dims + tail

    def __repr__(self) -> str:
        return (
            f"TVRegion(active={self.active_rect}, tail={self.tail_rect})"
        )


def project(view, rect: Rect) -> TVRegion:
    """The TV region of a full-dimensional MBR under *view*."""
    active = view.active
    root_mbr = view._tree.tree.root.mbr
    tail = None
    if root_mbr is not None and active < view.dims:
        tail = Rect(root_mbr.low[active:], root_mbr.high[active:])
    return TVRegion(Rect(rect.low[:active], rect.high[:active]), tail)


class Branch(NamedTuple):
    """The on-page data describing one branch of an internal node.

    This corresponds to the paper's modified internal entry
    ``(R, count, child_ptr)`` — the subtree object count is the §2.1
    structural addition that Lemma 1 relies on.
    """

    rect: object
    count: int
    page_id: int


def branches(node) -> List[Branch]:
    """The branch entries stored in an internal *node*'s page.

    A TV view's branches carry the TV projection of each child's MBR.
    """
    if node.region_family == "tv":
        view, node = node._view, node._node
        return [
            Branch(project(view, child.mbr), child.object_count,
                   child.page_id)
            for child in node.entries
        ]
    return [
        Branch(child.mbr, child.object_count, child.page_id)
        for child in node.entries
    ]


def threshold_distance_sq(
    entries: Sequence[Branch], k: int, dmax_sq: Sequence[float]
) -> Threshold:
    """Lemma 1 by tuple sort: the shortest ``Dmax``-ordered prefix holding k."""
    by_dmax = sorted(zip(dmax_sq, (ref.count for ref in entries)))
    covered = 0
    for prefix_length, (value, count) in enumerate(by_dmax, start=1):
        covered += count
        if covered >= k:
            return Threshold(value, prefix_length, guaranteed=True)
    # Fewer than k objects in total: all entries qualify and the bound
    # only covers what these entries themselves contain.
    return Threshold(by_dmax[-1][0], len(by_dmax), guaranteed=False)


def reduce_candidates(
    frontier: List[int],
    dmin_sq: List[float],
    dmm_sq: List[float],
    radius_sq: float,
    lower_bound: int,
    max_active: int,
    prune_reason: str = "lemma1",
    explain=None,
) -> Tuple[List[Candidate], List[Candidate]]:
    """The candidate reduction criterion plus the l..u bound, entry by
    entry, over the frontier's child page ids."""
    qualified: List[Candidate] = []
    preferred: List[Candidate] = []  # Dmm < D_th: surely useful
    for page_id, ref_dmin_sq, ref_dmm_sq in zip(frontier, dmin_sq, dmm_sq):
        if ref_dmin_sq > radius_sq:
            if explain is not None:
                explain.prune(page_id, prune_reason)
            continue  # criterion (i): rejected outright
        candidate = Candidate(ref_dmin_sq, page_id)
        if ref_dmm_sq < radius_sq:
            preferred.append(candidate)  # criterion (ii): activate
        else:
            qualified.append(candidate)  # criterion (iii): save

    preferred.sort(key=lambda c: c.dmin_sq)
    qualified.sort(key=lambda c: c.dmin_sq)

    # Upper bound u: overflow becomes the head of the saved run.
    active = preferred[:max_active]
    saved = sorted(
        preferred[max_active:] + qualified, key=lambda c: c.dmin_sq
    )

    # Lower bound l: promote the most promising saved candidates so
    # at least l branches (enough to guarantee k objects) are active.
    promote = min(max(lower_bound - len(active), 0), len(saved))
    if promote:
        active.extend(saved[:promote])
        saved = saved[promote:]
    return active, saved


# -- per-axis kernels ------------------------------------------------------


def minimum_distance_sq(point, lows, highs) -> np.ndarray:
    """Squared ``Dmin`` from *point* to each of *n* MBRs, all at once.

    Exact batch twin of
    :func:`repro.core.distances.minimum_distance_sq`.
    """
    query, low_m, high_m = _as_matrices(point, lows, highs)
    total = np.zeros(low_m.shape[0], dtype=np.float64)
    for axis in range(low_m.shape[1]):
        p = query[axis]
        lo = low_m[:, axis]
        hi = high_m[:, axis]
        gap = np.where(p < lo, lo - p, np.where(p > hi, p - hi, 0.0))
        total += gap * gap
    record_kernel_use("dmin", low_m.shape[0])
    return total


def maximum_distance_sq(point, lows, highs) -> np.ndarray:
    """Squared ``Dmax`` from *point* to each of *n* MBRs, all at once.

    Exact batch twin of
    :func:`repro.core.distances.maximum_distance_sq`.
    """
    query, low_m, high_m = _as_matrices(point, lows, highs)
    total = np.zeros(low_m.shape[0], dtype=np.float64)
    for axis in range(low_m.shape[1]):
        p = query[axis]
        far = np.maximum(np.abs(p - low_m[:, axis]), np.abs(high_m[:, axis] - p))
        total += far * far
    record_kernel_use("dmax", low_m.shape[0])
    return total


def minmax_distance_sq(point, lows, highs) -> np.ndarray:
    """Squared ``Dmm`` (MINMAXDIST) from *point* to each MBR, all at once.

    Exact batch twin of
    :func:`repro.core.distances.minmax_distance_sq`: the per-axis
    near/far face squared distances are materialized as ``(n, dims)``
    columns, each axis's guarantee is accumulated axis by axis in
    scalar order (the near face's term in its own place), and the
    minimum over the per-axis guarantees is taken last (min is
    order-insensitive, so ``numpy.minimum`` is safe).
    """
    query, low_m, high_m = _as_matrices(point, lows, highs)
    n, dims = low_m.shape
    near_sq = np.empty((n, dims), dtype=np.float64)
    far_sq = np.empty((n, dims), dtype=np.float64)
    for axis in range(dims):
        p = query[axis]
        lo = low_m[:, axis]
        hi = high_m[:, axis]
        mid = (lo + hi) / 2.0
        near = p - np.where(p <= mid, lo, hi)
        far = np.maximum(np.abs(p - lo), np.abs(p - hi))
        near_sq[:, axis] = near * near
        far_sq[:, axis] = far * far
    best = np.full(n, np.inf)
    for k in range(dims):
        total = np.zeros(n, dtype=np.float64)
        for axis in range(dims):
            total += near_sq[:, k] if axis == k else far_sq[:, axis]
        best = np.minimum(best, total)
    record_kernel_use("dmm", n)
    return best


def point_distance_sq(point, points) -> np.ndarray:
    """Squared Euclidean distance from *point* to each row of *points*.

    Exact batch twin of
    :func:`repro.geometry.point.squared_euclidean` — this is the leaf
    scan kernel, where ``points`` is the cached low-corner matrix of a
    leaf node (degenerate MBRs: low == high == the data point).
    """
    query = np.asarray(point, dtype=np.float64)
    matrix = np.asarray(points, dtype=np.float64)
    if query.ndim != 1 or matrix.ndim != 2:
        raise ValueError(
            f"expected a point and an (n, dims) matrix, got shapes "
            f"{query.shape}, {matrix.shape}"
        )
    if query.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"dimension mismatch: {query.shape[0]} vs {matrix.shape[1]}"
        )
    total = np.zeros(matrix.shape[0], dtype=np.float64)
    for axis in range(matrix.shape[1]):
        diff = query[axis] - matrix[:, axis]
        total += diff * diff
    record_kernel_use("pointdist", matrix.shape[0])
    return total


# -- per-region dispatchers ------------------------------------------------


def tv_minimum_distance_sq(region: TVRegion, point: Sequence[float]) -> float:
    """Active-dims Dmin plus the global-box Dmin on the tail."""
    head, tail = _split_query(region, point)
    total = rect_minimum_distance_sq(head, region.active_rect)
    if region.tail_rect is not None:
        total += rect_minimum_distance_sq(tail, region.tail_rect)
    return total


def tv_maximum_distance_sq(region: TVRegion, point: Sequence[float]) -> float:
    """Active-dims Dmax plus the global-box Dmax on the tail."""
    head, tail = _split_query(region, point)
    total = rect_maximum_distance_sq(head, region.active_rect)
    if region.tail_rect is not None:
        total += rect_maximum_distance_sq(tail, region.tail_rect)
    return total


def tv_minmax_distance_sq(region: TVRegion, point: Sequence[float]) -> float:
    """No MINMAXDIST guarantee survives the projection: Dmax."""
    return tv_maximum_distance_sq(region, point)


def _split_query(region: TVRegion, point: Sequence[float]):
    active = region.active_rect.dims
    return tuple(point[:active]), tuple(point[active:])


def region_minimum_distance_sq(point: Sequence[float], region) -> float:
    """Squared optimistic bound ``Dmin`` for any region shape.

    Composite regions (the SR-tree's rect ∩ sphere) expose ``rect`` and
    ``sphere`` attributes; the objects they bound lie in the
    *intersection*, so the larger of the two ``Dmin`` values is the
    valid (and tighter) bound.
    """
    if isinstance(region, Rect):
        return rect_minimum_distance_sq(point, region)
    if isinstance(region, Sphere):
        gap = (
            math.sqrt(squared_euclidean(point, region.center)) - region.radius
        )
        return gap * gap if gap > 0.0 else 0.0
    if isinstance(region, TVRegion):
        return tv_minimum_distance_sq(region, point)
    return max(
        region_minimum_distance_sq(point, region.rect),
        region_minimum_distance_sq(point, region.sphere),
    )


def region_minmax_distance_sq(point: Sequence[float], region) -> float:
    """Squared pessimistic bound ``Dmm`` for any region shape.

    For a composite region the rectangle part is a true MBR (every face
    touches an object), so its MINMAXDIST guarantee applies; the sphere
    contributes ``Dmax`` as its best guarantee, and the smaller of the
    two existence bounds wins, clamped to the region's ``Dmin`` as the
    kernel clamps it.
    """
    if isinstance(region, Rect):
        return rect_minmax_distance_sq(point, region)
    if isinstance(region, Sphere):
        return region_maximum_distance_sq(point, region)
    if isinstance(region, TVRegion):
        return tv_minmax_distance_sq(region, point)
    return max(
        min(
            region_minmax_distance_sq(point, region.rect),
            region_maximum_distance_sq(point, region.sphere),
        ),
        region_minimum_distance_sq(point, region),
    )


def region_maximum_distance_sq(point: Sequence[float], region) -> float:
    """Squared farthest distance ``Dmax`` for any region shape.

    For a composite region no object can exceed either part's ``Dmax``,
    so the smaller of the two is the valid bound, clamped to the
    region's ``Dmm`` as the kernel clamps it.
    """
    if isinstance(region, Rect):
        return rect_maximum_distance_sq(point, region)
    if isinstance(region, Sphere):
        reach = (
            math.sqrt(squared_euclidean(point, region.center)) + region.radius
        )
        return reach * reach
    if isinstance(region, TVRegion):
        return tv_maximum_distance_sq(region, point)
    return max(
        min(
            region_maximum_distance_sq(point, region.rect),
            region_maximum_distance_sq(point, region.sphere),
        ),
        region_minmax_distance_sq(point, region),
    )


_BATCH_SCALAR = {
    "dmin": region_minimum_distance_sq,
    "dmm": region_minmax_distance_sq,
    "dmax": region_maximum_distance_sq,
}


def batch_region_distances(
    point: Sequence[float],
    regions: Sequence,
    metrics: Sequence[str],
) -> List[List[float]]:
    """Evaluate distance *metrics* for every region in one batch.

    Rectangle batches run on the rectangle kernels; any other region
    shape goes through the per-region dispatchers above.
    """
    unknown = [m for m in metrics if m not in _BATCH_SCALAR]
    if unknown:
        raise ValueError(f"unknown distance metrics: {unknown}")
    if regions and all(isinstance(r, Rect) for r in regions):
        lows = np.array([r.low for r in regions], dtype=np.float64)
        highs = np.array([r.high for r in regions], dtype=np.float64)
        return [
            _VECTOR_KERNELS[m](point, lows, highs).tolist() for m in metrics
        ]
    results = []
    for m in metrics:
        scalar = _BATCH_SCALAR[m]
        results.append([scalar(point, region) for region in regions])
    return results


# -- per-node scans --------------------------------------------------------

#: metric name -> batch kernel, for the pre-flattened bounds fast path.
_VECTOR_KERNELS = {
    "dmin": kernels.batch_minimum_distance_sq,
    "dmm": kernels.batch_minmax_distance_sq,
    "dmax": kernels.batch_maximum_distance_sq,
}


class ChildScan(NamedTuple):
    """Per-entry distances for one internal node's branches."""

    refs: List[Branch]
    dmin_sq: Optional[List[float]]
    dmm_sq: Optional[List[float]] = None
    dmax_sq: Optional[List[float]] = None
    counts: Optional[np.ndarray] = None


def _node_bounds(node):
    """The cached corner matrices of a rectangle node, else None.

    Sphere, SR and TV nodes are scored region by region, as they were
    before they had kernels.
    """
    if node.region_family != "rect":
        return None
    return node.entry_bounds()


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
    refs = branches(node)
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
    unfiltered block-offer loop; pointer leaves offer entry by entry.
    Leaves without a point matrix (the extension access methods) take
    the neighbor list's own per-entry distance loop.  All three admit
    exactly the same objects.
    """
    if not node.entries:
        return
    bounds = _node_bounds(node)
    if bounds is not None:
        distances = kernels.batch_point_distance_sq(query, bounds[0])
        if isinstance(node, FlatNode):
            # The packed rows themselves, not the node's ``leaf_data``:
            # the oracle builds its answer points independently.
            tree = node.tree
            start = node.entry_offset
            stop = start + node.entry_count
            offer_block(neighbors, distances, tree.oids[start:stop],
                        tree.points[start:stop])
            return
        for entry, dist_sq in zip(node.entries, distances.tolist()):
            offer_computed(neighbors, dist_sq, entry.point, entry.oid)
        return
    for entry in node.entries:
        neighbors.offer(entry.point, entry.oid)


def offer_computed(
    neighbors: NeighborList, dist_sq: float, point: Sequence[float], oid: int
) -> float:
    """Consider a data object whose squared distance is already known."""
    item = (-dist_sq, -oid, tuple(point))
    if not neighbors.full:
        heapq.heappush(neighbors._heap, item)
    elif item > neighbors._heap[0]:
        # Better than the current k-th (smaller distance, or equal
        # distance with smaller oid) — replace the worst.
        heapq.heapreplace(neighbors._heap, item)
    return dist_sq


def offer_block(neighbors: NeighborList, dist_sq, oids, points) -> None:
    """``NeighborList.offer_block`` without the block filter."""
    heap = neighbors._heap
    k = neighbors.k
    dist_list = (
        dist_sq.tolist() if hasattr(dist_sq, "tolist") else list(dist_sq)
    )
    oid_list = oids.tolist() if hasattr(oids, "tolist") else list(oids)
    for i, (dist, oid) in enumerate(zip(dist_list, oid_list)):
        if len(heap) < k:
            heapq.heappush(
                heap, (-dist, -oid, tuple(points[i].tolist()))
            )
        else:
            top = heap[0]
            if -dist > top[0] or (-dist == top[0] and -oid > top[1]):
                heapq.heapreplace(
                    heap, (-dist, -oid, tuple(points[i].tolist()))
                )


# -- BBSS with a generator per leaf ----------------------------------------


class RecursiveBBSS(BBSS):
    """BBSS visiting a leaf child as a subtree of its own: one more
    generator, whose body offers the leaf."""

    def run(self, root_page_id):
        neighbors = NeighborList(self.query, self.k)
        fetched = yield FetchRequest([root_page_id])
        root = fetched.get(root_page_id)
        if root is None:
            self.note_unreachable(0.0)
            return neighbors.as_sorted()
        yield from self._visit_any(root, neighbors)
        return neighbors.as_sorted()

    def _visit_any(self, node, neighbors):
        if node.is_leaf:
            offer_leaf(self.query, node, neighbors)
            return
        scan = scan_children(self.query, node, want_dmm=True)
        pages = [ref.page_id for ref in scan.refs]
        branches = sorted(zip(scan.dmin_sq, scan.dmm_sq, pages))
        explain = self.explain
        if self.k == 1 and branches:
            best_dmm_sq = min(dmm_sq for _, dmm_sq, _ in branches)
            if explain is not None:
                for b_dmin_sq, _, b_page_id in branches:
                    if b_dmin_sq > best_dmm_sq:
                        explain.prune(b_page_id, "rule1_dmm")
            branches = [b for b in branches if b[0] <= best_dmm_sq]
        for dmin_sq, _, page_id in branches:
            if dmin_sq > neighbors.kth_distance_sq():
                if explain is not None:
                    explain.prune(page_id, "kth")
                continue
            if explain is not None:
                explain.threshold(math.inf, neighbors.kth_distance_sq())
            fetched = yield FetchRequest([page_id])
            child = fetched.get(page_id)
            if child is None:
                self.note_unreachable(dmin_sq)
                continue
            yield from self._visit_any(child, neighbors)
