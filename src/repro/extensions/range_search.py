"""Parallel range queries through the fetch protocol.

The paper contrasts similarity search with range queries (§3): a range
query has a fixed, well-defined region, so after a node is read every
intersecting child can be activated at once — the visiting order is
irrelevant, unlike k-NN.  This is exactly how the multiplexed R-tree of
Kamel & Faloutsos processes window queries, and it is the paper's
Definition 1 ("range query" = similarity query with known ε) when the
region is a sphere.

Both searches are expressed as :class:`~repro.core.protocol.SearchAlgorithm`
coroutines, so the counting executor and the disk-array simulation
drive them exactly like the k-NN algorithms.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence

from repro.core.protocol import (
    FetchRequest,
    SearchAlgorithm,
    SearchCoroutine,
)
from repro.core.results import Neighbor
from repro.core.scan import scan_children
from repro.geometry.point import squared_euclidean
from repro.geometry.rect import Rect


class ParallelSphereSearch(SearchAlgorithm):
    """Similarity *range* query: all objects within ε of the query point.

    This is paper Definition 1 — the easy case where the radius is
    known in advance, processed breadth-first with full parallelism
    (which is optimal here: every activated node is provably needed).

    :param query: query point ``P_q``.
    :param epsilon: the similarity radius ε.
    """

    name = "RANGE-SPHERE"

    def __init__(self, query: Sequence[float], epsilon: float, num_disks: int = 1):
        super().__init__(query, 1, num_disks)
        if not math.isfinite(epsilon) or epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
        self.epsilon = float(epsilon)

    def run(self, root_page_id: int) -> SearchCoroutine:
        radius_sq = self.epsilon * self.epsilon
        answers: List[Neighbor] = []
        batch = [root_page_id]
        while batch:
            fetched: Mapping[int, object] = yield FetchRequest(batch)
            nodes = [fetched[page_id] for page_id in batch]
            for node in nodes:
                if node.is_leaf:
                    for entry in node.entries:
                        dist_sq = squared_euclidean(self.query, entry.point)
                        if dist_sq <= radius_sq:
                            answers.append(Neighbor(
                                math.sqrt(dist_sq), entry.point, entry.oid
                            ))
            # Every branch of the round's internal nodes in one scan.
            scan = scan_children(
                self.query_vector, [node for node in nodes if not node.is_leaf]
            )
            batch = [
                page_id
                for page_id, dmin_sq in zip(scan.pages, scan.dmin_sq)
                if dmin_sq <= radius_sq
            ]
        answers.sort(key=lambda n: (n.distance, n.oid))
        return answers


class ParallelRangeSearch(SearchAlgorithm):
    """Window query: all objects inside an axis-aligned rectangle.

    Processed breadth-first over the parallel tree (the multiplexed
    R-tree operation the paper cites from [11]).

    :param window: the query rectangle.
    """

    name = "RANGE-WINDOW"

    def __init__(self, window: Rect, num_disks: int = 1):
        super().__init__(window.center, 1, num_disks)
        self.window = window

    def run(self, root_page_id: int) -> SearchCoroutine:
        answers: List[Neighbor] = []
        batch = [root_page_id]
        while batch:
            fetched: Mapping[int, object] = yield FetchRequest(batch)
            next_batch: List[int] = []
            for page_id in batch:
                node = fetched[page_id]
                if node.is_leaf:
                    for entry in node.entries:
                        point = entry.point
                        if self.window.contains_point(point):
                            answers.append(Neighbor(
                                math.sqrt(squared_euclidean(self.query, point)),
                                point,
                                entry.oid,
                            ))
                    continue
                reaches = _WINDOW_TESTS.get(node.region_family)
                if reaches is None:
                    raise TypeError(
                        f"unsupported region type: {node.region_family}"
                    )
                for child in node.entries:
                    if reaches(self.window, child.mbr):
                        next_batch.append(child.page_id)
            batch = next_batch
        answers.sort(key=lambda n: (n.distance, n.oid))
        return answers


#: Whether a child's region reaches the query window, per region family.
#: A TV projection is not in the table: a window cannot be tested
#: against a region that bounds only some dimensions exactly.
_WINDOW_TESTS = {
    "rect": lambda window, rect: window.intersects(rect),
    "sphere": lambda window, sphere: sphere.intersects_rect(window),
    # Composite (SR-tree) region: objects live in the intersection, so
    # both parts must reach the window.
    "sr": lambda window, region: (
        window.intersects(region.rect)
        and region.sphere.intersects_rect(window)
    ),
}
