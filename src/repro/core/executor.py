"""Synchronous execution of search coroutines with access accounting.

This executor resolves every fetch immediately (no timing model) and
tallies what the algorithm touched.  It powers the *effectiveness*
experiments of the paper (Figures 8 and 9: visited nodes vs. query size)
and the weak-optimality assertions in the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.protocol import FetchRequest, SearchAlgorithm
from repro.core.results import Neighbor
from repro.obs.trace import NULL_TRACER
from repro.rtree.node import Node


@dataclass
class SearchStats:
    """Access statistics of one executed search."""

    #: Total pages fetched (the paper's "number of visited nodes").
    nodes_visited: int = 0
    #: Leaf pages among them.
    leaf_nodes: int = 0
    #: Number of fetch batches (parallel rounds).
    rounds: int = 0
    #: Largest single batch.
    max_batch: int = 0
    #: Accesses per disk id.
    per_disk: Counter = field(default_factory=Counter)
    #: Sum over rounds of the busiest disk's accesses in that round — a
    #: lower bound on I/O time in units of single-page service times,
    #: assuming perfectly parallel disks.
    critical_path: int = 0
    #: Page ids fetched, in fetch order (deduplicated per batch only).
    pages: List[int] = field(default_factory=list)
    #: Requested pages withheld by the executor's unavailable set (the
    #: algorithm saw ``None`` and skipped the subtree).
    unreachable_pages: int = 0

    @property
    def parallelism(self) -> float:
        """Average batch width — the intra-query parallelism achieved."""
        return self.nodes_visited / self.rounds if self.rounds else 0.0


class CountingExecutor:
    """Drive a search coroutine against a tree, counting page accesses.

    :param tree: a placed tree (:class:`~repro.rtree.placed.PlacedTree`):
        pages are fetched through ``page``, charged ``pages_spanned``
        each and tallied per ``disk_of``.
    :param tracer: optional :class:`~repro.obs.trace.Tracer`.  This
        executor has no clock, so it emits *logical* access events: one
        instant per fetch round at timestamp = round index, naming the
        pages and disks touched.
    :param unavailable: optional collection of page ids this executor
        refuses to deliver — requests for them resolve to ``None``, the
        protocol's degraded-mode signal.  This reproduces the simulated
        fault layer's partial answers without a clock, which is what the
        certified-radius tests verify against brute force.
    """

    def __init__(self, tree, tracer=None, unavailable=None):
        self._tree = tree
        self._disk_of = tree.disk_of
        self._pages_spanned = tree.pages_spanned
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.unavailable = frozenset(unavailable) if unavailable else frozenset()
        self.last_stats: Optional[SearchStats] = None

    def execute(self, algorithm: SearchAlgorithm) -> List[Neighbor]:
        """Run *algorithm* to completion; returns its answer list.

        Statistics for the run are left in :attr:`last_stats`.
        """
        stats = SearchStats()
        explain = algorithm.explain
        coroutine = algorithm.run(self._tree.root_page_id)
        try:
            request: FetchRequest = next(coroutine)
            while True:
                fetched = self._fetch(request, stats, explain)
                request = coroutine.send(fetched)
        except StopIteration as stop:
            self.last_stats = stats
            return stop.value if stop.value is not None else []

    def _fetch(
        self, request: FetchRequest, stats: SearchStats, explain=None
    ) -> Dict[int, Node]:
        pages = request.pages
        unavailable = self.unavailable
        page = self._tree.page
        pages_spanned = self._pages_spanned
        disk_of = self._disk_of
        per_disk = stats.per_disk
        fetched_pages = stats.pages
        fetched: Dict[int, Optional[Node]] = {}
        round_disks: Dict[int, int] = {}
        withheld: List[int] = []
        visited = leaves = 0
        for page_id in pages:
            if page_id in unavailable:
                fetched[page_id] = None
                withheld.append(page_id)
                continue
            node = fetched[page_id] = page(page_id)
            spanned = pages_spanned(page_id)
            visited += spanned
            if node.is_leaf:
                leaves += spanned
            fetched_pages.append(page_id)
            disk = disk_of(page_id)
            per_disk[disk] += spanned
            round_disks[disk] = round_disks.get(disk, 0) + spanned
        stats.nodes_visited += visited
        stats.leaf_nodes += leaves
        stats.unreachable_pages += len(withheld)
        stats.rounds += 1
        stats.max_batch = max(stats.max_batch, len(pages))
        if explain is not None:
            explain.observe_round(
                [p for p in pages if p not in unavailable], withheld
            )
        stats.critical_path += max(round_disks.values()) if round_disks else 1
        if self.tracer.enabled:
            self.tracer.instant(
                "executor", "fetch_round", "logical",
                ts=float(stats.rounds - 1),
                args={
                    "pages": list(pages),
                    "disks": dict(round_disks),
                    "batch": len(pages),
                },
            )
        return fetched
