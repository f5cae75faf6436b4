"""The fetch protocol connecting search algorithms to executors.

Every similarity search algorithm in this package is a *coroutine over
page fetches*: it yields a :class:`FetchRequest` naming the disk pages it
wants next (its *activation list*, in the paper's terms), suspends, and is
resumed with the fetched pages.  The algorithm never touches the tree
directly — which pages it sees is exactly which pages it paid for.

Two executors drive such coroutines:

* :class:`repro.core.executor.CountingExecutor` resolves fetches
  immediately and tallies node accesses (effectiveness experiments), and
* :class:`repro.simulation.simulator.SimulatedExecutor` resolves them
  through the event-driven disk array model (response-time experiments).

The one-batch-at-a-time, barrier-per-batch semantics mirrors the paper's
activation structure: requests for a step are collected, sent to the
disks, and processing resumes when the whole step has been fetched.

**Degraded mode.**  An executor may resume the coroutine with ``None``
for a page it could not deliver (a crashed disk, retries exhausted, a
blown per-query deadline).  Algorithms handle this by *skipping* the
unreachable subtree and recording its ``Dmin`` lower bound via
:meth:`SearchAlgorithm.note_unreachable`.  The accumulated bounds yield
the **certified radius**: the search has provably seen every object
closer than ``min(Dmin)`` over the unreachable subtrees, so a partial
answer is exact up to that radius — the guarantee the fault-injection
tests verify against brute force.
"""

from __future__ import annotations

import math
from typing import Generator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point, validate_point
from repro.rtree.node import Node


class FetchRequest:
    """A batch of page ids the algorithm wants fetched in parallel."""

    __slots__ = ("pages",)

    def __init__(self, pages: Sequence[int]):
        if len(pages) == 1:
            # BBSS's every request, and a lone CRSS activation.
            unique = (int(pages[0]),)
        else:
            unique = tuple(dict.fromkeys(int(p) for p in pages))
        if not unique:
            raise ValueError("a fetch request must name at least one page")
        self.pages: Tuple[int, ...] = unique

    def __len__(self) -> int:
        return len(self.pages)

    def __repr__(self) -> str:
        return f"FetchRequest(pages={self.pages})"


#: What an algorithm coroutine looks like to an executor.  In degraded
#: mode the mapping's values may be ``None`` for unreachable pages.
SearchCoroutine = Generator[FetchRequest, Mapping[int, Optional[Node]], "list"]


class SearchAlgorithm:
    """Base class for the four k-NN search algorithms.

    Subclasses implement :meth:`run` as a generator following the fetch
    protocol.  The constructor validates the query once so every algorithm
    rejects bad input identically.

    :param query: the query point ``P_q``.
    :param k: number of nearest neighbors requested.
    :param num_disks: disks in the array — CRSS uses it as the activation
        upper bound *u*; the others ignore it.
    """

    #: Short name used in experiment reports ("BBSS", "CRSS", ...).
    name = "abstract"

    #: True for algorithms needing oracle knowledge (WOPTSS only).
    requires_oracle = False

    def __init__(self, query: Sequence[float], k: int, num_disks: int = 1):
        self.query: Point = validate_point(query)
        #: The query as a float64 vector, converted once per search for
        #: every kernel call it makes.
        self.query_vector = np.asarray(self.query, dtype=np.float64)
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if num_disks < 1:
            raise ValueError(f"num_disks must be positive, got {num_disks}")
        self.k = k
        self.num_disks = num_disks
        #: Squared ``Dmin`` lower bounds of subtrees the executor could
        #: not deliver (empty on a fault-free run).
        self._unreachable_dmin_sq: List[float] = []
        #: Optional :class:`~repro.obs.explain.ExplainRecorder` capturing
        #: the traversal decision log.  ``None`` (the default) keeps
        #: every instrumented path a no-op; attaching one never changes
        #: the search (the recorder is write-only and draws no RNG).
        self.explain = None

    # -- degraded-mode certificate -------------------------------------------

    def note_unreachable(self, dmin_sq: float) -> None:
        """Record a subtree the search had to skip.

        :param dmin_sq: squared lower bound on the distance from the
            query to any object inside the lost subtree (``0.0`` when
            the root itself was unreachable).
        """
        self._unreachable_dmin_sq.append(max(0.0, dmin_sq))

    def split_round(
        self,
        batch: Sequence[int],
        fetched: Mapping[int, Optional[Node]],
        pending: Mapping[int, float],
    ) -> Tuple[List[Node], List[Node]]:
        """A fetch round's ``(leaves, internal nodes)``, each in batch order.

        Pages that never arrived are recorded via
        :meth:`note_unreachable` with their ``Dmin`` bound from
        *pending*.
        """
        leaves: List[Node] = []
        internal: List[Node] = []
        for page_id in batch:
            node = fetched.get(page_id)
            if node is None:
                self.note_unreachable(pending[page_id])
            elif node.is_leaf:
                leaves.append(node)
            else:
                internal.append(node)
        return leaves, internal

    @property
    def unreachable_pages(self) -> int:
        """Subtrees skipped because their page never arrived."""
        return len(self._unreachable_dmin_sq)

    @property
    def complete(self) -> bool:
        """True when the answer reflects every relevant subtree."""
        return not self._unreachable_dmin_sq

    @property
    def certified_radius_sq(self) -> float:
        """Squared :attr:`certified_radius` (``inf`` when complete)."""
        if not self._unreachable_dmin_sq:
            return math.inf
        return min(self._unreachable_dmin_sq)

    @property
    def certified_radius(self) -> float:
        """Radius within which the (partial) answer is provably exact.

        Every data object closer to the query than this radius was
        scanned: unreachable subtrees all have ``Dmin`` at or above it,
        and subtrees *pruned* during the search have ``Dmin`` above the
        k-th best observed distance, which only shrinks as more objects
        are seen.  ``inf`` for a complete search.
        """
        radius_sq = self.certified_radius_sq
        return math.sqrt(radius_sq) if math.isfinite(radius_sq) else math.inf

    def run(self, root_page_id: int) -> SearchCoroutine:
        """Start the search; yields fetch requests, returns the answer.

        The return value (via ``StopIteration.value``) is a list of
        :class:`~repro.core.results.Neighbor` sorted by ascending
        distance.
        """
        raise NotImplementedError
