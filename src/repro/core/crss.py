"""CRSS — Candidate Reduction Similarity Search (paper §3.3).

The paper's proposed algorithm.  It combines breadth-first activation
(for parallelism) with depth-first deferral (for pruning precision):

* a **threshold distance** ``D_th`` is maintained — from Lemma 1 while
  descending (ADAPTIVE mode), from the k-th best actual distance once
  data objects have been reached (UPDATE / NORMAL modes);
* the **candidate reduction criterion** sorts each fetched branch into
  *rejected* (``Dmin > D_th``), *active* (``Dmm < D_th`` — it surely
  contains relevant objects), or *saved* on the candidate stack for
  possible later use;
* the number of simultaneously activated branches is bounded between
  ``l`` (enough MBRs to guarantee k objects, from Lemma 1's prefix) and
  ``u = NumOfDisks`` — "a balance between parallelism exploitation and
  similarity search refinement";
* saved candidates go onto a **stack of runs** so deeper (more precise)
  candidates are always re-inspected before shallower ones.

The four operating modes of the paper's Figure 6 (ADAPTIVE, UPDATE,
NORMAL, TERMINATE) appear here as the phases of the main loop.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.protocol import (
    FetchRequest,
    SearchAlgorithm,
    SearchCoroutine,
)
from repro.core.results import NeighborList
from repro.core.scan import offer_leaf, scan_children
from repro.core.stack import Candidate, CandidateStack
from repro.core.threshold import threshold_distance_sq
from repro.rtree.node import Node


class CRSS(SearchAlgorithm):
    """The paper's candidate-reduction search.

    :param query: query point.
    :param k: neighbors requested.
    :param num_disks: the activation upper bound ``u`` (§3.3 sets
        ``u = NumOfDisks`` so one step can keep every disk busy without
        over-fetching).
    :param max_active: override for ``u`` — used by the activation-bound
        ablation bench; defaults to *num_disks*.
    """

    name = "CRSS"

    def __init__(
        self,
        query: Sequence[float],
        k: int,
        num_disks: int = 1,
        max_active: int = 0,
    ):
        super().__init__(query, k, num_disks)
        self.max_active = max_active if max_active > 0 else num_disks

    def run(self, root_page_id: int) -> SearchCoroutine:
        neighbors = NeighborList(self.query, self.k)
        stack = CandidateStack()
        #: Exposed for telemetry: the executor's timeline sampler reads
        #: ``len(self.stack)`` between rounds (``crss.stack_depth``).
        self.stack = stack
        dth_sq = math.inf          # Lemma 1 threshold (ADAPTIVE phase)
        reached_leaves = False     # switches ADAPTIVE -> NORMAL/UPDATE

        explain = self.explain
        batch = [root_page_id]
        # Dmin lower bound per in-flight page — the certificate of any
        # page that fails to arrive (degraded mode).
        pending = {root_page_id: 0.0}
        while batch:
            fetched: Mapping[int, Node] = yield FetchRequest(batch)
            leaves, internal = self.split_round(batch, fetched, pending)
            # UPDATE mode: new data objects refine the k-th best.
            offer_leaf(self.query_vector, leaves, neighbors)
            leaves_in_batch = bool(leaves)
            reached_leaves = reached_leaves or leaves_in_batch

            # The round's internal nodes are scored in one scan: Dmin
            # and Dmm always (the reduction criterion), Dmax only while
            # no leaf has been reached, before or in this round — Lemma
            # 1 is evaluated only then, so skipping Dmax otherwise
            # cannot change an answer.
            scan = scan_children(
                self.query_vector, internal,
                want_dmm=True, want_dmax=not reached_leaves,
            )
            frontier = scan.pages

            if not reached_leaves:
                # ADAPTIVE mode: tighten D_th from Lemma 1.  Only safe to
                # tighten when the frontier alone guarantees k objects —
                # otherwise answers may hide in stacked candidates beyond
                # the frontier's reach.
                threshold = threshold_distance_sq(
                    scan.dmax_sq, scan.counts, self.k
                )
                lower_bound = 1
                if threshold.guaranteed:
                    dth_sq = min(dth_sq, threshold.dth_sq)
                    lower_bound = min(threshold.prefix_length, self.max_active)
                radius_sq = dth_sq
                prune_reason = "lemma1"
            else:
                # NORMAL mode: the query sphere is now bounded by actual
                # data (or still infinite if fewer than k objects seen).
                radius_sq = min(dth_sq, neighbors.kth_distance_sq())
                lower_bound = 1
                prune_reason = (
                    "lemma1"
                    if dth_sq <= neighbors.kth_distance_sq()
                    else "kth"
                )
            if explain is not None:
                explain.mode(
                    "ADAPTIVE"
                    if not reached_leaves
                    else ("UPDATE" if leaves_in_batch else "NORMAL")
                )
                explain.threshold(dth_sq, neighbors.kth_distance_sq())

            active, saved = self._reduce(
                frontier, scan.dmin_sq, scan.dmm_sq, radius_sq, lower_bound,
                prune_reason,
            )
            stack.push_run(saved)
            if explain is not None and saved:
                explain.stacked(len(saved))

            # No activation from the frontier: fall back to the stack
            # (the paper's Get-Candidate-Run), run by run.
            while not active and not stack.empty:
                radius_sq = min(dth_sq, neighbors.kth_distance_sq())
                run = stack.pop_run()
                survivors = stack.filter_popped(run, radius_sq)
                if explain is not None:
                    # The guard cut: once one candidate of a run misses
                    # the sphere, the rest of the run is rejected at once.
                    for candidate in run[len(survivors):]:
                        explain.prune(candidate.page_id, "guard")
                if not survivors:
                    continue
                active = survivors[: self.max_active]
                leftover = survivors[self.max_active:]
                if leftover:
                    stack.push_run(leftover)

            # TERMINATE mode: nothing active and nothing stacked.
            batch = [candidate.page_id for candidate in active]
            pending = {c.page_id: c.dmin_sq for c in active}
        if explain is not None:
            explain.mode("TERMINATE")
        return neighbors.as_sorted()

    def _reduce(
        self,
        frontier: List[int],
        dmin_sq: List[float],
        dmm_sq: List[float],
        radius_sq: float,
        lower_bound: int,
        prune_reason: str = "lemma1",
    ) -> Tuple[List[Candidate], List[Candidate]]:
        """Apply the candidate reduction criterion plus the l..u bound.

        *frontier* holds the branches' child page ids; *dmin_sq* /
        *dmm_sq* are their batch-computed distances, aligned with it.
        Returns ``(active, saved)``; rejected branches are dropped (and
        recorded under *prune_reason* when an explain recorder is
        attached).

        The whole criterion runs as numpy mask/argsort operations over
        the frontier arrays.  Every sort is stable: within equal
        ``Dmin``, original frontier order is preserved, and in the saved
        run preferred-overflow precedes qualified.
        """
        if not frontier:
            return [], []
        explain = self.explain
        dmin = np.asarray(dmin_sq, dtype=np.float64)
        dmm = np.asarray(dmm_sq, dtype=np.float64)
        # Criterion (i): Dmin beyond the sphere is rejected outright.
        keep = dmin <= radius_sq
        if explain is not None:
            for i in np.flatnonzero(~keep).tolist():
                explain.prune(frontier[i], prune_reason)
        # Criterion (ii): Dmm inside the sphere surely holds answers —
        # activate; criterion (iii): the rest is saved.
        preferred_idx = np.flatnonzero(keep & (dmm < radius_sq))
        qualified_idx = np.flatnonzero(keep & (dmm >= radius_sq))
        preferred_idx = preferred_idx[
            np.argsort(dmin[preferred_idx], kind="stable")
        ]
        # Upper bound u: overflow becomes the head of the saved run.
        active_idx = preferred_idx[: self.max_active]
        rest_idx = np.concatenate(
            (preferred_idx[self.max_active:], qualified_idx)
        )
        saved_idx = rest_idx[np.argsort(dmin[rest_idx], kind="stable")]
        # Candidates carry the scan's own float objects, not array
        # scalars.
        active = [
            Candidate(dmin_sq[i], frontier[i]) for i in active_idx.tolist()
        ]
        saved = [
            Candidate(dmin_sq[i], frontier[i]) for i in saved_idx.tolist()
        ]

        # Lower bound l: promote the most promising saved candidates so
        # at least l branches (enough to guarantee k objects) are active.
        promote = min(max(lower_bound - len(active), 0), len(saved))
        if promote:
            active.extend(saved[:promote])
            saved = saved[promote:]
        return active, saved
