"""The threshold distance of Lemma 1 (paper §3.2).

Given MBRs ``R_1..R_m`` with subtree object counts ``O(R_j)``, sort them
by ascending ``Dmax`` from the query point and take the shortest prefix
whose counts sum to at least *k*.  The sphere centered at the query with
radius ``Dmax`` of the last prefix element is then **guaranteed** to
contain the k nearest neighbors: those prefix MBRs alone already hold k
objects, and none of their objects can lie outside that sphere.

Both FPSS and CRSS prune with this threshold before any data object has
been seen; CRSS additionally uses the prefix length as the lower bound
``l`` on how many branches must be activated.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np


class Threshold(NamedTuple):
    """Result of the Lemma 1 computation."""

    #: Squared threshold distance D_th (``inf`` if there are no MBRs).
    dth_sq: float
    #: Number of prefix MBRs needed to guarantee k objects — CRSS's
    #: activation lower bound ``l``.  Equals the number of branches when
    #: they hold fewer than k objects in total.
    prefix_length: int
    #: True when the branches collectively hold at least k objects, i.e.
    #: the Lemma 1 guarantee actually applies.  When False the threshold
    #: only bounds the objects *inside these branches* — a caller whose
    #: candidate set extends beyond them (CRSS with a non-empty stack)
    #: must not prune with it.
    guaranteed: bool = True


def threshold_distance_sq(
    dmax_sq: Sequence[float], counts: Sequence[int], k: int
) -> Threshold:
    """Compute Lemma 1's threshold over a frontier of branches.

    :param dmax_sq: squared ``Dmax`` from the query point ``P_q`` to
        each branch's region — the round scan's
        :attr:`~repro.core.scan.ChildScan.dmax_sq`.
    :param counts: the branches' subtree object counts, aligned with
        *dmax_sq* — the round scan's
        :attr:`~repro.core.scan.ChildScan.counts` (for frozen trees a
        zero-copy slice of the packed count array).
    :param k: number of neighbors requested.
    :returns: squared ``D_th`` and the qualifying prefix length.

    If the branches together hold fewer than k objects, every branch is
    needed and ``D_th`` is the largest ``Dmax`` (the k best answers may
    use any object available).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not len(counts):
        return Threshold(math.inf, 0, guaranteed=False)
    if len(dmax_sq) != len(counts):
        raise ValueError(
            f"dmax_sq has {len(dmax_sq)} values for {len(counts)} counts"
        )

    # Sort by (Dmax, count) — ties on Dmax go to the smaller count —
    # then find the shortest prefix whose counts cover k.
    values = np.asarray(dmax_sq, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    order = np.lexsort((counts, values))
    covered = np.cumsum(counts[order])
    if covered[-1] >= k:
        prefix = int(np.searchsorted(covered, k, side="left"))
        return Threshold(
            float(values[order[prefix]]), prefix + 1, guaranteed=True
        )
    # Fewer than k objects in total: all branches qualify and the bound
    # only covers what these branches themselves contain.
    return Threshold(float(values[order[-1]]), len(counts), guaranteed=False)
