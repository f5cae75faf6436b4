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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.protocol import ChildRef


class Threshold(NamedTuple):
    """Result of the Lemma 1 computation."""

    #: Squared threshold distance D_th (``inf`` if there are no MBRs).
    dth_sq: float
    #: Number of prefix MBRs needed to guarantee k objects — CRSS's
    #: activation lower bound ``l``.  Equals ``len(entries)`` when the
    #: entries hold fewer than k objects in total.
    prefix_length: int
    #: True when the entries collectively hold at least k objects, i.e.
    #: the Lemma 1 guarantee actually applies.  When False the threshold
    #: only bounds the objects *inside these entries* — a caller whose
    #: candidate set extends beyond them (CRSS with a non-empty stack)
    #: must not prune with it.
    guaranteed: bool = True


def threshold_distance_sq(
    entries: Sequence[ChildRef],
    k: int,
    dmax_sq: Sequence[float],
    counts: Optional[np.ndarray] = None,
) -> Threshold:
    """Compute Lemma 1's threshold over *entries* for a k-NN query.

    :param entries: candidate branches with their object counts.
    :param k: number of neighbors requested.
    :param dmax_sq: squared ``Dmax`` from the query point ``P_q`` to
        each entry's region, aligned with *entries* — the round scan's
        :attr:`~repro.core.scan.ChildScan.dmax_sq`.
    :param counts: optional int64 subtree object counts aligned with
        *entries* (the scan layer's :attr:`~repro.core.scan.ChildScan
        .counts`); saves the per-entry gather.  For frozen trees this
        is a zero-copy slice of the packed count array.
    :returns: squared ``D_th`` and the qualifying prefix length.

    If the entries together hold fewer than k objects, every entry is
    needed and ``D_th`` is the largest ``Dmax`` (the k best answers may
    use any object available).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not entries:
        return Threshold(math.inf, 0, guaranteed=False)
    if len(dmax_sq) != len(entries):
        raise ValueError(
            f"dmax_sq has {len(dmax_sq)} values for {len(entries)} entries"
        )
    if counts is not None and len(counts) != len(entries):
        raise ValueError(
            f"counts has {len(counts)} values for {len(entries)} entries"
        )

    # Sort by (Dmax, count) — ties on Dmax go to the smaller count —
    # then find the shortest prefix whose counts cover k.
    values = np.asarray(dmax_sq, dtype=np.float64)
    if counts is None:
        counts = np.asarray([ref.count for ref in entries], dtype=np.int64)
    else:
        counts = np.asarray(counts, dtype=np.int64)
    order = np.lexsort((counts, values))
    covered = np.cumsum(counts[order])
    if covered[-1] >= k:
        prefix = int(np.searchsorted(covered, k, side="left"))
        return Threshold(
            float(values[order[prefix]]), prefix + 1, guaranteed=True
        )
    # Fewer than k objects in total: all entries qualify and the bound
    # only covers what these entries themselves contain.
    return Threshold(float(values[order[-1]]), len(entries), guaranteed=False)
