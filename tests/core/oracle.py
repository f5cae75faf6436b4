"""The scalar Lemma 1 and CRSS reduction loops, kept as the oracle.

These are the loops ``repro.core.threshold`` and ``repro.core.crss`` ran
behind the ``use_vectorized(False)`` switch before the array forms
became the only query path — moved here verbatim (the method became a
function taking ``max_active`` and ``explain``, nothing else changed).
The differential tests require the array forms to return the same
threshold, the same active and saved runs in the same order, and to
report the same prunes in the same order, always.
"""

from typing import List, Sequence, Tuple

from repro.core.protocol import ChildRef
from repro.core.stack import Candidate
from repro.core.threshold import Threshold


def threshold_distance_sq(
    entries: Sequence[ChildRef], k: int, dmax_sq: Sequence[float]
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
    frontier: List[ChildRef],
    dmin_sq: List[float],
    dmm_sq: List[float],
    radius_sq: float,
    lower_bound: int,
    max_active: int,
    prune_reason: str = "lemma1",
    explain=None,
) -> Tuple[List[Candidate], List[Candidate]]:
    """The candidate reduction criterion plus the l..u bound, entry by entry."""
    qualified: List[Candidate] = []
    preferred: List[Candidate] = []  # Dmm < D_th: surely useful
    for ref, ref_dmin_sq, ref_dmm_sq in zip(frontier, dmin_sq, dmm_sq):
        if ref_dmin_sq > radius_sq:
            if explain is not None:
                explain.prune(ref.page_id, prune_reason)
            continue  # criterion (i): rejected outright
        candidate = Candidate(ref_dmin_sq, ref)
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
