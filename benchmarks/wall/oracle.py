"""Brute-force k-NN oracle, vectorised in numpy.

Independent of every index structure and search algorithm in ``repro``:
distances come from one subtraction, square and row sum over the raw
point matrix.  The reference order is ascending ``(distance, oid)``, as
``tests/conftest.py::brute_force_knn`` breaks ties.

numpy's row sum and the library's kernels may add the squared
coordinate differences in a different order, so two distances that are
equal on paper can differ in the last bit.  Comparisons against the
k-th distance therefore leave ``TIE`` of relative slack: an object
within the slack of the k-th distance may be in the answer or not.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: Relative slack on squared distances around the k-th neighbour.
TIE = 1e-12
#: Relative tolerance on a reported distance against the true one.
REPORTED = 1e-9


class Oracle:
    """Checks k-NN answers over a fixed point set.

    :param points: ``(oid, point)`` pairs of every stored object.
    """

    def __init__(self, points: Iterable):
        pairs = sorted(points)
        self._oids = np.array([oid for oid, _ in pairs], dtype=np.int64)
        self._matrix = np.array([point for _, point in pairs], dtype=float)
        self._row_of = {oid: row for row, (oid, _) in enumerate(pairs)}

    def __len__(self) -> int:
        return len(self._oids)

    def check(
        self,
        query: Sequence[float],
        k: int,
        answers: Sequence,
        certified_radius: float = math.inf,
    ) -> bool:
        """Whether *answers* is an acceptable reply to the k-NN *query*.

        With an infinite *certified_radius* the reply must be the exact
        k nearest neighbours in ascending distance.  With a finite one
        (a degraded reply) it must still contain every object that is
        both among the true k nearest and closer than the radius — the
        certificate's promise — and may hold fewer than k objects.

        :param answers: ``Neighbor``-like triples
            ``(distance, point, oid)``.
        """
        dist_sq = ((self._matrix - np.asarray(query, dtype=float)) ** 2).sum(
            axis=1
        )
        k = min(k, len(dist_sq))
        kth_sq = float(np.partition(dist_sq, k - 1)[k - 1])
        exact = math.isinf(certified_radius)
        if exact and len(answers) != k:
            return False
        if len(answers) > k:
            return False

        answer_oids = [answer[2] for answer in answers]
        if len(set(answer_oids)) != len(answer_oids):
            return False
        previous = -math.inf
        for distance, _, oid in answers:
            row = self._row_of.get(oid)
            if row is None:
                return False
            true_sq = float(dist_sq[row])
            if not math.isclose(
                distance, math.sqrt(true_sq), rel_tol=REPORTED, abs_tol=1e-15
            ):
                return False
            if exact and true_sq > kth_sq * (1.0 + TIE):
                return False
            if distance < previous:
                return False
            previous = distance

        limit_sq = kth_sq
        if not exact:
            limit_sq = min(limit_sq, certified_radius * certified_radius)
        must_have = self._oids[dist_sq < limit_sq * (1.0 - TIE)]
        return set(must_have.tolist()) <= set(answer_oids)
