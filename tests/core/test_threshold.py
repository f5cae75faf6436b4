"""Tests for the Lemma 1 threshold distance."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.distances import maximum_distance_sq
from repro.core.threshold import threshold_distance_sq
from repro.geometry.point import euclidean
from repro.geometry.rect import Rect
from repro.perf import kernels
from tests.core import oracle


def ref(low, high, count, page_id=0):
    return oracle.Branch(Rect(low, high), count, page_id)


def lemma1(query, entries, k, counts=None):
    """Lemma 1 over *entries* with the kernel ``Dmax`` and the int64
    count row a scan would pass (*counts* overrides the row)."""
    dmax_sq = kernels.batch_maximum_distance_sq(
        query,
        np.array([e.rect.low for e in entries]).reshape(-1, len(query)),
        np.array([e.rect.high for e in entries]).reshape(-1, len(query)),
    ).tolist()
    if counts is None:
        counts = np.array([e.count for e in entries], dtype=np.int64)
    return threshold_distance_sq(dmax_sq, counts, k)


class TestThresholdBasics:
    def test_empty_entries(self):
        result = lemma1((0.0, 0.0), [], k=3)
        assert result.dth_sq == math.inf
        assert result.prefix_length == 0
        assert not result.guaranteed

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            lemma1((0.0,), [], k=0)

    def test_single_entry_covers_k(self):
        entries = [ref((1.0, 0.0), (2.0, 1.0), count=10)]
        result = lemma1((0.0, 0.0), entries, k=5)
        assert result.guaranteed
        assert result.prefix_length == 1
        assert result.dth_sq == pytest.approx(
            maximum_distance_sq((0.0, 0.0), entries[0].rect)
        )

    def test_prefix_accumulates_counts(self):
        # Three MBRs at increasing distance, 3 objects each; k=5 needs
        # the two nearest.
        entries = [
            ref((3.0, 0.0), (4.0, 1.0), count=3),
            ref((1.0, 0.0), (2.0, 1.0), count=3),
            ref((6.0, 0.0), (7.0, 1.0), count=3),
        ]
        result = lemma1((0.0, 0.5), entries, k=5)
        assert result.guaranteed
        assert result.prefix_length == 2
        # The threshold is the Dmax of the second-nearest (by Dmax) MBR.
        second = sorted(
            maximum_distance_sq((0.0, 0.5), e.rect) for e in entries
        )[1]
        assert result.dth_sq == pytest.approx(second)

    def test_insufficient_objects_not_guaranteed(self):
        entries = [
            ref((1.0, 0.0), (2.0, 1.0), count=2),
            ref((3.0, 0.0), (4.0, 1.0), count=2),
        ]
        result = lemma1((0.0, 0.0), entries, k=100)
        assert not result.guaranteed
        assert result.prefix_length == 2
        # Falls back to the largest Dmax: everything must be inspected.
        worst = max(maximum_distance_sq((0.0, 0.0), e.rect) for e in entries)
        assert result.dth_sq == pytest.approx(worst)


coord = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32)


@st.composite
def entries_with_points(draw):
    """Random MBRs, each with the points it actually contains."""
    n_rects = draw(st.integers(min_value=1, max_value=8))
    entries = []
    all_points = []
    for page_id in range(n_rects):
        pairs = draw(
            st.tuples(st.tuples(coord, coord), st.tuples(coord, coord))
        )
        (x1, y1), (x2, y2) = pairs
        rect = Rect((min(x1, x2), min(y1, y2)), (max(x1, x2), max(y1, y2)))
        n_points = draw(st.integers(min_value=1, max_value=5))
        points = []
        for _ in range(n_points):
            fx = draw(st.floats(min_value=0.0, max_value=1.0, width=32))
            fy = draw(st.floats(min_value=0.0, max_value=1.0, width=32))
            points.append(
                (
                    rect.low[0] + fx * (rect.high[0] - rect.low[0]),
                    rect.low[1] + fy * (rect.high[1] - rect.low[1]),
                )
            )
        entries.append(oracle.Branch(rect, n_points, page_id))
        all_points.extend(points)
    return entries, all_points


class TestLemma1Property:
    @given(
        entries_with_points(),
        st.tuples(coord, coord),
        st.integers(min_value=1, max_value=10),
    )
    def test_threshold_sphere_contains_k_best(self, setup, query, k):
        """Lemma 1: the k best answers lie within distance D_th.

        Built directly from the lemma's own premises: MBRs with known
        object counts and actual member points inside each MBR.
        """
        entries, points = setup
        result = lemma1(query, entries, k)
        if not result.guaranteed:
            return  # fewer than k objects: the lemma does not apply
        dth = math.sqrt(result.dth_sq)
        distances = sorted(euclidean(query, p) for p in points)
        for d in distances[:k]:
            assert d <= dth + 1e-6


class TestScalarVectorizedBitIdentity:
    """Lemma 1 must agree bit-for-bit with the loop it replaced.

    The oracle (``tests/core/oracle.py``) sorts ``(Dmax, count)``
    tuples over per-rectangle ``core.distances`` values; the kept form
    lexsorts the same keys over kernel values and cumsum/searchsorteds
    the prefix.  Adversarial inputs target exactly where they could
    diverge: equal Dmax values with differing counts (tie-break order),
    zero-count entries (prefix padding), and k beyond the total object
    count (the not-guaranteed fall-through).
    """

    @staticmethod
    def both_paths(query, entries, k, counts=None):
        # What the algorithms do: hand over the kernel Dmax of the scan.
        vec = lemma1(query, entries, k, counts=counts)
        dmax_sq = [maximum_distance_sq(query, ref.rect) for ref in entries]
        if counts is None:
            counts = [ref.count for ref in entries]
        assert vec == threshold_distance_sq(dmax_sq, counts, k)
        return vec, oracle.threshold_distance_sq(entries, k, dmax_sq)

    @given(
        st.lists(
            st.tuples(
                st.tuples(coord, coord),
                st.tuples(coord, coord),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1,
            max_size=12,
        ),
        st.tuples(coord, coord),
        st.integers(min_value=1, max_value=64),
    )
    def test_random_entries_bit_identical(self, raw, query, k):
        entries = []
        for page_id, ((x1, y1), (x2, y2), count) in enumerate(raw):
            rect = Rect(
                (min(x1, x2), min(y1, y2)), (max(x1, x2), max(y1, y2))
            )
            entries.append(oracle.Branch(rect, count, page_id))
        vec, scalar = self.both_paths(query, entries, k)
        assert vec == scalar  # dth_sq, prefix_length, guaranteed — exact

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=2,
                 max_size=10),
        st.integers(min_value=1, max_value=20),
    )
    def test_equal_dmax_ties_with_differing_counts(self, counts, k):
        """All MBRs identical → every Dmax ties; order hangs on counts."""
        rect = Rect((1.0, 1.0), (2.0, 2.0))
        entries = [
            oracle.Branch(rect, count, page_id)
            for page_id, count in enumerate(counts)
        ]
        vec, scalar = self.both_paths((0.0, 0.0), entries, k)
        assert vec == scalar

    def test_zero_count_entries_never_satisfy_k(self):
        entries = [
            oracle.Branch(Rect((1.0, 0.0), (2.0, 1.0)), 0, 0),
            oracle.Branch(Rect((3.0, 0.0), (4.0, 1.0)), 0, 1),
        ]
        vec, scalar = self.both_paths((0.0, 0.0), entries, k=1)
        assert vec == scalar
        assert not vec.guaranteed
        assert vec.prefix_length == len(entries)

    def test_k_beyond_total_objects(self):
        entries = [
            oracle.Branch(Rect((1.0, 0.0), (2.0, 1.0)), 3, 0),
            oracle.Branch(Rect((5.0, 0.0), (6.0, 1.0)), 2, 1),
        ]
        vec, scalar = self.both_paths((0.0, 0.0), entries, k=6)
        assert vec == scalar
        assert not vec.guaranteed

    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1,
                 max_size=10),
        st.integers(min_value=1, max_value=30),
    )
    def test_explicit_counts_array_matches_ref_gather(self, counts, k):
        """An int64 count row and a list of ints give one result."""
        entries = [
            oracle.Branch(
                Rect((float(i), 0.0), (float(i) + 1.0, 1.0)), count, i
            )
            for i, count in enumerate(counts)
        ]
        packed = np.asarray(counts, dtype=np.int64)
        with_counts, scalar = self.both_paths(
            (0.0, 0.5), entries, k, counts=packed
        )
        without = lemma1((0.0, 0.5), entries, k)
        assert with_counts == without == scalar

    def test_counts_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="counts"):
            threshold_distance_sq(
                [2.0], np.asarray([2, 3], dtype=np.int64), 1
            )
