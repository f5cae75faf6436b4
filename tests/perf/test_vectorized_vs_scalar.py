"""Differential tests: batch kernels vs the scalar reference oracle.

Every comparison here is exact float equality (``==``), never a
tolerance.  The kernels in :mod:`repro.perf.kernels` are written to
perform the same IEEE-754 operations in the same order as the scalar
functions in :mod:`repro.core.distances`, so any discrepancy — however
small — is a bug, and a tolerance would hide it.
"""

import numpy as np
import pytest

from repro.core.distances import (
    maximum_distance_sq,
    minimum_distance_sq,
    minmax_distance_sq,
)
from repro.core.regions import KERNELS
from repro.core.threshold import threshold_distance_sq
from repro.geometry.point import squared_euclidean
from repro.geometry.rect import Rect
from repro.obs.metrics import MetricsRegistry
from repro.perf import kernels
from tests.core import oracle

DIMS = [2, 3, 5, 7, 10, 13, 16, 20]

KERNEL_PAIRS = [
    (kernels.batch_minimum_distance_sq, minimum_distance_sq),
    (kernels.batch_minmax_distance_sq, minmax_distance_sq),
    (kernels.batch_maximum_distance_sq, maximum_distance_sq),
]


def random_mbrs(dims, n, seed, degenerate=False):
    """Seeded random (lows, highs) corner matrices, MBRs possibly points."""
    rng = np.random.default_rng(seed)
    lows = rng.uniform(-5.0, 5.0, (n, dims))
    if degenerate:
        highs = lows.copy()
    else:
        highs = lows + rng.uniform(0.0, 3.0, (n, dims))
    return lows, highs


def as_rects(lows, highs):
    return [
        Rect(tuple(lo), tuple(hi))
        for lo, hi in zip(lows.tolist(), highs.tolist())
    ]


def random_queries(dims, lows, highs, seed, count=5):
    """Queries scattered around, inside, and far from the MBRs."""
    rng = np.random.default_rng(seed)
    queries = [tuple(rng.uniform(-6.0, 6.0, dims).tolist()) for _ in range(3)]
    # One query inside the first MBR, one far outside everything.
    inside = (lows[0] + highs[0]) / 2.0
    queries.append(tuple(inside.tolist()))
    queries.append(tuple((rng.uniform(50.0, 60.0, dims)).tolist()))
    return queries[:count]


@pytest.mark.parametrize("dims", DIMS)
def test_batch_kernels_match_scalar_exactly(dims):
    lows, highs = random_mbrs(dims, 64, seed=dims)
    rects = as_rects(lows, highs)
    for query in random_queries(dims, lows, highs, seed=100 + dims):
        for batch_fn, scalar_fn in KERNEL_PAIRS:
            got = batch_fn(query, lows, highs).tolist()
            expected = [scalar_fn(query, rect) for rect in rects]
            assert got == expected, (batch_fn.__name__, dims)


@pytest.mark.parametrize("dims", DIMS)
def test_degenerate_point_mbrs(dims):
    """Point MBRs (low == high): all three metrics equal the point distance."""
    lows, highs = random_mbrs(dims, 32, seed=200 + dims, degenerate=True)
    rects = as_rects(lows, highs)
    query = tuple(np.random.default_rng(300 + dims).uniform(-5, 5, dims))
    for batch_fn, scalar_fn in KERNEL_PAIRS:
        got = batch_fn(query, lows, highs).tolist()
        expected = [scalar_fn(query, rect) for rect in rects]
        assert got == expected, batch_fn.__name__
    # And the leaf-scan kernel agrees with the scalar point distance —
    # point MBRs are exactly how leaves are cached (low == the point).
    got = kernels.batch_point_distance_sq(query, lows).tolist()
    expected = [squared_euclidean(query, tuple(row)) for row in lows.tolist()]
    assert got == expected
    # For a point MBR, Dmin and Dmax collapse to the point distance
    # bit-exactly (same per-axis gaps, same accumulation order).  Dmm is
    # only *mathematically* equal: its ``far_total - far + near``
    # reassociation can land an ulp away — identically so in the scalar
    # oracle, which the loop above already checked.
    assert kernels.batch_minimum_distance_sq(query, lows, highs).tolist() == got
    assert kernels.batch_maximum_distance_sq(query, lows, highs).tolist() == got
    dmm = kernels.batch_minmax_distance_sq(query, lows, highs)
    np.testing.assert_allclose(dmm, got, rtol=1e-12)


@pytest.mark.parametrize("dims", DIMS)
def test_query_on_mbr_faces(dims):
    """Queries placed exactly on MBR faces — the branch-boundary cases.

    Every coordinate of the query coincides with either the low or the
    high corner of the first MBR, so each ``p < lo`` / ``p > hi`` /
    ``p <= mid`` comparison in the kernels runs at exact equality.
    """
    lows, highs = random_mbrs(dims, 16, seed=400 + dims)
    rects = as_rects(lows, highs)
    rng = np.random.default_rng(500 + dims)
    for _ in range(4):
        picks = rng.integers(0, 2, dims)
        query = tuple(
            (lows[0, axis] if picks[axis] else highs[0, axis])
            for axis in range(dims)
        )
        for batch_fn, scalar_fn in KERNEL_PAIRS:
            got = batch_fn(query, lows, highs).tolist()
            expected = [scalar_fn(query, rect) for rect in rects]
            assert got == expected, batch_fn.__name__
        # On the boundary of (or inside) the MBR: Dmin is exactly zero.
        assert kernels.batch_minimum_distance_sq(query, lows, highs)[0] == 0.0


#: Broadcast kernel -> the per-axis loop it replaced (tests/core/oracle.py).
LOOP_PAIRS = [
    (kernels.batch_minimum_distance_sq, oracle.minimum_distance_sq),
    (kernels.batch_minmax_distance_sq, oracle.minmax_distance_sq),
    (kernels.batch_maximum_distance_sq, oracle.maximum_distance_sq),
]


def assert_kernels_exact(query, lows, highs):
    """All four kernels: ``==`` the scalar functions, bits of the loops."""
    rects = as_rects(np.asarray(lows), np.asarray(highs))
    for (batch_fn, scalar_fn), (_, loop_fn) in zip(KERNEL_PAIRS, LOOP_PAIRS):
        got = batch_fn(query, lows, highs)
        assert got.tolist() == [scalar_fn(query, rect) for rect in rects]
        assert got.tobytes() == loop_fn(query, lows, highs).tobytes()
    got = kernels.batch_point_distance_sq(query, lows)
    assert got.tolist() == [
        squared_euclidean(query, tuple(row)) for row in np.asarray(lows).tolist()
    ]
    assert got.tobytes() == oracle.point_distance_sq(query, lows).tobytes()


class TestBroadcastKernels:
    """The one-broadcast + column-fold kernels at their edges."""

    @pytest.mark.parametrize("dims", [1, 2, 10])
    def test_no_rows(self, dims):
        empty = np.empty((0, dims))
        assert_kernels_exact((0.5,) * dims, empty, empty)
        assert kernels.batch_minmax_distance_sq(
            (0.5,) * dims, empty, empty
        ).shape == (0,)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_dimension(self, seed):
        lows, highs = random_mbrs(1, 40, seed=1200 + seed)
        for query in random_queries(1, lows, highs, seed=1300 + seed):
            assert_kernels_exact(query, lows, highs)

    @pytest.mark.parametrize("dims", [1, 3, 10])
    def test_queries_on_faces(self, dims):
        lows, highs = random_mbrs(dims, 16, seed=1400 + dims)
        rng = np.random.default_rng(1500 + dims)
        for _ in range(4):
            picks = rng.integers(0, 2, dims)
            query = tuple(np.where(picks, lows[0], highs[0]).tolist())
            assert_kernels_exact(query, lows, highs)

    @pytest.mark.parametrize("dims", [1, 2, 5])
    def test_signed_zero_coordinates(self, dims):
        rng = np.random.default_rng(1600 + dims)
        lows = rng.choice([-0.0, 0.0, -1.0, 0.5], size=(24, dims))
        highs = lows + rng.choice([-0.0, 0.0, 1.0], size=(24, dims))
        for query in ((0.0,) * dims, (-0.0,) * dims,
                      tuple(rng.choice([-0.0, 0.0, 0.25], dims).tolist())):
            assert_kernels_exact(query, lows, highs)

    @pytest.mark.parametrize("dims", [2, 7])
    def test_empty_roots_zero_row(self, dims):
        from repro.rtree import FlatTree, RStarTree

        flat = FlatTree.from_tree(RStarTree(dims))
        lows, highs = flat.level_lows[0], flat.level_highs[0]
        assert lows.tolist() == [[0.0] * dims]
        assert_kernels_exact((0.3,) * dims, lows, highs)

    @pytest.mark.parametrize("dims", [2, 10])
    def test_strided_level_slices(self, dims):
        """Every-other-row, reversed and column-strided views."""
        lows, highs = random_mbrs(2 * dims, 64, seed=1700 + dims)
        query = tuple(np.random.default_rng(1800).uniform(-5, 5, dims))
        for rows in (slice(None, None, 2), slice(None, None, -1),
                     slice(5, 41, 3)):
            for columns in (slice(None, None, 2), slice(dims, None)):
                assert_kernels_exact(
                    query, lows[rows, columns], highs[rows, columns]
                )


@pytest.mark.parametrize("dims", [2, 10])
def test_batch_region_distances_paths_agree(dims):
    """The rectangle kernel table equals the per-region dispatchers."""
    lows, highs = random_mbrs(dims, 40, seed=600 + dims)
    rects = as_rects(lows, highs)
    query = tuple(np.random.default_rng(700 + dims).uniform(-5, 5, dims))
    metrics = ["dmin", "dmm", "dmax"]
    vectorized = [
        KERNELS["rect", metric](query, lows, highs).tolist()
        for metric in metrics
    ]
    scalar = [
        [dispatch(query, rect) for rect in rects]
        for dispatch in (
            oracle.region_minimum_distance_sq,
            oracle.region_minmax_distance_sq,
            oracle.region_maximum_distance_sq,
        )
    ]
    assert vectorized == scalar


@pytest.mark.parametrize("k", [1, 3, 10, 50, 1000])
def test_threshold_paths_agree(k):
    """Lemma 1 returns the Threshold of the tuple-sort loop it replaced.

    The MBR set contains duplicated rectangles (equal ``Dmax``) with
    different subtree counts, so the lexsort tie-break is exercised
    against the oracle's tuple sort.
    """
    lows, highs = random_mbrs(4, 20, seed=800)
    rects = as_rects(lows, highs)
    rng = np.random.default_rng(801)
    entries = [
        oracle.Branch(rect, int(count), page_id)
        for page_id, (rect, count) in enumerate(
            zip(rects, rng.integers(1, 30, len(rects)))
        )
    ]
    # Duplicates: same rect (same Dmax), different counts and page ids.
    entries += [
        oracle.Branch(entries[i].rect, int(rng.integers(1, 30)), 100 + i)
        for i in (0, 3, 7)
    ]
    query = tuple(rng.uniform(-5, 5, 4))
    dmax_sq = kernels.batch_maximum_distance_sq(
        query,
        [ref.rect.low for ref in entries],
        [ref.rect.high for ref in entries],
    ).tolist()
    vectorized = threshold_distance_sq(
        dmax_sq, np.array([ref.count for ref in entries], np.int64), k
    )
    scalar = oracle.threshold_distance_sq(
        entries, k, [maximum_distance_sq(query, ref.rect) for ref in entries]
    )
    assert vectorized == scalar
    assert vectorized.dth_sq == scalar.dth_sq
    assert vectorized.prefix_length == scalar.prefix_length
    assert vectorized.guaranteed == scalar.guaranteed


def test_threshold_rejects_misaligned_dmax():
    counts = np.ones(4, dtype=np.int64)
    with pytest.raises(ValueError, match="dmax_sq has"):
        threshold_distance_sq([1.0], counts, 2)


class TestInstrumentation:
    def test_vector_counters(self):
        registry = MetricsRegistry()
        previous = kernels.instrument_kernels(registry)
        try:
            lows, highs = random_mbrs(3, 17, seed=1000)
            query = (0.0, 0.0, 0.0)
            kernels.batch_minimum_distance_sq(query, lows, highs)
            kernels.batch_minmax_distance_sq(query, lows, highs)
            kernels.batch_maximum_distance_sq(query, lows, highs)
            kernels.batch_point_distance_sq(query, lows)
        finally:
            kernels.instrument_kernels(previous)
        for metric in ("dmin", "dmm", "dmax", "pointdist"):
            assert registry.counter(
                f"kernels.{metric}.vector_batches"
            ).value == 1
            assert registry.counter(
                f"kernels.{metric}.vector_entries"
            ).value == 17

    def test_scalar_counters(self):
        """No access method scores a region outside the kernels.

        All four algorithms over the five trees (R*, SS, SR, TV view,
        X) leave only ``vector`` counters — for every query metric.
        """
        from repro.core import BBSS, CRSS, FPSS, WOPTSS, CountingExecutor
        from repro.datasets import gaussian, sample_queries
        from repro.extensions.srtree import build_parallel_srtree
        from repro.extensions.sstree import build_parallel_sstree
        from repro.extensions.tvtree import build_tv_view
        from repro.extensions.xtree import build_parallel_xtree
        from repro.parallel import build_parallel_tree

        data = gaussian(300, 4, seed=1003)
        options = dict(dims=4, num_disks=3)
        trees = [
            build_parallel_tree(data, max_entries=8, **options),
            build_parallel_sstree(data, max_entries=8, **options),
            build_parallel_srtree(data, max_entries=8, **options),
            build_tv_view(data, active=2, page_size=512, **options),
            build_parallel_xtree(data, max_entries=8, **options),
        ]
        registry = MetricsRegistry()
        previous = kernels.instrument_kernels(registry)
        try:
            for tree in trees:
                executor = CountingExecutor(tree)
                for q in sample_queries(data, 3, seed=1004):
                    dk = tree.kth_nearest_distance(q, 5)
                    for search in (BBSS(q, 5), FPSS(q, 5),
                                   CRSS(q, 5, num_disks=3),
                                   WOPTSS(q, 5, oracle_dk=dk)):
                        executor.execute(search)
        finally:
            kernels.instrument_kernels(previous)
        names = [counter.name for counter in registry]
        assert not any("scalar" in name for name in names)
        for metric in ("dmin", "dmm", "dmax", "pointdist"):
            assert f"kernels.{metric}.vector_entries" in names

    def test_detached_registry_sees_nothing(self):
        registry = MetricsRegistry()
        previous = kernels.instrument_kernels(registry)
        kernels.instrument_kernels(previous)
        lows, highs = random_mbrs(2, 4, seed=1002)
        kernels.batch_minimum_distance_sq((0.0, 0.0), lows, highs)
        assert list(registry) == []


class TestValidation:
    def test_dimension_mismatch(self):
        lows, highs = random_mbrs(3, 4, seed=1100)
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernels.batch_minimum_distance_sq((0.0, 0.0), lows, highs)
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernels.batch_point_distance_sq((0.0, 0.0), lows)

    def test_shape_mismatch(self):
        lows, highs = random_mbrs(3, 4, seed=1101)
        with pytest.raises(ValueError, match="corner matrices"):
            kernels.batch_maximum_distance_sq((0.0,) * 3, lows, highs[:2])
