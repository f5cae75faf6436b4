"""Tests for the TV-style reduced-dimension tree view."""

import math
import random

import pytest

from repro.core import BBSS, CRSS, CountingExecutor, FPSS, WOPTSS
from repro.core.scan import scan_children
from repro.datasets import gaussian, uniform
from repro.extensions.tvtree import (
    TVTreeView,
    build_tv_view,
    tv_directory_capacity,
)
from repro.geometry.rect import Rect
from repro.parallel import build_parallel_tree
from tests.conftest import brute_force_knn
from tests.core.oracle import (
    TVRegion,
    branches,
    project,
    region_maximum_distance_sq,
    region_minimum_distance_sq,
    region_minmax_distance_sq,
    tv_maximum_distance_sq,
    tv_minimum_distance_sq,
    tv_minmax_distance_sq,
)


class TestTVRegion:
    def test_dims(self):
        region = TVRegion(
            Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.0,), (1.0,))
        )
        assert region.dims == 3
        no_tail = TVRegion(Rect((0.0, 0.0), (1.0, 1.0)), None)
        assert no_tail.dims == 2

    def test_bounds_decompose_by_dims(self):
        region = TVRegion(
            Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.0,), (1.0,))
        )
        q = (2.0, 0.5, 3.0)
        # Dmin: 1.0 (active x) + 0 (active y inside) + 4.0 (tail gap).
        assert tv_minimum_distance_sq(region, q) == pytest.approx(1.0 + 4.0)
        # Dmax: farthest corners on every axis.
        assert tv_maximum_distance_sq(region, q) == pytest.approx(
            4.0 + 0.25 + 9.0
        )
        assert tv_minmax_distance_sq(region, q) == tv_maximum_distance_sq(
            region, q
        )

    def test_region_protocol_dispatch(self):
        """A view's round scan gives the oracle's per-region bounds."""
        data = gaussian(300, 4, seed=90)
        view = build_tv_view(
            data, dims=4, num_disks=3, active=2, page_size=512
        )
        internal = [
            view.page(page_id) for page_id in sorted(view._tree.tree.pages)
            if not view._tree.page(page_id).is_leaf
        ]
        q = (0.5, 0.5, 2.0, -1.0)
        scan = scan_children(q, internal, want_dmm=True, want_dmax=True)
        rows = [branch for node in internal for branch in branches(node)]
        assert scan.pages == [branch.page_id for branch in rows]
        assert scan.counts.tolist() == [branch.count for branch in rows]
        regions = [branch.rect for branch in rows]
        assert all(isinstance(region, TVRegion) for region in regions)
        for values, dispatch in (
            (scan.dmin_sq, region_minimum_distance_sq),
            (scan.dmm_sq, region_minmax_distance_sq),
            (scan.dmax_sq, region_maximum_distance_sq),
        ):
            assert values == [dispatch(q, region) for region in regions]

    def test_bounds_are_valid_relaxations(self):
        """The TV bounds bracket the true full-dimensional bounds."""
        full = Rect((0.2, 0.3, 0.4), (0.6, 0.7, 0.8))
        global_tail = Rect((0.0,), (1.0,))
        region = TVRegion(Rect(full.low[:2], full.high[:2]), global_tail)
        rng = random.Random(1)
        from repro.core.distances import (
            maximum_distance_sq,
            minimum_distance_sq,
        )

        for _ in range(50):
            q = tuple(rng.uniform(-0.5, 1.5) for _ in range(3))
            assert tv_minimum_distance_sq(region, q) <= (
                minimum_distance_sq(q, full) + 1e-9
            )
            assert tv_maximum_distance_sq(region, q) >= (
                maximum_distance_sq(q, full) - 1e-9
            )


class TestTVTreeView:
    @pytest.fixture(scope="class")
    def tv(self):
        data = gaussian(800, 6, seed=91)
        return build_tv_view(
            data, dims=6, num_disks=4, active=2, page_size=1024
        ), data

    def test_directory_capacity_grows(self):
        assert tv_directory_capacity(4096, 2) > tv_directory_capacity(4096, 8)

    def test_invalid_active(self):
        data = uniform(50, 3, seed=92)
        tree = build_parallel_tree(data, dims=3, num_disks=2, max_entries=8)
        with pytest.raises(ValueError, match="active"):
            TVTreeView(tree, active=0)
        with pytest.raises(ValueError, match="active"):
            TVTreeView(tree, active=4)

    def test_active_equal_dims_has_no_tail(self):
        data = uniform(100, 2, seed=93)
        tree = build_parallel_tree(data, dims=2, num_disks=2, max_entries=8)
        view = TVTreeView(tree, active=2)
        region = project(view, Rect((0.1, 0.1), (0.2, 0.2)))
        assert region.tail_rect is None

    def test_all_algorithms_exact_over_tv_view(self, tv):
        view, data = tv
        executor = CountingExecutor(view)
        rng = random.Random(3)
        for _ in range(8):
            q = tuple(rng.random() for _ in range(6))
            k = rng.choice([1, 5, 15])
            expected = [oid for _, oid in brute_force_knn(data, q, k)]
            dk = view.kth_nearest_distance(q, k)
            for algorithm in (
                BBSS(q, k),
                FPSS(q, k),
                CRSS(q, k, num_disks=4),
                WOPTSS(q, k, oracle_dk=dk),
            ):
                got = [n.oid for n in executor.execute(algorithm)]
                assert got == expected, algorithm.name

    def test_looser_bounds_than_full_dim_tree(self, tv):
        """The TV view never visits fewer pages than a weak-optimal
        search on its own (projected) regions would — and relative to
        the underlying tree's exact regions, its WOPTSS visits at least
        as many pages."""
        view, data = tv
        underlying = view._tree
        executor_view = CountingExecutor(view)
        executor_full = CountingExecutor(underlying)
        q = tuple(0.5 for _ in range(6))
        k = 10
        dk = view.kth_nearest_distance(q, k)
        executor_view.execute(WOPTSS(q, k, oracle_dk=dk))
        executor_full.execute(WOPTSS(q, k, oracle_dk=dk))
        assert (
            executor_view.last_stats.nodes_visited
            >= executor_full.last_stats.nodes_visited
        )

    def test_window_query_over_tv_view_is_unsupported(self, tv):
        """A window query cannot test a projected region: it refuses."""
        from repro.extensions.range_search import ParallelRangeSearch

        view, _ = tv
        window = Rect((0.0,) * 6, (1.0,) * 6)
        with pytest.raises(TypeError, match="unsupported region"):
            CountingExecutor(view).execute(ParallelRangeSearch(window))

    def test_simulation_runs_over_tv_view(self, tv):
        from repro.datasets import sample_queries
        from repro.simulation import simulate_workload

        view, data = tv
        queries = sample_queries(data, 5, seed=94)
        result = simulate_workload(
            view,
            lambda q: CRSS(q, 5, num_disks=view.num_disks),
            queries,
            arrival_rate=3.0,
            seed=95,
        )
        assert len(result.records) == 5
        for record in result.records:
            expected = [n.oid for n in view.knn(record.query, 5)]
            assert [n.oid for n in record.answers] == expected
