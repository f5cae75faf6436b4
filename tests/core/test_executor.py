"""Tests for the counting executor and its statistics."""

import pytest

from repro.core import BBSS, CRSS, CountingExecutor, FPSS


class TestCountingExecutor:
    def test_counts_every_fetch(self, parallel_tree):
        executor = CountingExecutor(parallel_tree)
        executor.execute(BBSS((0.5, 0.5), 5))
        stats = executor.last_stats
        assert stats.nodes_visited >= 2  # root plus at least one leaf
        assert stats.nodes_visited == len(stats.pages)
        assert stats.leaf_nodes >= 1
        assert stats.leaf_nodes <= stats.nodes_visited

    def test_bbss_is_strictly_serial(self, parallel_tree):
        executor = CountingExecutor(parallel_tree)
        executor.execute(BBSS((0.2, 0.8), 5))
        stats = executor.last_stats
        assert stats.max_batch == 1
        assert stats.rounds == stats.nodes_visited
        assert stats.parallelism == pytest.approx(1.0)

    def test_crss_respects_disk_bound(self, parallel_tree):
        executor = CountingExecutor(parallel_tree)
        executor.execute(
            CRSS((0.5, 0.5), 10, num_disks=parallel_tree.num_disks)
        )
        stats = executor.last_stats
        assert stats.max_batch <= parallel_tree.num_disks
        assert stats.parallelism >= 1.0

    def test_per_disk_counts_sum_to_total(self, parallel_tree):
        executor = CountingExecutor(parallel_tree)
        executor.execute(FPSS((0.5, 0.5), 10))
        stats = executor.last_stats
        assert sum(stats.per_disk.values()) == stats.nodes_visited
        assert all(
            0 <= disk < parallel_tree.num_disks for disk in stats.per_disk
        )

    def test_critical_path_bounds(self, parallel_tree):
        executor = CountingExecutor(parallel_tree)
        executor.execute(FPSS((0.5, 0.5), 10))
        stats = executor.last_stats
        # The critical path is at least the number of rounds and at most
        # the serial access count.
        assert stats.rounds <= stats.critical_path <= stats.nodes_visited

    def test_stats_reset_between_runs(self, parallel_tree):
        executor = CountingExecutor(parallel_tree)
        executor.execute(BBSS((0.5, 0.5), 1))
        first = executor.last_stats.nodes_visited
        executor.execute(BBSS((0.5, 0.5), 50))
        second = executor.last_stats.nodes_visited
        assert second >= first  # bigger query, fresh stats
