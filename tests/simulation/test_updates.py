"""Tests for the mixed query/insertion workload simulator."""

import pytest

from repro.core import CRSS
from repro.datasets import gaussian, sample_queries, uniform
from repro.extensions.sstree import build_parallel_sstree
from repro.extensions.xtree import build_parallel_xtree
from repro.parallel import build_parallel_tree
from repro.rtree import check_invariants
from repro.rtree.flat import flatten
from repro.serving import frontend
from repro.simulation import ReadWriteLock, simulate_mixed_workload, simulator
from repro.simulation.parameters import SystemParameters
from repro.simulation.system import DiskArraySystem


def fresh_setup(n=600, disks=4, seed=61):
    data = uniform(n, 2, seed=seed)
    tree = build_parallel_tree(data, dims=2, num_disks=disks, max_entries=8)
    queries = sample_queries(data, 15, seed=seed + 1)
    inserts = uniform(25, 2, seed=seed + 2)
    factory = lambda q: CRSS(q, 8, num_disks=disks)
    return data, tree, queries, inserts, factory


class TestMixedWorkload:
    def test_all_operations_complete(self):
        _, tree, queries, inserts, factory = fresh_setup()
        before = len(tree)
        result = simulate_mixed_workload(
            tree, factory, queries, inserts,
            query_rate=10.0, insert_rate=5.0, seed=1,
        )
        assert len(result.queries.records) == len(queries)
        assert len(result.updates) == len(inserts)
        assert len(tree) == before + len(inserts)
        assert result.reads_granted == len(queries)
        assert result.writes_granted == len(inserts)

    def test_tree_valid_after_workload(self):
        _, tree, queries, inserts, factory = fresh_setup(seed=62)
        simulate_mixed_workload(
            tree, factory, queries, inserts,
            query_rate=20.0, insert_rate=20.0, seed=2,
        )
        check_invariants(tree.tree)
        # Every live page still has a placement.
        for page_id in tree.tree.pages:
            assert tree.disk_of(page_id) >= 0

    def test_inserted_points_become_searchable(self):
        _, tree, _, inserts, factory = fresh_setup(seed=63)
        base = len(tree)
        simulate_mixed_workload(
            tree, factory, [], inserts,
            query_rate=1.0, insert_rate=50.0, seed=3,
        )
        # Query at an inserted point: its oid must be the 1-NN.
        target = tuple(inserts[0])
        result = tree.knn(target, 1)
        assert result[0].distance == pytest.approx(0.0)

    def test_update_costs_are_sane(self):
        _, tree, _, inserts, factory = fresh_setup(seed=64)
        height = tree.height
        result = simulate_mixed_workload(
            tree, factory, [], inserts,
            query_rate=1.0, insert_rate=10.0, seed=4,
        )
        for update in result.updates:
            # Reads exactly the root-to-leaf path.
            assert update.pages_read in (height, height + 1)
            # Writes at least the path that survived, at most path+new.
            assert update.pages_written >= 1
            assert update.pages_written <= update.pages_read + \
                update.pages_created
            assert update.response_time > 0

    def test_queries_exact_despite_concurrent_inserts(self):
        data, tree, queries, inserts, factory = fresh_setup(seed=65)
        result = simulate_mixed_workload(
            tree, factory, queries, inserts,
            query_rate=30.0, insert_rate=30.0, seed=5,
        )
        # Each query's answers must be exact w.r.t. SOME consistent
        # state: all original points are present throughout, so the
        # returned k-th distance can never exceed the k-th distance over
        # the original data alone.
        import math

        for record in result.queries.records:
            original_kth = sorted(
                math.dist(record.query, p) for p in data
            )[len(record.answers) - 1]
            assert record.answers[-1].distance <= original_kth + 1e-9

    def test_update_contention_slows_queries(self):
        """Heavy insert traffic delays queries behind the write latch."""
        _, tree_a, queries, inserts, factory = fresh_setup(seed=66)
        quiet = simulate_mixed_workload(
            tree_a, factory, queries, inserts[:1],
            query_rate=10.0, insert_rate=0.1, seed=6,
        )
        _, tree_b, _, _, _ = fresh_setup(seed=66)
        busy = simulate_mixed_workload(
            tree_b, factory, queries, inserts * 4,
            query_rate=10.0, insert_rate=200.0, seed=6,
        )
        assert busy.queries.mean_response >= quiet.queries.mean_response * 0.9

    def test_latch_wait_is_charged_to_the_query(self, monkeypatch):
        """Under a saturated write latch a query's record runs from its
        arrival, and the read-latch wait is its ``admission_wait``.
        Before, the record started at the latch grant and the wait was
        charged nowhere."""
        latch = {}

        class Observed(ReadWriteLock):
            def acquire_read(self):
                asked = self.env.now
                grant = super().acquire_read()
                grant.callbacks.append(
                    lambda _: latch.__setitem__(asked, self.env.now)
                )
                return grant

        monkeypatch.setattr(frontend, "ReadWriteLock", Observed)
        _, tree, queries, inserts, factory = fresh_setup(seed=66)
        result = simulate_mixed_workload(
            tree, factory, queries, inserts * 4,
            query_rate=10.0, insert_rate=200.0, seed=6,
        )
        records = result.queries.records
        assert sorted(r.arrival for r in records) == sorted(latch)
        waited = 0
        for record in records:
            wait = latch[record.arrival] - record.arrival
            assert record.breakdown.admission_wait == wait
            assert record.breakdown.total == pytest.approx(
                record.response_time, abs=1e-9
            )
            waited += wait > 0.0
        assert waited >= len(records) // 2

    def test_validation(self):
        _, tree, queries, inserts, factory = fresh_setup(seed=67)
        with pytest.raises(ValueError, match="queries or updates"):
            simulate_mixed_workload(
                tree, factory, [], [], query_rate=1.0, insert_rate=1.0
            )
        with pytest.raises(ValueError, match="query_rate"):
            simulate_mixed_workload(
                tree, factory, queries, [], query_rate=0.0, insert_rate=1.0
            )
        with pytest.raises(ValueError, match="insert_rate"):
            simulate_mixed_workload(
                tree, factory, [], inserts, query_rate=1.0, insert_rate=-1.0
            )

    def test_deletions_intermixed(self):
        """The paper's full dynamic mix: queries, inserts and deletes."""
        data, tree, queries, inserts, factory = fresh_setup(seed=69)
        victims = [(data[i], i) for i in range(0, 60, 3)]
        before = len(tree)
        result = simulate_mixed_workload(
            tree, factory, queries, inserts,
            query_rate=15.0, insert_rate=10.0, seed=8,
            deletes=victims, delete_rate=10.0,
        )
        deletes_done = [u for u in result.updates if u.kind == "delete"]
        inserts_done = [u for u in result.updates if u.kind == "insert"]
        assert len(deletes_done) == len(victims)
        assert len(inserts_done) == len(inserts)
        assert all(u.applied for u in deletes_done)
        assert len(tree) == before + len(inserts) - len(victims)
        check_invariants(tree.tree)
        # Deleted objects are gone from query results.
        deleted_oids = {oid for _, oid in victims}
        stored = {oid for _, oid in tree.tree.iter_points()}
        assert not (deleted_oids & stored)

    def test_delete_of_missing_object(self):
        _, tree, _, _, factory = fresh_setup(seed=70)
        before = len(tree)
        result = simulate_mixed_workload(
            tree, factory, [], [],
            query_rate=1.0, insert_rate=1.0, seed=9,
            deletes=[((5.0, 5.0), 99_999)], delete_rate=5.0,
        )
        record = result.updates[0]
        assert record.kind == "delete"
        assert not record.applied
        assert record.pages_written == 0
        assert record.pages_read > 0  # the failed descent still cost I/O
        assert len(tree) == before

    def test_a_tree_that_cannot_take_updates_is_refused_up_front(self):
        """Before, a frozen tree given inserts died mid-run inside an
        engine callback: ``'FlatTree' object has no attribute
        '_choose_subtree'``; the SS/SR trees lack it too."""
        data, tree, queries, inserts, factory = fresh_setup(seed=72)
        sstree = build_parallel_sstree(data, dims=2, num_disks=4)
        for placed in (flatten(tree), sstree):
            with pytest.raises(TypeError, match="cannot take inserts"):
                simulate_mixed_workload(
                    placed, factory, queries, inserts,
                    query_rate=10.0, insert_rate=5.0, seed=1,
                )
            with pytest.raises(TypeError, match="cannot take inserts"):
                simulate_mixed_workload(
                    placed, factory, [], [],
                    query_rate=1.0, insert_rate=1.0,
                    deletes=[(data[0], 0)], delete_rate=5.0,
                )

    def test_queries_only_runs_take_any_placed_tree(self):
        data, tree, queries, _, factory = fresh_setup(seed=73)
        sstree = build_parallel_sstree(data, dims=2, num_disks=4)
        for placed in (flatten(tree), sstree):
            result = simulate_mixed_workload(
                placed, factory, queries, [],
                query_rate=10.0, insert_rate=1.0, seed=1,
            )
            assert len(result.queries.records) == len(queries)
            assert result.updates == []

    def test_delete_rate_validation(self):
        _, tree, _, _, factory = fresh_setup(seed=71)
        with pytest.raises(ValueError, match="delete_rate"):
            simulate_mixed_workload(
                tree, factory, [], [],
                query_rate=1.0, insert_rate=1.0,
                deletes=[((0.5, 0.5), 1)], delete_rate=0.0,
            )

    def test_buffer_invalidation_on_update(self):
        """Dirty pages leave the buffer so queries never read stale data
        for free."""
        _, tree, queries, inserts, factory = fresh_setup(seed=68)
        result = simulate_mixed_workload(
            tree, factory, queries, inserts,
            query_rate=10.0, insert_rate=10.0, seed=7,
            params=SystemParameters(buffer_pages=16),
        )
        assert len(result.updates) == len(inserts)
        check_invariants(tree.tree)


class TestUpdateTransfers:
    def test_supernode_pages_are_charged_their_span(self, monkeypatch):
        """Updates move pages through the array's one transfer path, so a
        supernode on an insert's path costs its full span, and the update
        rows report the pages charged.  Before, the update path charged
        each of these 1 250 transactions one page, though 768 of them
        moved a supernode (spans up to 8), and the rows still counted
        the 1 250 nodes."""
        tree = build_parallel_xtree(
            gaussian(3000, 12, seed=5), 12, num_disks=5, seed=1,
            max_overlap=0.0, page_size=1024,
        )
        spans = [tree.pages_spanned(p) for p in tree.page_ids()]
        assert sum(s > 1 for s in spans) == 34 and max(spans) == 8
        systems = []

        class Recorded(DiskArraySystem):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                systems.append(self)

        monkeypatch.setattr(simulator, "DiskArraySystem", Recorded)
        result = simulate_mixed_workload(
            tree, lambda q: CRSS(q, 5, num_disks=5), [],
            gaussian(200, 12, seed=9), query_rate=1.0, insert_rate=20.0,
            seed=3,
        )
        charged = sum(u.pages_read + u.pages_written for u in result.updates)
        assert charged == systems[0].pages_fetched == 5949
