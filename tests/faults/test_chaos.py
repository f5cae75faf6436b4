"""Tests for the chaos workload runner and its CLI surface."""

import json

import pytest

from repro.datasets import sample_queries
from repro.faults import ChaosReport, FaultPlan, RetryPolicy, run_chaos


@pytest.fixture(scope="module")
def queries(parallel_tree):
    points = [p for p, _ in parallel_tree.tree.iter_points()]
    return sample_queries(points, 5, seed=4)


class TestRunChaos:
    def test_control_run_reports_no_fault_work(self, parallel_tree, queries):
        report = run_chaos(parallel_tree, "CRSS", queries, k=8, seed=3)
        assert isinstance(report, ChaosReport)
        assert report.algorithm == "CRSS"
        assert report.raid == "raid0"
        assert report.num_queries == len(queries)
        assert report.retries == 0
        assert report.fetch_failures == 0
        assert report.failovers == 0
        assert report.partial_queries == 0
        assert report.complete_queries == len(queries)
        assert report.certified_radii == []
        assert report.mean_response > 0.0
        assert report.makespan >= report.max_response

    def test_crash_produces_partial_queries_with_radii(
        self, parallel_tree, queries
    ):
        root_disk = parallel_tree.disk_of(parallel_tree.root_page_id)
        dead = (root_disk + 1) % 5
        report = run_chaos(
            parallel_tree, "FPSS", queries, k=8, seed=3,
            fault_plan=FaultPlan.single_crash(dead, at=0.0),
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.001),
        )
        assert report.fetch_failures > 0
        assert report.partial_queries > 0
        assert report.complete_queries + report.partial_queries == len(queries)
        stats = report.certified_radius_stats
        assert stats["count"] == len(report.certified_radii)
        if stats["count"]:
            assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_raid1_hides_the_same_crash(self, parallel_tree, queries):
        report = run_chaos(
            parallel_tree, "FPSS", queries, k=8, seed=3, raid="raid1",
            fault_plan=FaultPlan.single_crash(2, at=0.0),
        )
        assert report.partial_queries == 0
        assert report.failovers > 0

    def test_rejects_unknown_raid_level(self, parallel_tree, queries):
        with pytest.raises(ValueError, match="raid"):
            run_chaos(parallel_tree, "CRSS", queries, raid="raid5")

    def test_rejects_mirror_features_on_raid0(self, parallel_tree, queries):
        # The same check (one helper) guards every entry point.
        from repro.faults.health import HedgePolicy, RebuildPolicy

        for extra in (dict(hedge=HedgePolicy()), dict(rebuild=RebuildPolicy())):
            with pytest.raises(ValueError, match="mirrored"):
                run_chaos(parallel_tree, "CRSS", queries, **extra)

    def test_rejects_unknown_algorithm(self, parallel_tree, queries):
        with pytest.raises(ValueError):
            run_chaos(parallel_tree, "NOPE", queries)

    def test_json_round_trip(self, parallel_tree, queries):
        report = run_chaos(
            parallel_tree, "CRSS", queries, k=8, seed=3,
            fault_plan=FaultPlan(default_transient_prob=0.1),
            deadline=1.0,
        )
        document = json.loads(report.to_json())
        assert document["algorithm"] == "CRSS"
        assert document["deadline"] == 1.0
        assert document["plan"]["default_transient_prob"] == 0.1
        assert set(document["breakdown"]) >= {"retry_backoff", "queue_wait"}
        assert document == json.loads(json.dumps(report.as_dict()))

    def test_summary_is_renderable(self, parallel_tree, queries):
        report = run_chaos(parallel_tree, "BBSS", queries, k=4, seed=3)
        text = report.summary()
        assert "BBSS" in text
        assert "retries" in text


class TestChaosCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_smoke_run_writes_json(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = self.run_cli([
            "chaos", "--dataset", "uniform", "--n", "200", "--disks", "4",
            "--queries", "3", "--k", "4", "--algorithm", "fpss",
            "--crash", "1@0.0", "--transient", "0.05",
            "--out", str(out),
        ])
        assert code in (0, None)
        printed = capsys.readouterr().out
        assert "chaos:" in printed
        document = json.loads(out.read_text())
        assert document["algorithm"] == "FPSS"
        assert document["num_queries"] == 3
        assert document["plan"]["crashes"] == [
            {"disk": 1, "start": 0.0, "repair": None}
        ]

    def test_bad_crash_spec_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_cli([
                "chaos", "--dataset", "uniform", "--n", "200",
                "--crash", "not-a-spec",
            ])

    def test_bad_slow_spec_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_cli([
                "chaos", "--dataset", "uniform", "--n", "200",
                "--slow", "1@5x",
            ])


class TestBufferAccountingUnderFaults:
    """Satellite fix: fault retries must not skew hit/miss accounting.

    Every page request passes the buffer gate exactly once — retries of
    the physical fetch do not re-count a miss, and a fetch that fails
    permanently must never admit its page."""

    def run_buffered(self, tree, queries, fault_plan=None, policy=None,
                     coalesce=False, buffer_pages=24, deadline=None):
        from repro.core import CRSS
        from repro.simulation.engine import Environment
        from repro.simulation.parameters import SystemParameters
        from repro.simulation.simulator import SimulatedExecutor
        from repro.simulation.system import DiskArraySystem

        env = Environment()
        system = DiskArraySystem(
            env, tree.num_disks,
            params=SystemParameters(
                buffer_pages=buffer_pages, coalesce=coalesce,
            ),
            seed=13, fault_plan=fault_plan, retry_policy=policy,
        )
        executor = SimulatedExecutor(env, system, tree)
        records = []

        def run_all():
            for query in queries:
                record = yield env.process(
                    executor.query_process(
                        CRSS(query, 8, num_disks=tree.num_disks),
                        deadline_at=(
                            None if deadline is None else env.now + deadline
                        ),
                    )
                )
                records.append(record)

        env.process(run_all())
        env.run()
        return system, records

    def test_lookups_conserved_without_faults(self, parallel_tree, queries):
        system, records = self.run_buffered(parallel_tree, queries)
        pool = system.buffer
        assert pool.hits + pool.misses == sum(r.page_requests for r in records)
        assert pool.hits == sum(r.buffer_hits for r in records)

    def test_lookups_conserved_under_transient_retries(
        self, parallel_tree, queries
    ):
        system, records = self.run_buffered(
            parallel_tree, queries,
            fault_plan=FaultPlan(seed=5, default_transient_prob=0.1),
            policy=RetryPolicy(max_attempts=6, backoff_base=0.001),
        )
        pool = system.buffer
        assert sum(r.retries for r in records) > 0
        # Retries multiply disk attempts, never buffer lookups.
        assert pool.hits + pool.misses == sum(r.page_requests for r in records)

    def test_lookups_conserved_with_coalescing_under_faults(
        self, parallel_tree, queries
    ):
        system, records = self.run_buffered(
            parallel_tree, queries, coalesce=True,
            fault_plan=FaultPlan(seed=5, default_transient_prob=0.1),
            policy=RetryPolicy(max_attempts=6, backoff_base=0.001),
        )
        pool = system.buffer
        assert pool.hits + pool.misses == sum(r.page_requests for r in records)

    def test_failed_fetches_never_admitted(self, parallel_tree, queries):
        """Crash one non-root disk with no repair: its pages fail
        permanently and must stay out of the pool."""
        root_disk = parallel_tree.disk_of(parallel_tree.root_page_id)
        dead = (root_disk + 1) % parallel_tree.num_disks
        system, records = self.run_buffered(
            parallel_tree, queries,
            fault_plan=FaultPlan.single_crash(dead, at=0.0),
            policy=RetryPolicy(max_attempts=2, backoff_base=0.001),
        )
        pool = system.buffer
        assert sum(r.fetch_failures for r in records) > 0
        dead_pages = [
            pid for pid in parallel_tree.tree.pages
            if parallel_tree.disk_of(pid) == dead
        ]
        assert dead_pages
        assert all(pid not in pool for pid in dead_pages)
        assert pool.hits + pool.misses == sum(r.page_requests for r in records)
