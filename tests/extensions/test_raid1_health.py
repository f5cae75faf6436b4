"""RAID-1 tail tolerance: hedged reads, breaker routing, accounting."""

import pytest

from repro.core import CRSS
from repro.datasets import sample_queries, uniform
from repro.faults import FaultPlan, RetryPolicy, SlowWindow
from repro.faults.health import HealthPolicy, HedgePolicy
from repro.parallel import build_parallel_tree
from repro.simulation import simulate_workload
from repro.simulation.parameters import SystemParameters


@pytest.fixture(scope="module")
def workload():
    points = uniform(600, 2, seed=15)
    tree = build_parallel_tree(points, dims=2, num_disks=4, max_entries=8)
    queries = sample_queries(points, 15, seed=16)
    factory = lambda q: CRSS(q, 8, num_disks=tree.num_disks)
    return tree, queries, factory


def _slow_plan(tree, factor=8.0):
    """Replica 0 of every logical disk is fail-slow for the whole run."""
    return FaultPlan(
        seed=2,
        slow_windows=tuple(
            SlowWindow(disk * 2, 0.0, 50.0, factor)
            for disk in range(tree.num_disks)
        ),
    )


def _run(tree, queries, factory, rate=40.0, **kwargs):
    return simulate_workload(
        tree, factory, queries, arrival_rate=rate, seed=3, raid="raid1",
        **kwargs
    )


class TestHedgedReads:
    def test_hedge_counters_are_consistent(self, workload):
        tree, queries, factory = workload
        result = _run(
            tree, queries, factory,
            fault_plan=_slow_plan(tree),
            retry_policy=RetryPolicy(),
            hedge=HedgePolicy(quantile=0.9, min_delay=0.001, min_samples=4),
        )
        system = result.system
        section = system.hedge_section()
        assert section["issued"] > 0
        assert section["won"] <= section["issued"]
        # Each issued hedge has exactly one losing arm, and that arm is
        # either cancelled in-queue or completes as a wasted read (or
        # errors / outlives the run) — never both.
        assert (
            section["cancelled"] + section["wasted_reads"]
            <= section["issued"]
        )

    def test_hedges_are_not_retries(self, workload):
        tree, queries, factory = workload
        hedged = _run(
            tree, queries, factory,
            fault_plan=_slow_plan(tree),
            retry_policy=RetryPolicy(),
            hedge=HedgePolicy(quantile=0.9, min_delay=0.001, min_samples=4),
        )
        # Hedged phases report attempts=1: the re-issue races, it does
        # not consume a retry budget or inflate the retry counter.
        assert hedged.total_retries == 0
        assert hedged.system.hedge_section()["issued"] > 0

    def test_answers_unchanged_by_hedging(self, workload):
        tree, queries, factory = workload
        plain = _run(tree, queries, factory, fault_plan=_slow_plan(tree),
                     retry_policy=RetryPolicy())
        hedged = _run(
            tree, queries, factory,
            fault_plan=_slow_plan(tree),
            retry_policy=RetryPolicy(),
            hedge=HedgePolicy(quantile=0.9, min_delay=0.001, min_samples=4),
        )
        by_arrival = lambda res: [
            [n.oid for n in r.answers]
            for r in sorted(res.records, key=lambda r: r.arrival)
        ]
        assert by_arrival(hedged) == by_arrival(plain)

    def test_hedging_shortens_the_tail_under_fail_slow(self, workload):
        tree, queries, factory = workload
        plain = _run(tree, queries, factory, fault_plan=_slow_plan(tree),
                     retry_policy=RetryPolicy())
        hedged = _run(
            tree, queries, factory,
            fault_plan=_slow_plan(tree),
            retry_policy=RetryPolicy(),
            hedge=HedgePolicy(quantile=0.9, min_delay=0.001, min_samples=4),
        )
        assert hedged.mean_response < plain.mean_response

    def test_buffer_conservation_under_hedging(self, workload):
        tree, queries, factory = workload
        result = _run(
            tree, queries, factory,
            fault_plan=_slow_plan(tree),
            retry_policy=RetryPolicy(),
            hedge=HedgePolicy(quantile=0.9, min_delay=0.001, min_samples=4),
            params=SystemParameters(buffer_pages=32),
        )
        system = result.system
        hits = sum(r.buffer_hits for r in result.records)
        requests = sum(r.page_requests for r in result.records)
        # A cancelled or wasted hedge arm must not double-admit a page
        # into the pool or double-count a miss.
        assert system.buffer.hits + system.buffer.misses == requests
        assert hits == system.buffer.hits

    def test_determinism(self, workload):
        tree, queries, factory = workload

        def run():
            result = _run(
                tree, queries, factory,
                fault_plan=_slow_plan(tree),
                retry_policy=RetryPolicy(),
                health=HealthPolicy(latency_threshold=0.08),
                hedge=HedgePolicy(quantile=0.9, min_delay=0.001,
                                  min_samples=4),
            )
            return (
                result.makespan,
                result.system.hedge_section(),
                result.system.health.describe(result.makespan),
            )

        assert run() == run()


class TestBreakerRouting:
    def test_sick_replica_is_routed_around(self, workload):
        tree, queries, factory = workload
        # Low arrival rate: queue waits stay small, so only the
        # genuinely slow drives climb over the EWMA threshold.
        monitor_runs = _run(
            tree, queries, factory,
            rate=10.0,
            fault_plan=_slow_plan(tree, factor=12.0),
            retry_policy=RetryPolicy(),
            health=HealthPolicy(latency_threshold=0.05),
        )
        monitor = monitor_runs.system.health
        doc = monitor.describe(monitor_runs.makespan)
        assert doc["opens"] > 0
        # Every slow drive (even physical ids) tripped its breaker, and
        # each one's EWMA dominates its healthy mirror's.  (The mirror
        # may trip too — it absorbs the whole pair's traffic once its
        # partner is ejected — so parity of *who* tripped isn't stable.)
        drives = monitor._drives
        for disk in range(tree.num_disks):
            slow, mirror = drives[disk * 2], drives[disk * 2 + 1]
            assert slow.opens > 0
            assert slow.ewma > mirror.ewma

    def test_all_replicas_open_still_serves(self, workload):
        # When every replica of a pair is breaker-open the router falls
        # back to the full available set instead of deadlocking.
        tree, queries, factory = workload
        plan = FaultPlan(
            seed=2,
            slow_windows=tuple(
                SlowWindow(phys, 0.0, 50.0, 10.0)
                for phys in range(tree.num_disks * 2)
            ),
        )
        result = _run(
            tree, queries, factory,
            fault_plan=plan,
            retry_policy=RetryPolicy(),
            health=HealthPolicy(latency_threshold=0.01),
        )
        assert len(result.records) == 15
        assert all(r.answers for r in result.records)

    def test_monitor_sees_two_drives_per_logical_disk(self, workload):
        tree, queries, factory = workload
        result = _run(tree, queries[:5], factory, health=HealthPolicy())
        assert result.system.health.num_disks == tree.num_disks * 2
