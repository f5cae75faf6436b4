"""Tests for the shadowed-disks (RAID-1) extension."""

import pytest

from repro.core import CRSS
from repro.datasets import sample_queries, uniform
from repro.extensions.raid1 import MirroredDiskArraySystem
from repro.faults.health import HedgePolicy
from repro.parallel import build_parallel_tree
from repro.simulation import simulate_workload
from repro.simulation.engine import Environment
from repro.simulation.parameters import SystemParameters


@pytest.fixture(scope="module")
def workload():
    points = uniform(600, 2, seed=15)
    tree = build_parallel_tree(points, dims=2, num_disks=4, max_entries=8)
    queries = sample_queries(points, 15, seed=16)
    factory = lambda q: CRSS(q, 8, num_disks=tree.num_disks)
    return tree, queries, factory


class TestMirroredSystem:
    def test_invalid_disk_count(self):
        with pytest.raises(ValueError, match="num_disks"):
            MirroredDiskArraySystem(Environment(), 0)

    def test_two_replicas_per_logical_disk(self):
        system = MirroredDiskArraySystem(Environment(), 3)
        # One flat list by physical id: logical * 2 + replica.
        assert system.num_disks == 3
        assert len(system.disk_queues) == len(system.disk_models) == 6
        assert system.drive_names == [
            "disk0r0", "disk0r1", "disk1r0", "disk1r1", "disk2r0", "disk2r1",
        ]
        assert len(system.disk_utilizations(1.0)) == 6

    def test_out_of_range_disk(self):
        env = Environment()
        system = MirroredDiskArraySystem(env, 2)

        def fetch():
            yield env.process(system.fetch_page(2, cylinder=0))

        env.process(fetch())
        with pytest.raises(ValueError, match="disk 2"):
            env.run()

    def test_replica_selection_prefers_idle(self):
        env = Environment()
        system = MirroredDiskArraySystem(
            env, 1, params=SystemParameters(sample_rotation=False)
        )
        done = []

        def fetch():
            yield env.process(system.fetch_page(0, cylinder=100))
            done.append(env.now)

        # Two simultaneous reads of the same logical disk: with
        # mirroring they run on different replicas and finish together.
        env.process(fetch())
        env.process(fetch())
        env.run()
        assert abs(done[0] - done[1]) <= system.params.bus_time + 1e-9
        served = [m.requests_served for m in system.disk_models[0:2]]
        assert served == [1, 1]


class TestMirroredWorkload:
    def test_same_answers_as_raid0(self, workload):
        tree, queries, factory = workload
        raid0 = simulate_workload(
            tree, factory, queries, arrival_rate=5.0, seed=3
        )
        raid1 = simulate_workload(
            tree, factory, queries, arrival_rate=5.0, seed=3, raid="raid1"
        )
        for a, b in zip(raid0.records, raid1.records):
            assert [n.oid for n in a.answers] == [n.oid for n in b.answers]

    def test_mirroring_helps_under_contention(self, workload):
        """Shadowed disks shorten queues on read-heavy load."""
        tree, queries, factory = workload
        rate = 60.0  # drive the 4-disk array into contention
        raid0 = simulate_workload(
            tree, factory, queries, arrival_rate=rate, seed=7
        )
        raid1 = simulate_workload(
            tree, factory, queries, arrival_rate=rate, seed=7, raid="raid1"
        )
        assert raid1.mean_response < raid0.mean_response

    def test_serial_mode(self, workload):
        tree, queries, factory = workload
        result = simulate_workload(
            tree, factory, queries[:5], arrival_rate=None, raid="raid1"
        )
        assert len(result.records) == 5
        for before, after in zip(result.records, result.records[1:]):
            assert after.arrival == pytest.approx(before.completion)

    def test_stats_and_metrics_cover_every_physical_drive(self, workload):
        from repro.obs import MetricsRegistry

        tree, queries, factory = workload
        metrics = MetricsRegistry()
        result = simulate_workload(
            tree, factory, queries, arrival_rate=60.0, seed=7, raid="raid1",
            metrics=metrics,
        )
        drives = 2 * tree.num_disks
        assert len(result.mean_queue_lengths) == drives
        assert len(result.max_queue_lengths) == drives
        assert len(result.disk_utilizations) == drives
        assert any(result.max_queue_lengths)
        # Per-drive series carry the system's drive names, not the
        # flattened index.
        names = set(metrics.snapshot())
        assert "disk1r0.seek_distance" in names
        assert "disk1r0.queue_depth" in names
        assert "disk2.seek_distance" not in names
        raid0 = MetricsRegistry()
        simulate_workload(
            tree, factory, queries, arrival_rate=60.0, seed=7, metrics=raid0
        )
        assert "disk2.seek_distance" in set(raid0.snapshot())

    def test_validation(self, workload):
        tree, queries, factory = workload
        with pytest.raises(ValueError, match="at least one query"):
            simulate_workload(tree, factory, [], raid="raid1")
        with pytest.raises(ValueError, match="arrival_rate"):
            simulate_workload(
                tree, factory, queries, arrival_rate=-1.0, raid="raid1"
            )
        with pytest.raises(ValueError, match="raid"):
            simulate_workload(tree, factory, queries, raid="raid5")
        with pytest.raises(ValueError, match="mirrored"):
            simulate_workload(tree, factory, queries, hedge=HedgePolicy())


class TestReplicaDispatch:
    """Shortest-queue-then-nearest-head dispatch, probed directly."""

    @staticmethod
    def system(num_disks=1):
        return MirroredDiskArraySystem(
            Environment(), num_disks,
            params=SystemParameters(sample_rotation=False),
        )

    def test_ties_break_by_replica_index(self):
        system = self.system()
        # Fresh system: equal backlogs, equal head positions.
        assert system._pick_drive(0, cylinder=100) == 0
        # The pick is a physical id: logical disk 1 owns drives 2 and 3.
        assert self.system(2)._pick_drive(1, cylinder=100) == 2

    def test_shorter_queue_wins(self):
        system = self.system()
        hold = system.disk_queues[0].request()
        assert system._pick_drive(0, cylinder=0) == 1
        system.disk_queues[0].release(hold)
        assert system._pick_drive(0, cylinder=0) == 0

    def test_backlog_counts_waiters_not_just_the_holder(self):
        system = self.system()
        queue = system.disk_queues[0]
        grants = [queue.request(), queue.request()]  # one holder, one waiter
        other = system.disk_queues[1].request()
        # Replica 0 has backlog 2, replica 1 has backlog 1.
        assert system._pick_drive(0, cylinder=0) == 1
        for grant in grants:
            queue.release(grant)
        system.disk_queues[1].release(other)

    def test_equal_queues_prefer_the_nearer_head(self):
        system = self.system()
        env = system.env

        def fetch(cylinder):
            yield env.process(system.fetch_page(0, cylinder=cylinder))

        env.process(fetch(100))
        env.run()
        # The serviced replica (0, by index tie-break) parked at
        # cylinder 100; the idle one is still at 0.
        heads = [m.head_cylinder for m in system.disk_models[0:2]]
        assert heads == [100, 0]
        assert system._pick_drive(0, cylinder=90) == 0
        assert system._pick_drive(0, cylinder=5) == 1

    def test_three_readers_two_spindles(self):
        system = self.system()
        env = system.env
        done = []

        def fetch():
            yield env.process(system.fetch_page(0, cylinder=100))
            done.append(env.now)

        for _ in range(3):
            env.process(fetch())
        env.run()
        done.sort()
        # Two run concurrently on different replicas; the third queues
        # behind one of them and finishes strictly later.
        assert abs(done[0] - done[1]) <= system.params.bus_time + 1e-9
        assert done[2] > done[1] + 1e-9
        served = [m.requests_served for m in system.disk_models[0:2]]
        assert sorted(served) == [1, 2]


class TestMirroredFailover:
    """Crash handling on the mirrored pair (satellite of the fault layer)."""

    @staticmethod
    def run_fetch(system, disk_id=0, cylinder=100):
        env = system.env
        outcome = []

        def fetcher():
            result = yield env.process(
                system.fetch_page(disk_id, cylinder)
            )
            outcome.append(result)

        env.process(fetcher())
        env.run()
        return outcome[0]

    def test_crashed_replica_fails_over_to_the_survivor(self):
        from repro.faults import FaultPlan, RetryPolicy

        system = MirroredDiskArraySystem(
            Environment(), 1,
            params=SystemParameters(sample_rotation=False),
            fault_plan=FaultPlan.single_crash(0, at=0.0),  # physical drive 0
            retry_policy=RetryPolicy(),
        )
        timing = self.run_fetch(system)
        assert timing.ok
        assert timing.failovers >= 1
        assert system.failovers >= 1
        served = [m.requests_served for m in system.disk_models[0:2]]
        assert served == [0, 1]  # only the survivor spun

    def test_transient_error_retries_on_the_other_replica(self):
        from repro.faults import FaultPlan, RetryPolicy

        # Physical drive 0 always errors; its mirror (drive 1) is clean.
        system = MirroredDiskArraySystem(
            Environment(), 1,
            params=SystemParameters(sample_rotation=False),
            fault_plan=FaultPlan(transient_prob={0: 1.0}),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.001),
        )
        timing = self.run_fetch(system)
        assert timing.ok
        assert timing.attempts == 2
        assert timing.failovers >= 1
        served = [m.requests_served for m in system.disk_models[0:2]]
        assert served == [1, 1]  # one wasted spin, one good one

    def test_both_replicas_down_is_a_crashed_failure(self):
        from repro.faults import FaultPlan, RetryPolicy
        from repro.simulation.system import FetchFailure

        plan = FaultPlan(crashes=(
            FaultPlan.single_crash(0, at=0.0).crashes[0],
            FaultPlan.single_crash(1, at=0.0).crashes[0],
        ))
        system = MirroredDiskArraySystem(
            Environment(), 1,
            params=SystemParameters(sample_rotation=False),
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.001),
        )
        failure = self.run_fetch(system)
        assert isinstance(failure, FetchFailure)
        assert failure.reason == "crashed"
        assert system.failed_fetches == 1


class TestMirroredBuffer:
    """Bugfix: the mirrored system used to drop ``buffer_pages``
    silently — RAID-1 ablations ran bufferless while claiming a pool."""

    def test_system_exposes_buffer(self):
        system = MirroredDiskArraySystem(
            Environment(), 2, params=SystemParameters(buffer_pages=8)
        )
        assert system.buffer is not None
        assert system.buffer.capacity == 8
        # And the paper-faithful default stays bufferless.
        assert MirroredDiskArraySystem(Environment(), 2).buffer is None

    def test_mirrored_workload_takes_buffer_hits(self, workload):
        tree, queries, factory = workload
        params = SystemParameters(buffer_pages=48)
        buffered = simulate_workload(
            tree, factory, queries, arrival_rate=5.0, seed=3, params=params,
            raid="raid1",
        )
        assert buffered.total_buffer_hits > 0
        plain = simulate_workload(
            tree, factory, queries, arrival_rate=5.0, seed=3, raid="raid1"
        )
        # Hits replace physical fetches one-for-one, query by query.
        for cold, warm in zip(plain.records, buffered.records):
            assert warm.pages_fetched + warm.buffer_hits == cold.pages_fetched
        assert buffered.mean_response < plain.mean_response

    def test_mirrored_buffer_answers_unchanged(self, workload):
        tree, queries, factory = workload
        buffered = simulate_workload(
            tree, factory, queries, arrival_rate=None, seed=3,
            params=SystemParameters(buffer_pages=32),
            raid="raid1",
        )
        for record in buffered.records:
            expected = [n.oid for n in tree.knn(record.query, 8)]
            assert [n.oid for n in record.answers] == expected


class TestMirroredScheduling:
    def test_seek_aware_scheduling_on_mirrors(self, workload):
        # Two replicas absorb a lot of load, so it takes a burstier
        # arrival stream than RAID-0 before queues (and hence
        # scheduling freedom) appear at all.
        tree, _, factory = workload
        points = [p for p, _ in tree.tree.iter_points()]
        queries = sample_queries(points, 60, seed=17)
        fcfs = simulate_workload(
            tree, queries=queries, factory=factory, arrival_rate=120.0, seed=3,
            raid="raid1",
        )
        sstf = simulate_workload(
            tree, queries=queries, factory=factory, arrival_rate=120.0, seed=3,
            params=SystemParameters(scheduler="sstf"),
            raid="raid1",
        )
        by_arrival = lambda res: [
            [n.oid for n in r.answers]
            for r in sorted(res.records, key=lambda r: r.arrival)
        ]
        assert by_arrival(sstf) == by_arrival(fcfs)
        assert sum(sstf.seek_distances) < sum(fcfs.seek_distances)

    def test_coalescing_on_mirrors(self, workload):
        tree, queries, factory = workload
        grouped = simulate_workload(
            tree, queries=queries, factory=factory, arrival_rate=None, seed=3,
            params=SystemParameters(coalesce=True),
            raid="raid1",
        )
        assert grouped.coalesced_fetches > 0
        for record in grouped.records:
            expected = [n.oid for n in tree.knn(record.query, 8)]
            assert [n.oid for n in record.answers] == expected
