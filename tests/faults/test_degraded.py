"""Degraded-mode query processing: failover, partial answers, certificates.

The acceptance criteria of the robustness layer live here:

* RAID-1 with a crashed drive answers every query *identically* to the
  fault-free run (reads fail over to the surviving replica).
* RAID-0 queries that lose a disk return partial answers whose
  certified radius is verified against brute force: every object whose
  true distance is below the certificate is either in the answer list
  or was displaced by k provably-better neighbors.
* Per-query deadlines degrade through the same certificate machinery.
* Retry/backoff time shows up in the per-query breakdown, and the
  components still sum to the response time.
"""

import math

import pytest

from repro.datasets import sample_queries
from repro.experiments.setup import make_factory
from repro.faults import FaultPlan, RetryPolicy, SlowWindow
from repro.simulation.simulator import simulate_workload
from tests.conftest import brute_force_knn

ALGORITHMS = ("BBSS", "FPSS", "CRSS", "WOPTSS")


@pytest.fixture(scope="module")
def queries(parallel_tree):
    points = [p for p, _ in parallel_tree.tree.iter_points()]
    return sample_queries(points, 6, seed=4)


@pytest.fixture(scope="module")
def all_points(parallel_tree):
    """Points indexed by oid, for the brute-force oracle."""
    pairs = sorted(
        ((oid, p) for p, oid in parallel_tree.tree.iter_points()),
    )
    assert [oid for oid, _ in pairs] == list(range(len(pairs)))
    return [p for _, p in pairs]


def assert_certificate_sound(points, query, k, answers, certified_radius):
    """The partial-answer guarantee: nothing inside the certified radius
    is silently missing.  An object closer than the certificate must be
    in the answer list, or the list must already hold k neighbors that
    all beat it under the (distance, oid) order.
    """
    answered = {n.oid for n in answers}
    for n in answers:
        # Reported distances are honest.
        assert n.distance == pytest.approx(math.dist(query, points[n.oid]))
    worst = max(((n.distance, n.oid) for n in answers), default=None)
    for true_distance, oid in brute_force_knn(points, query, len(points)):
        if true_distance >= certified_radius:
            break
        if oid in answered:
            continue
        assert len(answers) == k and (true_distance, oid) >= worst, (
            f"object {oid} at distance {true_distance:.6f} is inside the "
            f"certified radius {certified_radius:.6f} but missing"
        )


class TestRaid1Failover:
    """A mirrored array hides a single drive failure completely."""

    @pytest.mark.parametrize("dead_drive", [0, 3, 9])
    def test_answers_identical_to_fault_free(
        self, parallel_tree, queries, dead_drive
    ):
        factory = make_factory("CRSS", parallel_tree, 8)
        clean = simulate_workload(
            parallel_tree, factory, queries, raid="raid1"
        )
        degraded = simulate_workload(
            parallel_tree, factory, queries,
            fault_plan=FaultPlan.single_crash(dead_drive, at=0.0),
            retry_policy=RetryPolicy(),
            raid="raid1",
        )
        for a, b in zip(clean.records, degraded.records):
            assert [(n.oid, n.distance) for n in a.answers] == [
                (n.oid, n.distance) for n in b.answers
            ]
        assert all(r.complete for r in degraded.records)
        assert degraded.partial_queries == 0
        assert all(math.isinf(r.certified_radius) for r in degraded.records)

    def test_failovers_are_counted(self, parallel_tree, queries):
        factory = make_factory("CRSS", parallel_tree, 8)
        degraded = simulate_workload(
            parallel_tree, factory, queries,
            fault_plan=FaultPlan.single_crash(0, at=0.0),
            retry_policy=RetryPolicy(),
            raid="raid1",
        )
        # Logical disk 0 is still read — through its surviving replica.
        assert degraded.total_failovers > 0
        assert degraded.total_fetch_failures == 0


class TestRaid0PartialResults:
    """A striped array degrades to partial answers with a certificate."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_certified_radius_verified_against_brute_force(
        self, parallel_tree, queries, all_points, algorithm
    ):
        k = 8
        root_disk = parallel_tree.disk_of(parallel_tree.root_page_id)
        dead = (root_disk + 1) % 5  # keep the root reachable
        factory = make_factory(algorithm, parallel_tree, k)
        result = simulate_workload(
            parallel_tree, factory, queries,
            fault_plan=FaultPlan.single_crash(dead, at=0.0),
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.001),
        )
        assert result.partial_queries > 0
        for record, query in zip(result.records, queries):
            if record.complete:
                assert math.isinf(record.certified_radius)
                certified = math.inf
            else:
                certified = record.certified_radius
                assert certified >= 0.0
            assert_certificate_sound(
                all_points, query, k, record.answers, certified
            )

    def test_losing_the_root_disk_aborts_with_zero_radius(
        self, parallel_tree, queries
    ):
        root_disk = parallel_tree.disk_of(parallel_tree.root_page_id)
        factory = make_factory("CRSS", parallel_tree, 8)
        result = simulate_workload(
            parallel_tree, factory, queries,
            fault_plan=FaultPlan.single_crash(root_disk, at=0.0),
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.001),
        )
        assert result.aborted_queries == len(queries)
        for record in result.records:
            assert not record.complete
            assert record.answers == []
            assert record.certified_radius == 0.0


class TestClocklessCertificates:
    """Exhaustive certificate checks through CountingExecutor.

    No simulation clock: for every algorithm and every disk we withhold
    all of that disk's pages and verify the certificate object by
    object.  This covers far more (algorithm, failure) combinations than
    the timed workloads can afford.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("dead_disk", range(5))
    def test_every_disk_loss_is_certified(
        self, parallel_tree, queries, all_points, algorithm, dead_disk
    ):
        from repro.core.executor import CountingExecutor

        k = 8
        lost_pages = {
            pid for pid, disk in parallel_tree._placement.items()
            if disk == dead_disk
        }
        factory = make_factory(algorithm, parallel_tree, k)
        executor = CountingExecutor(parallel_tree, unavailable=lost_pages)
        for query in queries:
            search = factory(query)
            answers = executor.execute(search)
            if executor.last_stats.unreachable_pages == 0:
                assert search.complete
                certified = math.inf
            else:
                assert not search.complete
                certified = search.certified_radius
                assert search.unreachable_pages == (
                    executor.last_stats.unreachable_pages
                )
            assert_certificate_sound(
                all_points, query, k, answers, certified
            )

    def test_no_loss_means_complete_and_exact(
        self, parallel_tree, queries, all_points
    ):
        from repro.core.executor import CountingExecutor

        k = 8
        factory = make_factory("BBSS", parallel_tree, k)
        executor = CountingExecutor(parallel_tree, unavailable=set())
        for query in queries:
            search = factory(query)
            answers = executor.execute(search)
            assert search.complete
            assert math.isinf(search.certified_radius)
            expected = brute_force_knn(all_points, query, k)
            assert [(n.distance, n.oid) for n in answers] == [
                (pytest.approx(d), oid) for d, oid in expected
            ]


class TestDeadlines:
    def test_tight_deadline_degrades_with_certificate(
        self, parallel_tree, queries, all_points
    ):
        k = 8
        factory = make_factory("FPSS", parallel_tree, k)
        clean = simulate_workload(parallel_tree, factory, queries)
        # Deadlines act at round granularity (a query only notices at
        # its next fetch round), so a cutoff well below the typical
        # response is needed to actually interrupt queries mid-flight.
        deadline = clean.median_response * 0.5
        result = simulate_workload(
            parallel_tree, factory, queries,
            fault_plan=FaultPlan(), retry_policy=RetryPolicy(),
            deadline=deadline,
        )
        assert 0 < result.deadline_exceeded_queries < len(queries)
        for record, query in zip(result.records, queries):
            if record.deadline_exceeded:
                assert not record.complete
                assert_certificate_sound(
                    all_points, query, k, record.answers,
                    record.certified_radius,
                )
            else:
                assert record.complete

    def test_deadline_requires_positive_value(self, parallel_tree, queries):
        factory = make_factory("FPSS", parallel_tree, 8)
        with pytest.raises(ValueError, match="deadline"):
            simulate_workload(
                parallel_tree, factory, queries, deadline=0.0
            )


class TestBreakdownUnderFaults:
    """Retry/backoff time is attributed, and components still telescope."""

    def test_components_sum_to_response_time(self, parallel_tree, queries):
        factory = make_factory("CRSS", parallel_tree, 8)
        result = simulate_workload(
            parallel_tree, factory, queries,
            fault_plan=FaultPlan(
                seed=5,
                default_transient_prob=0.2,
                slow_windows=(SlowWindow(1, 0.0, 100.0, 3.0),),
            ),
            retry_policy=RetryPolicy(max_attempts=4, backoff_base=0.002),
        )
        assert result.total_retries > 0
        for record in result.records:
            assert record.breakdown.total == pytest.approx(
                record.response_time, rel=1e-6
            )
        assert result.breakdown.retry_backoff > 0.0
        # The mean breakdown telescopes too.
        assert result.breakdown.total == pytest.approx(
            result.mean_response, rel=1e-6
        )

    def test_fault_free_run_attributes_zero_backoff(
        self, parallel_tree, queries
    ):
        factory = make_factory("CRSS", parallel_tree, 8)
        result = simulate_workload(parallel_tree, factory, queries)
        assert result.breakdown.retry_backoff == 0.0
        for record in result.records:
            assert record.breakdown.total == pytest.approx(
                record.response_time, rel=1e-6
            )
