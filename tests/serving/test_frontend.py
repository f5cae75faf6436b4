"""Serving-frontend property tests (satellite 1 and the tentpole).

The load-bearing guarantees:

* the unrestricted serving layer is a **bit-identical no-op** over
  :func:`simulate_workload` when fed the same arrival stream;
* under cross-query batching, answers of admitted non-shed queries are
  bit-identical to the unbatched run — batching moves I/O, never
  results;
* the buffer-pool conservation law ``hits + misses == Σ page_requests``
  survives cross-query batching composed with chaos faults;
* shed/rejected queries honor the degraded-answer contract (empty
  answer, radius-0 certificate) and the breakdown still telescopes
  when admission wait is charged.
"""

import gc
import math

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.serving import (
    RoundTicket,
    ServingFrontend,
    ServingPolicy,
    TrafficScenario,
    admission_only_policy,
    full_serving_policy,
    make_scenario,
    serve_scenario,
    workload_interarrivals,
)
from repro.simulation.engine import Environment
from repro.simulation.parameters import SystemParameters
from repro.simulation.simulator import (
    WorkloadResult,
    collect_system_stats,
)
from repro.simulation.system import DiskArraySystem

from tests.simulation.oracle import oracle_simulate_workload


def open_scenario(queries, rate=30.0, seed=3):
    """An open scenario replaying simulate_workload's arrival stream."""
    return TrafficScenario(
        name="replay",
        queries=tuple(queries),
        interarrivals=tuple(
            workload_interarrivals(rate, len(queries), seed=seed)
        ),
        seed=seed,
    )


def serve_with_system(
    tree, factory, scenario, policy, params=None, seed=0,
    fault_plan=None, retry_policy=None,
):
    """serve_scenario's body, returning the system for pool inspection."""
    env = Environment()
    system = DiskArraySystem(
        env, tree.num_disks, params=params, seed=seed,
        fault_plan=fault_plan, retry_policy=retry_policy,
    )
    frontend = ServingFrontend(env, system, tree, factory, scenario, policy)
    frontend.start()
    env.run()
    result = WorkloadResult(records=frontend.records)
    collect_system_stats(result, system, env)
    return system, frontend, result


class TestGoldenNoOp:
    """Unrestricted serving == the old simulate_workload loop, bit for bit.

    ``simulate_workload`` now runs this frontend itself, so the no-op
    claim is checked against the loop it used to run
    (``tests/simulation/oracle.py``).
    """

    def test_reproduces_simulate_workload_exactly(
        self, serving_tree, crss_factory, serving_points
    ):
        from repro.datasets import sample_queries

        queries = sample_queries(serving_points, 20, seed=4)
        rate, seed = 30.0, 3
        plain = oracle_simulate_workload(
            serving_tree, crss_factory, queries,
            arrival_rate=rate, seed=seed,
        )
        served = serve_scenario(
            serving_tree, crss_factory,
            open_scenario(queries, rate=rate, seed=seed),
            policy=ServingPolicy(),  # no bounds, no batching
            seed=seed,
        )
        assert served.result.makespan == plain.makespan
        assert len(served.result.records) == len(plain.records)
        for mine, theirs in zip(served.result.records, plain.records):
            assert mine.arrival == theirs.arrival
            assert mine.completion == theirs.completion
            assert mine.answers == theirs.answers
            assert mine.pages_fetched == theirs.pages_fetched
        assert all(q.outcome == "complete" for q in served.queries)

    def test_batching_off_policy_knobs_are_inert(
        self, serving_tree, crss_factory, serving_points
    ):
        """An admission bound the run never hits changes nothing."""
        from repro.datasets import sample_queries

        queries = sample_queries(serving_points, 12, seed=4)
        scenario = open_scenario(queries, rate=20.0, seed=5)
        loose = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=admission_only_policy(max_in_flight=10_000),
            seed=5,
        )
        free = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=ServingPolicy(), seed=5,
        )
        assert loose.result.makespan == free.result.makespan
        for a, b in zip(loose.queries, free.queries):
            assert a.answers == b.answers
            assert a.completion == b.completion

    def test_queued_track_only_where_admission_can_queue(
        self, serving_tree, crss_factory, serving_points
    ):
        """An unbounded policy queues nothing, so it records no
        ``serving.queued`` track; a ``max_in_flight`` bound does."""
        from repro.datasets import sample_queries
        from repro.obs.timeline import TimelineSampler

        scenario = open_scenario(
            sample_queries(serving_points, 12, seed=4), rate=60.0, seed=5
        )
        tracks = {}
        for name, policy in (
            ("unbounded", ServingPolicy()),
            ("bounded", admission_only_policy(max_in_flight=2)),
        ):
            timeline = TimelineSampler()
            serve_scenario(
                serving_tree, crss_factory, scenario,
                policy=policy, seed=5, timeline=timeline,
            )
            tracks[name] = timeline.names
        assert "queries.in_flight" in tracks["unbounded"]
        assert "serving.queued" not in tracks["unbounded"]
        assert "serving.queued" in tracks["bounded"]


class TestBatchingPreservesAnswers:
    def test_batched_answers_bit_identical_to_unbatched(
        self, serving_tree, crss_factory, serving_points
    ):
        scenario = make_scenario(
            "bursty", serving_points, rate=80.0, horizon=0.6, seed=7
        )
        policy = ServingPolicy(max_in_flight=6)
        batched_policy = ServingPolicy(
            max_in_flight=6,
            cross_query_batching=True,
            batch_window=0.0005,
            max_group_pages=32,
        )
        plain = serve_scenario(
            serving_tree, crss_factory, scenario, policy=policy, seed=1
        )
        batched = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=batched_policy, seed=1,
        )
        assert batched.batching is not None
        assert batched.batching["shared_pages"] > 0  # batching happened
        by_qid = {q.qid: q for q in plain.queries}
        for query in batched.queries:
            assert query.outcome == "complete"
            assert query.answers == by_qid[query.qid].answers

    def test_tickets_leave_no_cyclic_garbage(
        self, serving_tree, crss_factory, serving_points
    ):
        """A round's ticket is freed by reference counting alone: its
        barrier event does not point back at it."""
        scenario = make_scenario(
            "bursty", serving_points, rate=80.0, horizon=0.6, seed=7
        )
        policy = ServingPolicy(
            max_in_flight=6,
            cross_query_batching=True,
            batch_window=0.0005,
        )
        gc.collect()
        gc.disable()
        try:
            batched = serve_scenario(
                serving_tree, crss_factory, scenario, policy=policy, seed=1
            )
            assert batched.batching["shared_pages"] > 0
            del batched
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, RoundTicket)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []

    def test_dedup_fetches_shared_pages_once(
        self, serving_tree, crss_factory, serving_points
    ):
        scenario = make_scenario(
            "hotspot", serving_points, rate=100.0, horizon=0.5, seed=2
        )
        serving = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=full_serving_policy(8, deadline=5.0), seed=2,
        )
        # Pages several queries wanted at once were fetched once
        # physically yet delivered to every subscriber.
        assert serving.physical_pages < serving.logical_pages
        assert serving.batching["pages_dispatched"] < serving.batching[
            "pages_submitted"
        ]

    def test_max_group_pages_one_disables_merging(
        self, serving_tree, crss_factory, serving_points
    ):
        """The fairness cap at 1 page/transaction: every transaction
        carries one page, so none can be multi-query."""
        scenario = make_scenario(
            "bursty", serving_points, rate=60.0, horizon=0.5, seed=3
        )
        serving = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=ServingPolicy(
                max_in_flight=6,
                cross_query_batching=True,
                max_group_pages=1,
            ),
            seed=3,
        )
        counters = serving.batching
        assert counters["batched_transactions"] == 0
        assert counters["transactions"] == counters["pages_dispatched"]


class TestBufferConservationUnderChaos:
    """hits + misses == Σ page_requests, batching × faults included."""

    @pytest.mark.parametrize("batching", [False, True])
    def test_pool_conservation(
        self, serving_tree, crss_factory, serving_points, batching
    ):
        scenario = make_scenario(
            "bursty", serving_points, rate=80.0, horizon=0.6, seed=7
        )
        policy = ServingPolicy(
            max_in_flight=6,
            cross_query_batching=batching,
            batch_window=0.0005 if batching else 0.0,
        )
        system, frontend, result = serve_with_system(
            serving_tree, crss_factory, scenario, policy,
            params=SystemParameters(buffer_pages=24),
            seed=7,
            fault_plan=FaultPlan(seed=5, default_transient_prob=0.1),
            retry_policy=RetryPolicy(max_attempts=6, backoff_base=0.001),
        )
        pool = system.buffer
        assert sum(r.retries for r in result.records) > 0  # faults bit
        assert pool.hits + pool.misses == sum(
            r.page_requests for r in result.records
        )
        assert pool.hits == sum(r.buffer_hits for r in result.records)

    def test_batched_queries_degrade_with_certificates_on_crash(
        self, serving_tree, crss_factory, serving_points
    ):
        """A dead disk loses pages for every subscriber of a shared
        flight; each degrades along the PR3 certified-radius path."""
        root_disk = serving_tree.disk_of(serving_tree.root_page_id)
        dead = (root_disk + 1) % serving_tree.num_disks
        scenario = make_scenario(
            "bursty", serving_points, rate=60.0, horizon=0.6, seed=7
        )
        serving = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=ServingPolicy(
                max_in_flight=6, cross_query_batching=True
            ),
            seed=7,
            fault_plan=FaultPlan.single_crash(dead, at=0.0),
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.001),
        )
        degraded = [q for q in serving.queries if q.outcome == "degraded"]
        assert degraded
        for query in degraded:
            assert math.isfinite(query.certified_radius)
            assert query.certified_radius >= 0.0


class TestSheddingContracts:
    def test_shed_queries_get_empty_radius_zero_answers(
        self, serving_tree, crss_factory, serving_points
    ):
        scenario = make_scenario(
            "bursty", serving_points, rate=300.0, horizon=0.4, seed=5
        )
        serving = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=full_serving_policy(2, deadline=0.05), seed=5,
        )
        counts = serving.outcome_counts()
        assert counts["shed"] > 0
        for query in serving.queries:
            if query.outcome == "shed":
                assert query.answers == []
                assert query.certified_radius == 0.0
                assert query.started is None

    def test_full_queue_rejects_at_the_door(
        self, serving_tree, crss_factory, serving_points
    ):
        scenario = make_scenario(
            "bursty", serving_points, rate=300.0, horizon=0.4, seed=5
        )
        serving = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=ServingPolicy(max_in_flight=2, max_queued=3), seed=5,
        )
        counts = serving.outcome_counts()
        assert counts["rejected"] > 0
        assert serving.peak_queued <= 3
        for query in serving.queries:
            if query.outcome == "rejected":
                assert query.answers == []
                assert query.record is None

    def test_outcomes_partition_the_offered_queries(
        self, serving_tree, crss_factory, serving_points
    ):
        scenario = make_scenario(
            "bursty", serving_points, rate=200.0, horizon=0.4, seed=6
        )
        serving = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=full_serving_policy(3, max_queued=5, deadline=0.08),
            seed=6,
        )
        counts = serving.outcome_counts()
        assert sum(counts.values()) == len(serving.queries)
        assert [q.qid for q in serving.queries] == list(
            range(len(scenario.queries))
        )

    def test_admission_wait_keeps_breakdown_telescoping(
        self, serving_tree, crss_factory, serving_points
    ):
        """Queued-then-admitted queries charge the wait to the new
        ``admission_wait`` component; components still sum to the
        response time measured from scenario arrival."""
        scenario = make_scenario(
            "bursty", serving_points, rate=150.0, horizon=0.4, seed=8
        )
        serving = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=admission_only_policy(3), seed=8,
        )
        waited = [
            q for q in serving.queries
            if q.record is not None and q.record.breakdown.admission_wait > 0
        ]
        assert waited  # the bound actually queued someone
        for query in waited:
            assert query.record.breakdown.total == pytest.approx(
                query.record.response_time, rel=1e-9
            )
            assert query.record.breakdown.admission_wait == pytest.approx(
                query.admission_wait, rel=1e-9
            )


class TestClosedLoop:
    def test_closed_loop_serves_every_client_query(
        self, serving_tree, crss_factory, serving_points
    ):
        scenario = make_scenario(
            "closed", serving_points, rate=0.0, horizon=0.0, seed=9,
            clients=4, queries_per_client=5, think_time=0.01,
        )
        serving = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=ServingPolicy(max_in_flight=4), seed=9,
        )
        assert len(serving.queries) == 20
        assert all(q.outcome == "complete" for q in serving.queries)
        # Closed loop self-limits: never more in flight than clients.
        assert serving.peak_in_flight <= 4

    def test_closed_loop_deterministic(
        self, serving_tree, crss_factory, serving_points
    ):
        scenario = make_scenario(
            "closed", serving_points, rate=0.0, horizon=0.0, seed=9,
            clients=3, queries_per_client=4, think_time=0.02,
        )
        runs = [
            serve_scenario(
                serving_tree, crss_factory, scenario,
                policy=ServingPolicy(), seed=9,
            )
            for _ in range(2)
        ]
        for a, b in zip(runs[0].queries, runs[1].queries):
            assert a.arrival == b.arrival
            assert a.completion == b.completion
            assert a.answers == b.answers


class TestServingSection:
    def test_section_is_json_ready_and_consistent(
        self, serving_tree, crss_factory, serving_points
    ):
        import json

        scenario = make_scenario(
            "bursty", serving_points, rate=120.0, horizon=0.4, seed=5
        )
        serving = serve_scenario(
            serving_tree, crss_factory, scenario,
            policy=full_serving_policy(3, deadline=0.1), seed=5,
        )
        section = serving.serving_section()
        json.dumps(section)  # finite floats only — must not raise
        counts = section["counts"]
        assert counts["admitted"] == counts["complete"] + counts["degraded"]
        assert section["io"]["transactions_per_page"] > 0
        assert section["goodput"] == pytest.approx(serving.goodput)
