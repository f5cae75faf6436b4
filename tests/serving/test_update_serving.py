"""Update streams on the serving frontend.

Inserts and deletes are request kinds of a ``TrafficScenario``, and the
index latch is a frontend gate, so a mixed run gets what every served
run gets: observers that change nothing, class deadlines that count the
latch wait, and the tree checked before the run starts.
"""

import dataclasses

import pytest

from repro.core import CRSS
from repro.datasets import sample_queries, uniform
from repro.obs.lifecycle import LifecycleLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOTracker, slo_from_policy
from repro.obs.timeline import TimelineSampler
from repro.obs.trace import Tracer
from repro.parallel import build_parallel_tree
from repro.rtree import check_invariants
from repro.rtree.flat import flatten
from repro.serving import (
    TrafficScenario,
    no_admission_policy,
    serve_scenario,
    workload_interarrivals,
)
from repro.simulation.engine import Environment

DATA = uniform(400, 2, seed=91)


def fresh_tree():
    return build_parallel_tree(DATA, dims=2, num_disks=4, max_entries=8)


def mixed_scenario(queries, query_rate, inserts, insert_rate):
    """Poisson queries beside a Poisson insert stream and a few deletes."""
    return TrafficScenario(
        name="mixed",
        queries=tuple(queries),
        interarrivals=tuple(
            workload_interarrivals(query_rate, len(queries), seed=1)
        ),
        updates=(
            (
                "insert",
                tuple(
                    (tuple(p), len(DATA) + i) for i, p in enumerate(inserts)
                ),
                tuple(
                    workload_interarrivals(insert_rate, len(inserts), seed=2)
                ),
            ),
            (
                "delete",
                tuple((DATA[oid], oid) for oid in range(0, 30, 3)),
                tuple(workload_interarrivals(5.0, 10, seed=3)),
            ),
        ),
        seed=1,
    )


def factory(query):
    return CRSS(query, 6, num_disks=4)


def test_observers_leave_a_mixed_run_unchanged():
    scenario = mixed_scenario(
        sample_queries(DATA, 20, seed=92), 15.0, uniform(25, 2, seed=93), 10.0
    )
    policy = no_admission_policy(deadline=1.0)
    runs = {}
    for observed in (False, True):
        observers = {}
        if observed:
            observers = dict(
                tracer=Tracer(), metrics=MetricsRegistry(),
                timeline=TimelineSampler(), lifecycle=LifecycleLog(),
                slo=SLOTracker(slo_from_policy(policy)),
            )
        tree = fresh_tree()
        served = serve_scenario(
            tree, factory, scenario, policy=policy, seed=4, **observers
        )
        check_invariants(tree.tree)
        runs[observed] = served, observers, {
            "records": [
                repr(dataclasses.asdict(r)) for r in served.result.records
            ],
            "updates": [repr(dataclasses.asdict(u)) for u in served.updates],
            "outcomes": [q.outcome for q in served.queries],
        }
    assert runs[True][2] == runs[False][2]
    served, observers, _ = runs[True]
    assert len(served.updates) == 35
    assert len(observers["lifecycle"]) == len(served.queries) == 20
    assert observers["tracer"].records
    assert served.slo["classes"]["default"]["counts"]["total"] == 20
    assert any(track.samples for track in observers["timeline"])


def test_a_class_deadline_counts_the_latch_wait():
    """A query's class deadline runs from its arrival, so time queued
    at the write latch counts against it: beside a saturating insert
    stream most queries miss a deadline every one of them meets when
    the tree is read-only."""
    queries = sample_queries(DATA, 40, seed=94)
    policy = no_admission_policy(deadline=0.5)
    busy = serve_scenario(
        fresh_tree(), factory,
        mixed_scenario(queries, 5.0, uniform(120, 2, seed=95), 100.0),
        policy=policy, seed=4,
    )
    quiet = serve_scenario(
        fresh_tree(), factory,
        TrafficScenario(
            name="read-only",
            queries=tuple(queries),
            interarrivals=tuple(workload_interarrivals(5.0, 40, seed=1)),
            seed=1,
        ),
        policy=policy, seed=4,
    )
    assert quiet.outcome_counts()["degraded"] == 0
    degraded = [q for q in busy.queries if q.outcome == "degraded"]
    assert len(degraded) >= len(queries) // 2
    for query in degraded:
        assert query.record.deadline_exceeded
        assert query.admission_wait > 0.0
        assert query.record.breakdown.admission_wait == query.admission_wait


def test_the_timeline_shows_the_latch_queue():
    """The deadline test's busy scenario queues at the latch, and the
    timeline draws it: writers hold it, readers share it, and requests
    wait for it.  A read-only run has no latch and no latch tracks."""
    timeline = TimelineSampler()
    serve_scenario(
        fresh_tree(), factory,
        mixed_scenario(sample_queries(DATA, 40, seed=94), 5.0,
                       uniform(120, 2, seed=95), 100.0),
        policy=no_admission_policy(deadline=0.5), seed=4, timeline=timeline,
    )
    tracks = {track.name: track for track in timeline}
    assert tracks["latch.queue"].max > 0
    assert tracks["latch.writer"].max == 1
    assert tracks["latch.readers"].max >= 1
    for name in ("latch.readers", "latch.writer", "latch.queue"):
        assert tracks[name].last == 0
    quiet = TimelineSampler()
    serve_scenario(
        fresh_tree(), factory,
        TrafficScenario(
            name="read-only",
            queries=tuple(sample_queries(DATA, 10, seed=94)),
            interarrivals=tuple(workload_interarrivals(5.0, 10, seed=1)),
            seed=1,
        ),
        policy=no_admission_policy(), seed=4, timeline=quiet,
    )
    assert not [name for name in quiet.names if name.startswith("latch.")]


def test_admitted_is_logged_when_the_latch_is_granted():
    """Beside updates a query admitted at the door starts only once the
    shared latch is granted; its lifecycle ``admitted`` event carries
    that instant and the wait, the query's ``admission_wait``."""
    log = LifecycleLog()
    served = serve_scenario(
        fresh_tree(), factory,
        mixed_scenario(
            sample_queries(DATA, 10, seed=94), 5.0, uniform(60, 2, seed=95),
            100.0,
        ),
        policy=no_admission_policy(), seed=4, lifecycle=log,
    )
    events = {record["qid"]: record["events"] for record in log.records}
    for query in served.queries:
        (admitted,) = [
            e for e in events[query.qid] if e["event"] == "admitted"
        ]
        assert admitted["ts"] == query.started
        assert admitted["waited"] == query.admission_wait
    assert served.queries[0].admission_wait == pytest.approx(6.87, abs=0.01)
    kinds = [e["event"] for e in events[0]]
    assert kinds.index("admitted") < kinds.index("round")


def test_updates_on_a_frozen_tree_are_refused_before_the_run(monkeypatch):
    def no_run(self, *args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(Environment, "run", no_run)
    scenario = mixed_scenario(
        sample_queries(DATA, 5, seed=96), 10.0, uniform(5, 2, seed=97), 5.0
    )
    frozen = flatten(fresh_tree())
    with pytest.raises(TypeError, match="FrozenParallelTree cannot take"):
        serve_scenario(frozen, factory, scenario)
