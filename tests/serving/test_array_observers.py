"""Equal observer coverage on both array types, asserted once.

The striped (RAID-0) and mirrored (RAID-1) arrays share one fetch path,
so a faulty run must emit the same kinds of telemetry on either —
disk/bus/cpu spans, fault instants, queue-depth gauges, retry/failure
counters, flow ids — and attaching the observers must change nothing.
"""

import re

import pytest

from repro.faults import CrashWindow, FaultPlan, RetryPolicy, SlowWindow
from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.timeline import TimelineSampler
from repro.obs.trace import InstantRecord, SpanRecord
from repro.serving.admission import PriorityClass, ServingPolicy
from repro.serving.bench import _served_digest
from repro.serving.frontend import serve_scenario
from repro.serving.traffic import make_scenario
from repro.simulation.parameters import SystemParameters

#: Per array type: the tail-tolerance features it supports, all on, and
#: the shape of its per-drive track names.
ARRAYS = {
    "raid0": (dict(), re.compile(r"disk\d+$")),
    "raid1": (
        dict(hedge=HedgePolicy(min_delay=0.002), rebuild=RebuildPolicy()),
        re.compile(r"disk\d+r[01]$"),
    ),
}


@pytest.fixture(scope="module")
def scenario(serving_points):
    return make_scenario(
        "bursty", serving_points, rate=60.0, horizon=1.0, seed=21
    )


def _serve(raid, tree, factory, scenario, **observers):
    # Physical ids: on RAID-1 drives 1, 2, 3 sit in pairs 0 and 1, so
    # crashed-pair failures, failovers and hedges all occur.
    plan = FaultPlan(
        seed=4,
        default_transient_prob=0.05,
        crashes=(CrashWindow(2, 0.1, 0.4), CrashWindow(3, 0.2, 0.3)),
        slow_windows=(SlowWindow(1, 0.0, 0.8, 6.0),),
    )
    return serve_scenario(
        tree, factory, scenario,
        # No cross-query batching: every fetch belongs to one query.
        policy=ServingPolicy(
            max_in_flight=8, classes=(PriorityClass(deadline=0.4),)
        ),
        params=SystemParameters(coalesce=True, buffer_pages=16),
        seed=5,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=2, attempt_timeout=0.15),
        raid=raid,
        health=HealthPolicy(latency_threshold=0.08, seed=3),
        **ARRAYS[raid][0],
        **observers,
    )


@pytest.mark.parametrize("raid", sorted(ARRAYS))
def test_faulty_run_is_fully_observed(
    raid, serving_tree, crss_factory, scenario
):
    tracer, metrics, timeline = Tracer(), MetricsRegistry(), TimelineSampler()
    serving = _serve(
        raid, serving_tree, crss_factory, scenario,
        tracer=tracer, metrics=metrics, timeline=timeline,
    )
    system = serving.system
    assert system.retries > 0 and system.failed_fetches > 0

    assert validate_chrome_trace(chrome_trace(tracer)) > 0
    marks = [
        r for r in tracer.records
        if isinstance(r, (SpanRecord, InstantRecord))
        and r.category in ("disk", "bus", "cpu", "fault")
    ]
    assert {r.category for r in marks} == {"disk", "bus", "cpu", "fault"}
    # Every resource-level mark of a query carries that query's flow id.
    qids = {query.qid for query in serving.queries}
    assert all(r.flow in qids for r in marks)
    # Disk spans and fault instants sit on the array's own drive tracks.
    drive_track = ARRAYS[raid][1]
    drive_marks = [r for r in marks if r.category in ("disk", "fault")]
    assert all(drive_track.match(r.track) for r in drive_marks)
    assert {r.track for r in drive_marks} <= set(system.drive_names)
    for span in marks:
        if isinstance(span, SpanRecord):
            assert span.start <= span.end

    assert metrics.counter("fetch.retries").value == system.retries
    assert metrics.counter("fetch.failures").value == system.failed_fetches
    snapshot = metrics.snapshot()
    for name in system.drive_names + ["bus", "cpu"]:
        assert f"{name}.queue_depth" in snapshot
        assert f"{name}.queue_depth" in timeline
    for name, distance in zip(system.drive_names, system.seek_distances()):
        assert metrics.counter(f"{name}.seek_distance").value == distance
    assert f"{system.drive_names[-1]}.health" in timeline

    result = serving.result
    drives = serving_tree.num_disks * system.REPLICAS
    assert len(result.mean_queue_lengths) == drives
    assert len(result.max_queue_lengths) == drives


@pytest.mark.parametrize("raid", sorted(ARRAYS))
def test_observers_are_write_only(raid, serving_tree, crss_factory, scenario):
    def run(**observers):
        serving = _serve(
            raid, serving_tree, crss_factory, scenario, **observers
        )
        records = [
            (r.arrival.hex(), r.completion.hex(), r.pages_fetched,
             r.retries, r.failovers, r.fetch_failures)
            for r in serving.result.records
        ]
        outcomes = [(q.qid, q.outcome) for q in serving.queries]
        return records, outcomes, _served_digest(serving)

    observed = run(
        tracer=Tracer(), metrics=MetricsRegistry(),
        timeline=TimelineSampler(),
    )
    assert observed == run()
