"""Tests for the JSONL and Chrome trace-event exports."""

import json
import tracemalloc

import pytest

from repro.experiments.setup import make_factory
from repro.obs.export import (
    chrome_trace,
    dumps_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.trace import Tracer
from repro.simulation import simulate_workload


def traced_run(tree, queries, algorithm="CRSS", seed=5):
    tracer = Tracer()
    simulate_workload(
        tree,
        make_factory(algorithm, tree, 5),
        queries,
        arrival_rate=8.0,
        seed=seed,
        tracer=tracer,
    )
    return tracer


class TestJsonl:
    def test_one_valid_json_object_per_line(self, ten_disk_tree, obs_queries):
        tracer = traced_run(ten_disk_tree, obs_queries)
        lines = dumps_jsonl(tracer).splitlines()
        assert len(lines) == len(tracer.records)
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds <= {"span", "instant", "counter"}
        assert "span" in kinds

    def test_empty_tracer_exports_empty_text(self):
        assert dumps_jsonl(Tracer()) == ""

    def test_deterministic_across_runs(self, ten_disk_tree, obs_queries):
        """Identical seed ⇒ byte-identical JSONL trace."""
        first = dumps_jsonl(traced_run(ten_disk_tree, obs_queries, seed=9))
        second = dumps_jsonl(traced_run(ten_disk_tree, obs_queries, seed=9))
        assert first.encode() == second.encode()

    def test_seed_changes_trace(self, ten_disk_tree, obs_queries):
        first = dumps_jsonl(traced_run(ten_disk_tree, obs_queries, seed=1))
        second = dumps_jsonl(traced_run(ten_disk_tree, obs_queries, seed=2))
        assert first != second

    def test_write_jsonl(self, ten_disk_tree, obs_queries, tmp_path):
        tracer = traced_run(ten_disk_tree, obs_queries)
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, str(path))
        assert path.read_text() == dumps_jsonl(tracer)


class TestChromeTrace:
    def test_ten_disk_crss_trace_is_schema_valid(
        self, ten_disk_tree, obs_queries
    ):
        """Acceptance: a 10-disk CRSS workload exports valid trace-event
        JSON — re-parsed from its serialized form, as a viewer would."""
        tracer = traced_run(ten_disk_tree, obs_queries)
        document = json.loads(json.dumps(chrome_trace(tracer)))
        assert validate_chrome_trace(document) == len(
            document["traceEvents"]
        ) > 0

    def test_tracks_become_named_threads(self, ten_disk_tree, obs_queries):
        tracer = traced_run(ten_disk_tree, obs_queries)
        document = chrome_trace(tracer)
        names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        for disk in range(10):
            assert f"disk{disk}" in names
        assert "bus" in names and "cpu" in names
        assert any(name.startswith("query") for name in names)

    def test_queries_linked_by_flows(self, ten_disk_tree, obs_queries):
        tracer = traced_run(ten_disk_tree, obs_queries)
        events = chrome_trace(tracer)["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == len(obs_queries)
        # Flow ids are the query ids, each starting on the query's track.
        assert sorted(e["id"] for e in starts) == list(range(len(obs_queries)))

    def test_timestamps_are_microseconds(self, ten_disk_tree, obs_queries):
        tracer = traced_run(ten_disk_tree, obs_queries)
        spans = [r for r in tracer.records if hasattr(r, "duration")]
        events = chrome_trace(tracer)["traceEvents"]
        max_ts = max(e["ts"] for e in events if e["ph"] == "X")
        assert max_ts == pytest.approx(max(s.start for s in spans) * 1e6)

    def test_write_chrome_trace(self, ten_disk_tree, obs_queries, tmp_path):
        tracer = traced_run(ten_disk_tree, obs_queries)
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        with open(path) as handle:
            assert validate_chrome_trace(handle) > 0


def traced_peak(call) -> int:
    """Peak bytes allocated while *call* runs (tracemalloc)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingWrite:
    def test_writing_peaks_far_below_building_the_document(self, tmp_path):
        """The writer streams chunks of events: it never holds the event
        list, or the text, of the whole document that ``chrome_trace``
        builds.  (Encoding the document in one piece peaks as high as
        building it.)"""
        tracer = Tracer()
        for i in range(30_000):
            t = i * 1e-3
            tracer.span(f"disk{i % 10}", "service", "disk", t, t + 5e-4,
                        flow=i // 10, args={"page": i})
            tracer.counter(f"disk{i % 10}", "queue", t, i % 7)
        path = tmp_path / "trace.json"
        writing = traced_peak(lambda: write_chrome_trace(tracer, str(path)))
        building = traced_peak(lambda: chrome_trace(tracer))
        assert writing < 0.25 * building


class TestWriteTrace:
    def test_format_dispatch(self, ten_disk_tree, obs_queries, tmp_path):
        tracer = traced_run(ten_disk_tree, obs_queries)
        chrome_path = tmp_path / "t.json"
        jsonl_path = tmp_path / "t.jsonl"
        write_trace(tracer, str(chrome_path), "chrome")
        write_trace(tracer, str(jsonl_path), "jsonl")
        assert validate_chrome_trace(chrome_path.read_text()) > 0
        assert jsonl_path.read_text() == dumps_jsonl(tracer)
        with pytest.raises(ValueError, match="unknown trace format"):
            write_trace(tracer, str(chrome_path), "svg")


class TestValidator:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])

    def test_rejects_missing_event_list(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_rejects_bad_span(self):
        events = [{"ph": "X", "pid": 1, "tid": 1, "ts": -1.0, "dur": 1.0,
                   "name": "x", "cat": "c"}]
        with pytest.raises(ValueError, match="bad timestamp"):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_unknown_phase(self):
        events = [{"ph": "?", "pid": 1, "ts": 0.0}]
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace({"traceEvents": events})


def _counter_event(**overrides):
    event = {"ph": "C", "pid": 1, "tid": 3, "ts": 1.5, "name": "t depth",
             "args": {"depth": 2.0}}
    event.update(overrides)
    return event


class TestCounterValidation:
    def test_valid_counter_accepted(self):
        assert validate_chrome_trace(
            {"traceEvents": [_counter_event()]}
        ) == 1

    def test_rejects_missing_name(self):
        with pytest.raises(ValueError, match="need a 'name'"):
            validate_chrome_trace({"traceEvents": [_counter_event(name="")]})

    def test_rejects_missing_tid(self):
        event = _counter_event()
        del event["tid"]
        with pytest.raises(ValueError, match="need a 'tid'"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_empty_args(self):
        with pytest.raises(ValueError, match="non-empty 'args'"):
            validate_chrome_trace({"traceEvents": [_counter_event(args={})]})

    def test_rejects_non_numeric_series(self):
        with pytest.raises(ValueError, match="must be numeric"):
            validate_chrome_trace(
                {"traceEvents": [_counter_event(args={"depth": "deep"})]}
            )

    def test_rejects_boolean_series(self):
        """JSON true/false are ints in Python; Perfetto can't plot them."""
        with pytest.raises(ValueError, match="must be numeric"):
            validate_chrome_trace(
                {"traceEvents": [_counter_event(args={"busy": True})]}
            )


class TestTimelineCounterRoundTrip:
    """TimelineSampler → tracer counters → Chrome export → validator."""

    def test_flushed_timeline_round_trips(self, tmp_path):
        from repro.obs.timeline import TimelineSampler

        sampler = TimelineSampler()
        sampler.record("disk0.queue_depth", 0.0, 0.0)
        sampler.record("disk0.queue_depth", 0.5, 2.0)
        sampler.record("bus.busy", 0.25, 1.0)
        tracer = Tracer()
        assert sampler.flush_to_tracer(tracer) == 3

        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == len(
            document["traceEvents"]
        )

        counters = [
            e for e in document["traceEvents"] if e["ph"] == "C"
        ]
        assert len(counters) == 3
        # Timestamps are microseconds; args carry the sampled value
        # under the series name.
        got = sorted(
            (event["name"], event["ts"], *event["args"].items())
            for event in counters
        )
        assert got == [
            ("timeline bus.busy", 0.25e6, ("bus.busy", 1.0)),
            ("timeline disk0.queue_depth", 0.0, ("disk0.queue_depth", 0.0)),
            ("timeline disk0.queue_depth", 0.5e6,
             ("disk0.queue_depth", 2.0)),
        ]

    def test_simulated_timeline_export_is_schema_valid(
        self, ten_disk_tree, obs_queries
    ):
        from repro.obs.timeline import TimelineSampler

        tracer = Tracer()
        sampler = TimelineSampler()
        simulate_workload(
            ten_disk_tree,
            make_factory("CRSS", ten_disk_tree, 5),
            obs_queries,
            arrival_rate=8.0,
            seed=5,
            tracer=tracer,
            timeline=sampler,
        )
        assert sampler.flush_to_tracer(tracer) > 0
        document = chrome_trace(tracer)
        assert validate_chrome_trace(document) == len(
            document["traceEvents"]
        )
        assert any(e["ph"] == "C" for e in document["traceEvents"])


def _async_event(**overrides):
    event = {"ph": "b", "pid": 1, "ts": 1.0, "name": "life q0",
             "cat": "lifecycle", "id": 0, "scope": "q"}
    event.update(overrides)
    return event


class TestAsyncValidation:
    """Async b/n/e events pair by (cat, scope, id) and must nest."""

    def test_valid_span_accepted(self):
        events = [
            _async_event(),
            _async_event(ph="n", ts=2.0, name="round"),
            _async_event(ph="e", ts=3.0),
        ]
        assert validate_chrome_trace({"traceEvents": events}) == 3

    def test_same_id_different_cat_or_scope_is_distinct(self):
        events = [
            _async_event(),
            _async_event(cat="other"),
            _async_event(scope="x"),
            _async_event(ph="e", ts=2.0),
            _async_event(ph="e", ts=2.0, cat="other"),
            _async_event(ph="e", ts=2.0, scope="x"),
        ]
        assert validate_chrome_trace({"traceEvents": events}) == 6

    def test_rejects_missing_id_name_cat(self):
        event = _async_event()
        del event["id"]
        with pytest.raises(ValueError, match="need an 'id'"):
            validate_chrome_trace({"traceEvents": [event]})
        with pytest.raises(ValueError, match="'name' and 'cat'"):
            validate_chrome_trace({"traceEvents": [_async_event(name="")]})

    def test_rejects_non_string_scope(self):
        with pytest.raises(ValueError, match="scope must be a string"):
            validate_chrome_trace({"traceEvents": [_async_event(scope=3)]})

    def test_rejects_bead_or_end_before_begin(self):
        with pytest.raises(ValueError, match="without an open 'b'"):
            validate_chrome_trace(
                {"traceEvents": [_async_event(ph="n")]}
            )
        with pytest.raises(ValueError, match="without an open 'b'"):
            validate_chrome_trace(
                {"traceEvents": [_async_event(ph="e")]}
            )

    def test_rejects_double_begin(self):
        events = [_async_event(), _async_event(ts=2.0)]
        with pytest.raises(ValueError, match="begun twice"):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_time_travelling_end(self):
        events = [_async_event(ts=5.0), _async_event(ph="e", ts=1.0)]
        with pytest.raises(ValueError, match="precedes its 'b'"):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_dangling_span(self):
        with pytest.raises(ValueError, match="never ended"):
            validate_chrome_trace({"traceEvents": [_async_event()]})

    def test_span_reopens_after_close(self):
        events = [
            _async_event(),
            _async_event(ph="e", ts=2.0),
            _async_event(ts=3.0),
            _async_event(ph="e", ts=4.0),
        ]
        assert validate_chrome_trace({"traceEvents": events}) == 4


class TestAsyncRoundTrip:
    """Tracer.async_event → chrome_trace → validator → Perfetto shape."""

    def test_exported_async_events_carry_scope_and_microseconds(self):
        tracer = Tracer()
        tracer.async_event("query0", "life q0", "lifecycle", "b", 0.5, 0,
                           scope="q", args={"class": "default"})
        tracer.async_event("query0", "round", "lifecycle", "n", 0.75, 0,
                           scope="q")
        tracer.async_event("query0", "life q0", "lifecycle", "e", 1.0, 0,
                           scope="q", args={"outcome": "complete"})
        document = chrome_trace(tracer)
        assert validate_chrome_trace(document) == len(
            document["traceEvents"]
        )
        span = [e for e in document["traceEvents"] if e["ph"] == "b"][0]
        assert span["ts"] == pytest.approx(0.5e6)
        assert span["scope"] == "q"
        assert span["args"] == {"class": "default"}

    def test_round_trips_through_disk(self, tmp_path):
        tracer = Tracer()
        tracer.async_event("q", "s", "lifecycle", "b", 0.0, 7, scope="q")
        tracer.async_event("q", "s", "lifecycle", "e", 1.0, 7, scope="q")
        path = tmp_path / "async.json"
        write_chrome_trace(tracer, str(path))
        with open(path) as handle:
            assert validate_chrome_trace(handle) > 0

    def test_tracer_rejects_unknown_async_phase(self):
        with pytest.raises(ValueError, match="phase"):
            Tracer().async_event("q", "s", "c", "x", 0.0, 1)
