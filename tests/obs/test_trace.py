"""Tests for the tracer and its record types."""

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    CounterRecord,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    coalesce,
)


class TestTracer:
    def test_records_in_emission_order(self):
        tracer = Tracer()
        tracer.span("disk0", "service", "disk", 0.0, 1.0)
        tracer.instant("disk0", "tick", "misc", 1.5)
        tracer.counter("disk0", "queue", 2.0, 3)
        kinds = [type(r) for r in tracer.records]
        assert kinds == [SpanRecord, InstantRecord, CounterRecord]
        assert len(tracer) == 3

    def test_span_fields(self):
        tracer = Tracer()
        tracer.span("bus", "transfer", "bus", 1.0, 1.5, flow=7,
                    args={"pages": 2})
        (span,) = tracer.records
        assert span.duration == pytest.approx(0.5)
        assert span.flow == 7
        assert span.as_dict()["args"] == {"pages": 2}
        assert span.as_dict()["kind"] == "span"

    def test_records_are_slotted_and_immutable(self):
        tracer = Tracer()
        tracer.span("t", "x", "c", 0.0, 1.0)
        tracer.instant("t", "y", "c", 0.5)
        tracer.counter("t", "z", 0.5, 1)
        tracer.async_event("t", "w", "c", "b", 0.5, 3)
        for record in tracer.records:
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.track = "other"

    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError, match="ends before"):
            Tracer().span("t", "x", "c", 2.0, 1.0)

    def test_tracks_register_in_order(self):
        tracer = Tracer()
        tracer.track("disk0")
        tracer.track("bus")
        tracer.span("query0", "query", "query", 0.0, 1.0)
        tracer.track("disk0")  # re-registration is a no-op
        assert tracer.tracks == ("disk0", "bus", "query0")

    def test_as_dict_omits_empty_optionals(self):
        tracer = Tracer()
        tracer.span("t", "x", "c", 0.0, 1.0)
        tracer.instant("t", "y", "c", 0.5)
        span_dict, instant_dict = (r.as_dict() for r in tracer.records)
        assert "flow" not in span_dict and "args" not in span_dict
        assert "flow" not in instant_dict and "args" not in instant_dict


class TestNullTracer:
    def test_disabled_and_empty(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.records == ()
        assert NULL_TRACER.tracks == ()

    def test_all_probes_are_noops(self):
        tracer = NullTracer()
        tracer.track("disk0")
        tracer.span("disk0", "service", "disk", 0.0, 1.0, flow=1,
                    args={"a": 1})
        tracer.instant("disk0", "tick", "misc", 0.5)
        tracer.counter("disk0", "queue", 0.5, 2)
        assert tracer.records == ()

    def test_coalesce(self):
        assert coalesce(None) is NULL_TRACER
        tracer = Tracer()
        assert coalesce(tracer) is tracer
