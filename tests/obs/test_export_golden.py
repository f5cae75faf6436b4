"""Export bytes pinned: the Chrome trace, the trace JSONL and the
lifecycle JSONL, for three inputs.

The hashes were recorded before the writers began streaming their output
in chunks, on the writers that are now ``tests/obs/oracle.py``, and must
never change:

* ``serve`` — a fixed-seed, overloaded ``serve_scenario`` run with the
  tracer, the timeline, the lifecycle log and the explain collector
  attached, every observer flushed into the tracer the way ``repro
  serve --trace --explain`` does it; large enough that every writer
  spans several chunks;
* ``synthetic`` — a hand-built tracer and lifecycle log with every
  record type, non-ASCII and escape-needing strings, nested and empty
  args, ``True`` / ``None`` / int / ``-0.0`` / non-finite values, and
  flows of one, two and many spans;
* ``empty`` — nothing recorded at all.

Around them, hypothesis-generated tracers and logs whose event or line
counts sit at the chunk size, one either side of it, and at its double,
must make the streaming writers write the oracle's bytes.
"""

import functools
import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.setup import build_tree, dataset, make_factory
from repro.obs.explain import WorkloadExplain
from repro.obs.export import (
    _CHUNK as CHUNK,
    chrome_trace,
    dumps_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.lifecycle import LifecycleLog
from repro.obs.timeline import TimelineSampler
from repro.obs.trace import Tracer
from repro.serving.admission import full_serving_policy
from repro.serving.frontend import serve_scenario
from repro.serving.traffic import make_scenario
from repro.simulation.parameters import SystemParameters
from tests.obs import oracle

#: input -> sha256 of (Chrome trace, trace JSONL, lifecycle JSONL).
GOLDEN = {
    "serve": (
        "228d4bc4d23ba5622b6dfc346932375ad2e959048714df3ed32453b16f2c5c94",
        "dc305ec5f062af682400c8fb1af5d7f0ed2b72a0c4662fd2267b66fa9353ec8b",
        "f11c8d449862372a3b3f98b01a3b2f8e3b3fe99726205c89b07e7681a41eb2d9",
    ),
    "synthetic": (
        "68fab270320d7be764d6d1d932ec693aac0e2591ccdf4ecc7898dde704edf386",
        "dac7834b6a84412a890a37b4f6b00949875d6dc13c4a0b220911c77b65ea74eb",
        "44e5cbc1934dd630dfe2c9bf7c42e2b92c3a704ddc99bba8415412e91f10acc3",
    ),
    "empty": (
        "c8fdf0c9f9248908095b2afbe0f86dab4b8164869619339aa1532d21f2bb1e55",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def serve_input():
    """(tracer, lifecycle log) of an observed, overloaded serving run."""
    data = dataset("gaussian", 600, 2, seed=13)
    tree = build_tree("gaussian", 600, 2, 4, seed=13)
    tracer, timeline, lifecycle = Tracer(), TimelineSampler(), LifecycleLog()
    explain = WorkloadExplain(
        num_disks=tree.num_disks,
        level_of=lambda pid: tree.page(pid).level,
        disk_of=tree.disk_of,
        label="CRSS",
    )
    serve_scenario(
        tree,
        explain.attach(make_factory("CRSS", tree, 5)),
        make_scenario("bursty", data, rate=600.0, horizon=4.0, seed=14),
        policy=full_serving_policy(
            max_in_flight=6, max_queued=12, deadline=0.12
        ),
        params=SystemParameters(coalesce=True),
        seed=15,
        tracer=tracer,
        timeline=timeline,
        lifecycle=lifecycle,
    )
    for observer in (timeline, explain, lifecycle):
        observer.flush_to_tracer(tracer)
    return tracer, lifecycle


#: Strings JSON has to escape, or to encode as non-ASCII.
AWKWARD = 'é 日本 "q" back\\slash new\nline tab\t nul\x00 \u2028 \x7f 😀'


def synthetic_input():
    """(tracer, lifecycle log) touching every encoder corner the
    exports can reach."""
    tracer = Tracer()
    tracer.track("disk0", sort_index=4)
    tracer.track(AWKWARD)
    tracer.span("disk0", "service", "disk", 0.0, 0.5, flow=1,
                args={"page": 3, "hit": True, "gone": None})
    tracer.span("bus", "transfer", "bus", 0.5, 0.5, flow=1, args={})
    tracer.span(AWKWARD, AWKWARD, AWKWARD, -0.0, 0.25, flow=2,
                args={AWKWARD: [AWKWARD, -0.0, {"deep": {"er": []}}]})
    for step in range(6):
        tracer.span(f"query{step % 3}", "round", "query",
                    0.125 * step, 0.125 * step + 0.1, flow=3,
                    args={"step": step, "nested": {"b": 1, "a": (2, 3)}})
    tracer.span("cpu", "ties", "cpu", 0.25, 0.25, flow=3)
    tracer.span("cpu", "ties", "cpu", 0.25, 0.25, flow=3,
                args={10: "ten", 9: "nine"})
    tracer.instant("disk0", "fault", "fault", 0.3, flow=2,
                   args={"error": AWKWARD, "big": 2 ** 70, "neg": -7})
    tracer.instant("cpu", "tick", "misc", -0.0)
    tracer.instant("cpu", "inf", "misc", 1.0,
                   args={"up": float("inf"), "down": float("-inf"),
                         "nan": float("nan")})
    tracer.counter("timeline", "disk0.queue_depth", 0.0, 0)
    tracer.counter("timeline", AWKWARD, 0.1, -0.0)
    tracer.counter("timeline", "bus.busy", 0.2, True)
    tracer.counter("timeline", "big", 1e300, 1.5e-300)
    tracer.async_event("query0", "life q0", "lifecycle", "b", 0.0, 0,
                       scope="q", args={"class": AWKWARD})
    tracer.async_event("query0", "round", "lifecycle", "n", 0.1, 0,
                       scope="q")
    tracer.async_event("query0", "life q0", "lifecycle", "e", 0.2, 0,
                       scope="q", args={"outcome": "complete"})
    tracer.async_event("query1", "unscoped", "lifecycle", "b", 0.3, 1)
    tracer.async_event("query1", "unscoped", "lifecycle", "e", 0.4, 1,
                       args={})

    log = LifecycleLog()
    log.arrival(3, 0.0, AWKWARD)
    log.queued(3, 0.0, 2)
    log.popped(3, 0.01, 0.01)
    log.batch(3, 0.011, 4, 1)
    log.round(3, 0.011, 0.02, requested=4, buffer_hits=1, pages_fetched=3,
              failed=0, retries=2, failovers=1, fetch_failures=1, hedges=1,
              deadline_cut=True)
    log.outcome(3, 0.05, "complete", float("inf"), 10)
    log.arrival(1, -0.0, "")
    log.shed(1, 0.5, AWKWARD)
    log.outcome(1, 0.5, "shed", 0.0, 0)
    log.arrival(2, 0.2, "bulk")
    log.rejected(2, 0.2)
    log.outcome(2, 0.2, "rejected", float("nan"), 0)
    log.arrival(7, 0.3, "never settled")
    return tracer, log


INPUTS = {
    "serve": serve_input,
    "synthetic": synthetic_input,
    "empty": lambda: (Tracer(), LifecycleLog()),
}


def written(writer, *args) -> bytes:
    """The bytes *writer* puts in a fresh file (its last argument)."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "artifact"
        writer(*args, str(path))
        return path.read_bytes()


@functools.lru_cache(maxsize=None)
def artifacts(name):
    """The sha256 of every export of one input, written once."""
    tracer, log = INPUTS[name]()
    return {
        "chrome": sha256(written(write_chrome_trace, tracer)),
        "jsonl": sha256(written(write_jsonl, tracer)),
        "dumps_jsonl": sha256(dumps_jsonl(tracer).encode("utf-8")),
        "lifecycle": sha256(written(log.write_jsonl)),
        "to_jsonl": sha256(log.to_jsonl().encode("utf-8")),
        "oracle_chrome": sha256(written(oracle.write_chrome_trace, tracer)),
        "oracle_jsonl": sha256(written(oracle.write_jsonl, tracer)),
        "oracle_lifecycle": sha256(
            written(oracle.lifecycle_write_jsonl, log)
        ),
        "document_matches": chrome_trace(tracer) == oracle.chrome_trace(
            tracer
        ),
        "events": len(oracle.chrome_trace(tracer)["traceEvents"]),
        "lines": len(tracer),
        "queries": len(log),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_chrome_trace_bytes_are_pinned(name):
    assert artifacts(name)["chrome"] == GOLDEN[name][0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_jsonl_bytes_are_pinned(name):
    found = artifacts(name)
    assert found["jsonl"] == GOLDEN[name][1]
    assert found["dumps_jsonl"] == found["jsonl"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_lifecycle_jsonl_bytes_are_pinned(name):
    found = artifacts(name)
    assert found["lifecycle"] == GOLDEN[name][2]
    assert found["to_jsonl"] == found["lifecycle"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_writers_write_the_oracles_bytes(name):
    found = artifacts(name)
    assert found["chrome"] == found["oracle_chrome"]
    assert found["jsonl"] == found["oracle_jsonl"]
    assert found["lifecycle"] == found["oracle_lifecycle"]
    assert found["document_matches"]


def test_the_serve_input_spans_several_chunks():
    found = artifacts("serve")
    assert found["events"] > 4 * CHUNK
    assert found["lines"] > 4 * CHUNK
    assert found["queries"] > 2 * CHUNK


# -- generated inputs -------------------------------------------------------

text = st.text(
    alphabet=st.sampled_from(
        ["a", "Z", " ", "é", "日", "\n", '"', "\\", "\u2028", "\x00", "😀"]
    ),
    max_size=4,
)
times = st.sampled_from([0.0, -0.0]) | st.floats(
    0.0, 1e4, allow_nan=False, allow_infinity=False
)
scalars = (
    st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70)
    | st.floats() | text
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(text, inner, max_size=3),
    max_leaves=6,
)
arguments = st.none() | st.dictionaries(text, values, max_size=3)
tracks = st.sampled_from(["disk0", "bus", "query1", "é 日", 'q"\n'])
flows = st.none() | st.integers(0, 3)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("track"), tracks, st.none() | st.integers(0, 9)),
        st.tuples(st.just("span"), tracks, text, text, times, times,
                  flows, arguments),
        st.tuples(st.just("instant"), tracks, text, text, times, flows,
                  arguments),
        st.tuples(st.just("counter"), tracks, text, times, values),
        st.tuples(st.just("async"), tracks, text, text,
                  st.sampled_from("bne"), times, st.integers(0, 5),
                  st.sampled_from(["", "q", "é"]), arguments),
    ),
    max_size=30,
)

#: Offsets from a multiple of the chunk size: under, at, over.
targets = st.tuples(st.sampled_from([1, 2]), st.sampled_from([-1, 0, 1]))


def replay(ops) -> Tracer:
    tracer = Tracer()
    for op in ops:
        kind, rest = op[0], op[1:]
        if kind == "track":
            tracer.track(*rest)
        elif kind == "span":
            track, name, category, start, length, flow, args = rest
            tracer.span(track, name, category, start, start + length,
                        flow=flow, args=args)
        elif kind == "instant":
            track, name, category, ts, flow, args = rest
            tracer.instant(track, name, category, ts, flow=flow, args=args)
        elif kind == "counter":
            tracer.counter(*rest)
        else:
            track, name, category, phase, ts, id_, scope, args = rest
            tracer.async_event(track, name, category, phase, ts, id_,
                               scope=scope, args=args)
    return tracer


def pad(tracer: Tracer, count, target: int) -> Tracer:
    """*tracer* grown by counter samples until ``count(tracer)`` is
    *target*; each sample on an already-registered track adds one
    record, one event and one line."""
    tracer.track("pad")
    for step in range(target - count(tracer)):
        tracer.counter("pad", "n", float(step), step)
    assert count(tracer) == target
    return tracer


@settings(max_examples=60, deadline=None)
@given(ops=operations, target=targets, padded=st.booleans())
def test_chrome_trace_streams_the_oracles_bytes(ops, target, padded):
    tracer = replay(ops)
    if padded:
        multiple, offset = target
        pad(
            tracer,
            lambda t: len(oracle.chrome_trace(t)["traceEvents"]),
            multiple * CHUNK + offset,
        )
    assert written(write_chrome_trace, tracer) == written(
        oracle.write_chrome_trace, tracer
    )


@settings(max_examples=60, deadline=None)
@given(ops=operations, target=targets, padded=st.booleans())
def test_trace_jsonl_streams_the_oracles_bytes(ops, target, padded):
    tracer = replay(ops)
    if padded:
        multiple, offset = target
        pad(tracer, len, multiple * CHUNK + offset)
    expected = written(oracle.write_jsonl, tracer)
    assert written(write_jsonl, tracer) == expected
    assert dumps_jsonl(tracer).encode("utf-8") == expected


queries = st.lists(
    st.tuples(
        text,
        times,
        st.sampled_from(["complete", "degraded", "shed", "rejected", None]),
        st.sampled_from([0.0, -0.0, 0.25, float("inf"), float("nan")]),
    ),
    max_size=12,
)


@settings(max_examples=30, deadline=None)
@given(spec=queries, target=targets, padded=st.booleans())
def test_lifecycle_jsonl_streams_the_oracles_bytes(spec, target, padded):
    log = LifecycleLog()
    for qid, (klass, ts, outcome, radius) in enumerate(spec):
        log.arrival(qid, ts, klass)
        log.queued(qid, ts, qid)
        if outcome is not None:
            log.outcome(qid, ts + 0.5, outcome, radius, qid)
    if padded:
        multiple, offset = target
        qid = len(spec)
        while len(log) < multiple * CHUNK + offset:
            log.arrival(qid, float(qid), "pad")
            qid += 1
    expected = written(oracle.lifecycle_write_jsonl, log)
    assert written(log.write_jsonl) == expected
    assert log.to_jsonl().encode("utf-8") == expected
