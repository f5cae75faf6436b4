"""Trace export: JSONL and the Chrome trace-event format.

Two consumers, two formats:

* **JSONL** — one JSON object per record, in emission order, with
  sorted keys.  Deterministic byte-for-byte given a deterministic
  simulation; the natural input for ad-hoc analysis scripts.
* **Chrome trace events** — the JSON schema understood by Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing``.  Each tracer
  track becomes a named thread under one "disk array simulation"
  process: disks, bus and CPU first, then one row per query.  Spans
  sharing a flow id (one query's fetches across disks and the bus) are
  linked with flow arrows.

Timestamps: the tracer records simulated **seconds**; Chrome's ``ts``
and ``dur`` are **microseconds**, so the exporter multiplies by 1e6.

Both writers stream.  Events and lines are produced one at a time and
encoded :data:`_CHUNK` at a time by the C JSON encoder (``json.dump``
into a handle always runs the pure-Python one), so a write holds one
chunk's objects and text, never the whole document, and writes exactly
the bytes that encoding the whole document, or joining all the lines,
would.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Any, Dict, IO, Iterable, Iterator, List, Union

from repro.obs.trace import (
    AsyncRecord,
    CounterRecord,
    InstantRecord,
    SpanRecord,
    Tracer,
)

_SECONDS_TO_US = 1e6

#: The single Chrome "process" all tracks live under.
_PID = 1

#: Events (Chrome trace) or lines (JSONL) per encoder call and write.
_CHUNK = 512

#: ``json.dumps(obj, sort_keys=True)`` without building an encoder per
#: call: the C encoder, same bytes.
_encode = json.JSONEncoder(sort_keys=True).encode


def _chunks(items: Iterable[Any]) -> Iterator[List[Any]]:
    """*items* in lists of :data:`_CHUNK` (the last one shorter)."""
    items = iter(items)
    chunk = list(islice(items, _CHUNK))
    while chunk:
        yield chunk
        chunk = list(islice(items, _CHUNK))


def jsonl_chunks(objects: Iterable[Any]) -> Iterator[str]:
    """*objects* as JSON lines with sorted keys, one chunk of
    newline-terminated lines at a time (nothing at all for no
    objects)."""
    for chunk in _chunks(objects):
        yield "\n".join(map(_encode, chunk)) + "\n"


def dumps_jsonl(tracer: Tracer) -> str:
    """The trace as JSON-lines text (one record per line, sorted keys)."""
    return "".join(
        jsonl_chunks(record.as_dict() for record in tracer.records)
    )


def write_jsonl(tracer: Tracer, path: str) -> None:
    """Write the JSONL export to *path*, a chunk of lines at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(
            jsonl_chunks(record.as_dict() for record in tracer.records)
        )


def _thread_ids(tracer: Tracer) -> Dict[str, int]:
    """Stable track-name -> Chrome tid mapping (registration order)."""
    return {name: tid for tid, name in enumerate(tracer.tracks, start=1)}


def _chrome_events(tracer: Tracer) -> Iterator[Dict[str, Any]]:
    """The trace's Chrome events, one at a time, in document order:
    metadata, then one event per record, then the flow arrows."""
    tids = _thread_ids(tracer)
    yield {
        "ph": "M",
        "name": "process_name",
        "pid": _PID,
        "tid": 0,
        "args": {"name": "disk array simulation"},
    }
    for name, tid in tids.items():
        yield {
            "ph": "M",
            "name": "thread_name",
            "pid": _PID,
            "tid": tid,
            "args": {"name": name},
        }
        yield {
            "ph": "M",
            "name": "thread_sort_index",
            "pid": _PID,
            "tid": tid,
            "args": {"sort_index": tid},
        }

    # Flow arrows: spans sharing a flow id, chained in time order.
    flows: Dict[int, List[SpanRecord]] = {}
    for record in tracer.records:
        if isinstance(record, SpanRecord):
            yield {
                "ph": "X",
                "name": record.name,
                "cat": record.category,
                "ts": record.start * _SECONDS_TO_US,
                "dur": record.duration * _SECONDS_TO_US,
                "pid": _PID,
                "tid": tids[record.track],
                "args": dict(record.args) if record.args else {},
            }
            if record.flow is not None:
                flows.setdefault(record.flow, []).append(record)
        elif isinstance(record, InstantRecord):
            yield {
                "ph": "i",
                "name": record.name,
                "cat": record.category,
                "ts": record.ts * _SECONDS_TO_US,
                "pid": _PID,
                "tid": tids[record.track],
                "s": "t",
                "args": dict(record.args) if record.args else {},
            }
        elif isinstance(record, CounterRecord):
            yield {
                "ph": "C",
                "name": f"{record.track} {record.name}",
                "ts": record.ts * _SECONDS_TO_US,
                "pid": _PID,
                "tid": tids[record.track],
                "args": {record.name: record.value},
            }
        elif isinstance(record, AsyncRecord):
            event = {
                "ph": record.phase,
                "name": record.name,
                "cat": record.category,
                "id": record.id,
                "ts": record.ts * _SECONDS_TO_US,
                "pid": _PID,
                "tid": tids[record.track],
                "args": dict(record.args) if record.args else {},
            }
            if record.scope:
                event["scope"] = record.scope
            yield event

    for flow_id, spans in sorted(flows.items()):
        if len(spans) < 2:
            continue  # an arrow needs two endpoints
        ordered = sorted(spans, key=lambda s: (s.start, s.end))
        for position, span in enumerate(ordered):
            phase = (
                "s" if position == 0
                else "f" if position == len(ordered) - 1
                else "t"
            )
            event: Dict[str, Any] = {
                "ph": phase,
                "name": "query",
                "cat": "flow",
                "id": flow_id,
                "ts": span.start * _SECONDS_TO_US,
                "pid": _PID,
                "tid": tids[span.track],
            }
            if phase == "f":
                event["bp"] = "e"  # bind to the enclosing slice
            yield event


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The trace as a Chrome trace-event document (a JSON-able dict)."""
    return {
        "traceEvents": list(_chrome_events(tracer)),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Write the Chrome trace-event export to *path*.

    The bytes of :func:`chrome_trace`'s document encoded with sorted
    keys: its two keys in order, then the events encoded a chunk at a
    time, each chunk's list brackets dropped and the chunks joined by
    the encoder's own ``", "`` item separator.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"displayTimeUnit": "ms", "traceEvents": [')
        separator = ""
        for chunk in _chunks(_chrome_events(tracer)):
            handle.write(separator)
            handle.write(_encode(chunk)[1:-1])
            separator = ", "
        handle.write("]}")


#: Formats understood by :func:`write_trace` (and the CLI's --trace-format).
TRACE_FORMATS = ("chrome", "jsonl")


def write_trace(tracer: Tracer, path: str, fmt: str = "chrome") -> None:
    """Write *tracer* to *path* in *fmt* (``chrome`` or ``jsonl``)."""
    if fmt == "chrome":
        write_chrome_trace(tracer, path)
    elif fmt == "jsonl":
        write_jsonl(tracer, path)
    else:
        raise ValueError(
            f"unknown trace format {fmt!r}; choose from {TRACE_FORMATS}"
        )


_FLOW_PHASES = ("s", "t", "f")
_ASYNC_PHASES = ("b", "n", "e")
_METADATA_NAMES = ("process_name", "thread_name", "thread_sort_index")


def validate_chrome_trace(document: Union[Dict, IO, str]) -> int:
    """Schema-check a Chrome trace-event document.

    Accepts the parsed dict, a JSON string, or an open file.  Raises
    :class:`ValueError` on the first violation; returns the number of
    events on success.  Used by the test suite and the CI smoke test.
    """
    if hasattr(document, "read"):
        document = json.load(document)
    elif isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict):
        raise ValueError(f"trace must be a JSON object, got {type(document)}")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace must contain a 'traceEvents' list")
    #: (cat, scope, id) -> {"open": bool, "begin_ts": float}.
    async_spans: Dict[tuple, Dict[str, Any]] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: events must be objects")
        phase = event.get("ph")
        if not isinstance(phase, str):
            raise ValueError(f"{where}: missing phase 'ph'")
        if "pid" not in event:
            raise ValueError(f"{where}: missing 'pid'")
        if phase == "M":
            if event.get("name") not in _METADATA_NAMES:
                raise ValueError(
                    f"{where}: unknown metadata {event.get('name')!r}"
                )
            if not isinstance(event.get("args"), dict):
                raise ValueError(f"{where}: metadata needs an 'args' object")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: bad timestamp {ts!r}")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                raise ValueError(f"{where}: bad duration {duration!r}")
            if not event.get("name") or "tid" not in event:
                raise ValueError(f"{where}: spans need 'name' and 'tid'")
        elif phase == "i":
            if event.get("s") not in ("g", "p", "t"):
                raise ValueError(f"{where}: bad instant scope {event.get('s')!r}")
        elif phase == "C":
            # Counter events: a named series whose args carry at least
            # one numeric sample (Perfetto draws one sub-track per args
            # key).  Booleans are rejected explicitly — JSON true/false
            # are ints in Python, but Perfetto cannot plot them.
            if not event.get("name"):
                raise ValueError(f"{where}: counters need a 'name'")
            if "tid" not in event:
                raise ValueError(f"{where}: counters need a 'tid'")
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(
                    f"{where}: counters need a non-empty 'args' object"
                )
            for key, value in args.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ValueError(
                        f"{where}: counter series {key!r} must be "
                        f"numeric, got {value!r}"
                    )
        elif phase in _FLOW_PHASES:
            if "id" not in event or "tid" not in event:
                raise ValueError(f"{where}: flow events need 'id' and 'tid'")
        elif phase in _ASYNC_PHASES:
            # Async span events: paired by (cat, scope, id).  Each key
            # must open (b) before it beads (n) or closes (e), and
            # every opened span must close — checked after the walk.
            if "id" not in event:
                raise ValueError(f"{where}: async events need an 'id'")
            if not event.get("name") or not event.get("cat"):
                raise ValueError(
                    f"{where}: async events need 'name' and 'cat'"
                )
            scope = event.get("scope", "")
            if not isinstance(scope, str):
                raise ValueError(
                    f"{where}: async scope must be a string, got {scope!r}"
                )
            key = (event["cat"], scope, event["id"])
            state = async_spans.get(key)
            if phase == "b":
                if state is not None and state["open"]:
                    raise ValueError(
                        f"{where}: async span {key} begun twice without "
                        f"an 'e' between"
                    )
                async_spans[key] = {"open": True, "begin_ts": ts}
            else:
                if state is None or not state["open"]:
                    raise ValueError(
                        f"{where}: async '{phase}' for {key} without an "
                        f"open 'b'"
                    )
                if ts < state["begin_ts"]:
                    raise ValueError(
                        f"{where}: async '{phase}' at {ts} precedes its "
                        f"'b' at {state['begin_ts']}"
                    )
                if phase == "e":
                    state["open"] = False
        else:
            raise ValueError(f"{where}: unknown phase {phase!r}")
    dangling = sorted(
        str(key) for key, state in async_spans.items() if state["open"]
    )
    if dangling:
        raise ValueError(
            f"async span(s) begun but never ended: {', '.join(dangling)}"
        )
    return len(events)
