"""The trace and lifecycle writers as they were before they streamed.

``repro.obs.export`` built the whole Chrome trace-event document as one
dict of dicts and handed it to ``json.dump``, and joined every JSONL line
into one string before writing it; ``LifecycleLog`` did the same for its
per-query lines.  Those writers are kept here verbatim — except that the
two ``LifecycleLog`` methods became functions taking the log — as the
oracle: the streaming writers must write these bytes, always.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

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


def dumps_jsonl(tracer: Tracer) -> str:
    """The trace as JSON-lines text (one record per line, sorted keys)."""
    lines = [
        json.dumps(record.as_dict(), sort_keys=True)
        for record in tracer.records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(tracer: Tracer, path: str) -> None:
    """Write the JSONL export to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_jsonl(tracer))


def _thread_ids(tracer: Tracer) -> Dict[str, int]:
    """Stable track-name -> Chrome tid mapping (registration order)."""
    return {name: tid for tid, name in enumerate(tracer.tracks, start=1)}


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The trace as a Chrome trace-event document (a JSON-able dict)."""
    tids = _thread_ids(tracer)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "disk array simulation"},
        }
    ]
    for name, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tid,
                "args": {"name": name},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": _PID,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    # Flow arrows: spans sharing a flow id, chained in time order.
    flows: Dict[int, List[SpanRecord]] = {}
    for record in tracer.records:
        if isinstance(record, SpanRecord):
            events.append(
                {
                    "ph": "X",
                    "name": record.name,
                    "cat": record.category,
                    "ts": record.start * _SECONDS_TO_US,
                    "dur": record.duration * _SECONDS_TO_US,
                    "pid": _PID,
                    "tid": tids[record.track],
                    "args": dict(record.args) if record.args else {},
                }
            )
            if record.flow is not None:
                flows.setdefault(record.flow, []).append(record)
        elif isinstance(record, InstantRecord):
            events.append(
                {
                    "ph": "i",
                    "name": record.name,
                    "cat": record.category,
                    "ts": record.ts * _SECONDS_TO_US,
                    "pid": _PID,
                    "tid": tids[record.track],
                    "s": "t",
                    "args": dict(record.args) if record.args else {},
                }
            )
        elif isinstance(record, CounterRecord):
            events.append(
                {
                    "ph": "C",
                    "name": f"{record.track} {record.name}",
                    "ts": record.ts * _SECONDS_TO_US,
                    "pid": _PID,
                    "tid": tids[record.track],
                    "args": {record.name: record.value},
                }
            )
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
            events.append(event)

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
            events.append(event)

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Write the Chrome trace-event export to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(tracer), handle, sort_keys=True)


def lifecycle_to_jsonl(log) -> str:
    """One JSON line per query, qid order, sorted keys — byte
    deterministic for a deterministic run."""
    lines = [
        json.dumps(record, sort_keys=True) for record in log.records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def lifecycle_write_jsonl(log, path: str) -> None:
    """Write :func:`lifecycle_to_jsonl` to *path* (byte-deterministic)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(lifecycle_to_jsonl(log))
