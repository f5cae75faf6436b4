"""Span tracing for the discrete-event simulation.

A :class:`Tracer` collects typed records — *spans* (an interval on a
named track), *instants* (a point event) and *counter samples* (a
sampled value, e.g. a queue depth) — in the order the simulation emits
them.  Tracks are the simulation's servers and actors: one per disk,
one for the bus, one for the CPU, one per query.  Records carry
simulated-seconds timestamps straight from ``Environment.now``.

The default everywhere is the :data:`NULL_TRACER` singleton, whose
methods are empty and whose ``enabled`` flag lets hot paths skip even
the cost of building a record's arguments::

    if tracer.enabled:
        tracer.span("disk3", "service", "disk", t0, t1, args={...})

Exports (:mod:`repro.obs.export`) turn the record list into JSONL or
the Chrome trace-event format for Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

# The records are named tuples: immutable, slotted (``__slots__ = ()``,
# no per-record ``__dict__``) and built by one ``tuple.__new__`` call,
# where a frozen dataclass pays an ``object.__setattr__`` per field.  An
# observed serving run builds, holds and exports tens of thousands.


class SpanRecord(NamedTuple):
    """A named interval ``[start, end]`` on a track.

    :param flow: optional flow id (the query id) linking spans that
        belong to one logical operation across tracks.
    """

    track: str
    name: str
    category: str
    start: float
    end: float
    flow: Optional[int] = None
    args: Optional[Mapping[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSONL export (empty optionals omitted)."""
        record: Dict[str, Any] = {
            "kind": "span",
            "track": self.track,
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "end": self.end,
        }
        if self.flow is not None:
            record["flow"] = self.flow
        if self.args:
            record["args"] = dict(self.args)
        return record


class InstantRecord(NamedTuple):
    """A point event on a track."""

    track: str
    name: str
    category: str
    ts: float
    flow: Optional[int] = None
    args: Optional[Mapping[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSONL export (empty optionals omitted)."""
        record: Dict[str, Any] = {
            "kind": "instant",
            "track": self.track,
            "name": self.name,
            "cat": self.category,
            "ts": self.ts,
        }
        if self.flow is not None:
            record["flow"] = self.flow
        if self.args:
            record["args"] = dict(self.args)
        return record


class CounterRecord(NamedTuple):
    """A sampled value on a track (queue depth, holders in use, …)."""

    track: str
    name: str
    ts: float
    value: float

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSONL export."""
        return {
            "kind": "counter",
            "track": self.track,
            "name": self.name,
            "ts": self.ts,
            "value": self.value,
        }


class AsyncRecord(NamedTuple):
    """One phase of a Chrome **async** span (``b`` / ``n`` / ``e``).

    Async spans model intervals that hop between tracks — a query's
    lifecycle arc from admission through fetch rounds to settlement —
    which a single-track :class:`SpanRecord` cannot express.  Events
    sharing ``(category, scope, id)`` pair up: one ``b`` (begin), any
    number of ``n`` (instant) beads, one ``e`` (end).  The exporter
    maps the phase letter straight onto the Chrome trace-event ``ph``;
    :func:`~repro.obs.export.validate_chrome_trace` checks the pairing.
    """

    track: str
    name: str
    category: str
    #: "b" (begin), "n" (instant), or "e" (end).
    phase: str
    ts: float
    #: Pairing id (the lifecycle span id — the qid).
    id: int
    #: Pairing scope — ids are only unique within a scope.
    scope: str = ""
    args: Optional[Mapping[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSONL export (empty optionals omitted)."""
        record: Dict[str, Any] = {
            "kind": "async",
            "track": self.track,
            "name": self.name,
            "cat": self.category,
            "ph": self.phase,
            "ts": self.ts,
            "id": self.id,
        }
        if self.scope:
            record["scope"] = self.scope
        if self.args:
            record["args"] = dict(self.args)
        return record


#: Valid :attr:`AsyncRecord.phase` letters.
ASYNC_PHASES = ("b", "n", "e")


TraceRecord = Union[SpanRecord, InstantRecord, CounterRecord, AsyncRecord]


class NullTracer:
    """The do-nothing tracer: every probe is a no-op.

    Untraced simulations use this singleton so instrumented code pays
    only an attribute check (``tracer.enabled``) or an empty call.
    """

    __slots__ = ()
    enabled = False

    def track(self, name: str, sort_index: Optional[int] = None) -> None:
        """No-op."""

    def span(self, track, name, category, start, end, flow=None, args=None):
        """No-op."""

    def instant(self, track, name, category, ts, flow=None, args=None):
        """No-op."""

    def counter(self, track, name, ts, value):
        """No-op."""

    def async_event(
        self, track, name, category, phase, ts, id, scope="", args=None
    ):
        """No-op."""

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        return ()

    @property
    def tracks(self) -> Tuple[str, ...]:
        return ()


#: Module-level singleton; the default tracer of every instrumented path.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects trace records in emission order.

    Emission order is deterministic for a deterministic simulation, so
    two runs with the same seed produce identical record lists (and
    byte-identical JSONL exports — asserted by tests).
    """

    enabled = True

    def __init__(self):
        self._records: List[TraceRecord] = []
        #: track name -> explicit sort index (registration order default).
        self._tracks: Dict[str, int] = {}

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        return tuple(self._records)

    @property
    def tracks(self) -> Tuple[str, ...]:
        """Track names, in registration order."""
        return tuple(self._tracks)

    def track(self, name: str, sort_index: Optional[int] = None) -> None:
        """Pre-register *name* (fixes display order in exports)."""
        if name not in self._tracks:
            self._tracks[name] = (
                sort_index if sort_index is not None else len(self._tracks)
            )

    def span(
        self,
        track: str,
        name: str,
        category: str,
        start: float,
        end: float,
        flow: Optional[int] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a completed interval on *track*."""
        if end < start:
            raise ValueError(f"span ends before it starts: {start} > {end}")
        self.track(track)
        self._records.append(
            SpanRecord(track, name, category, start, end, flow, args)
        )

    def instant(
        self,
        track: str,
        name: str,
        category: str,
        ts: float,
        flow: Optional[int] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a point event on *track*."""
        self.track(track)
        self._records.append(
            InstantRecord(track, name, category, ts, flow, args)
        )

    def counter(self, track: str, name: str, ts: float, value: float) -> None:
        """Record a sampled value on *track*."""
        self.track(track)
        self._records.append(CounterRecord(track, name, ts, value))

    def async_event(
        self,
        track: str,
        name: str,
        category: str,
        phase: str,
        ts: float,
        id: int,
        scope: str = "",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record one phase of an async span (``b`` / ``n`` / ``e``)."""
        if phase not in ASYNC_PHASES:
            raise ValueError(
                f"async phase must be one of {ASYNC_PHASES}, got {phase!r}"
            )
        self.track(track)
        self._records.append(
            AsyncRecord(track, name, category, phase, ts, id, scope, args)
        )

    def __len__(self) -> int:
        return len(self._records)


def coalesce(tracer: Optional["Tracer"]) -> Union[Tracer, NullTracer]:
    """``tracer`` if given, else the null singleton (the common default)."""
    return tracer if tracer is not None else NULL_TRACER
