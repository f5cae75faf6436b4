"""Per-query lifecycle event log: one causally-ordered record per query.

The serving stack settles every offered query into one of four
outcomes, but the aggregates cannot answer the on-call question *"why
was query 17 slow?"*.  The :class:`LifecycleLog` stitches the whole
causal chain of each query into one structured record:

* **admission** — arrival, enqueue (with observed queue depth),
  pop-from-queue, shed (at the queue, at the door during a rebuild),
  or rejection;
* **execution** — one event per fetch round: pages requested, buffer
  hits, pages fetched/failed, retries/failovers, hedges issued during
  the round (read off the mirrored array's counters), and the breaker
  states of any non-closed drives (read off the
  :class:`~repro.faults.health.DiskHealthMonitor`);
* **batching** — the broker stake per round: pages submitted and the
  *dedup credits* (pages piggybacked onto another query's in-flight
  fetch — disk accesses this query never paid for);
* **outcome** — the final verdict with the certified radius and the
  answer count.

The log is a pure **write-only observer**: hooks record state the
simulation already computed, schedule nothing and consume no RNG, so
attaching one is bit-identity-neutral (golden-asserted).  Records
serialize as deterministic JSONL — one line per query, ordered by qid,
sorted keys — byte-identical across same-seed runs.

Each query also carries a **span id**; :meth:`LifecycleLog
.flush_to_tracer` emits the lifecycle as Chrome **async** events
(``b``/``n``/``e`` phases, paired by ``id`` under the ``lifecycle``
scope) through the existing trace exporter, so Perfetto renders each
query's admission→rounds→outcome arc as one async span with its
events beaded along it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.export import jsonl_chunks

#: Scope letter stamped on the async span events (pairs b/n/e ids).
ASYNC_SCOPE = "q"


class LifecycleLog:
    """Collects per-query lifecycle events for one serving run.

    :param monitor: optional
        :class:`~repro.faults.health.DiskHealthMonitor`; when present,
        round events are annotated with the breaker states of every
        non-closed drive at the round's end.
    """

    def __init__(self, monitor=None):
        self.monitor = monitor
        #: qid -> record dict (insertion order is arrival order, but
        #: serialization re-sorts by qid for byte determinism).
        self._queries: Dict[int, Dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._queries)

    def _record(self, qid: int) -> Dict[str, Any]:
        record = self._queries.get(qid)
        if record is None:
            record = {
                "qid": qid,
                "span_id": qid,
                "class": "",
                "arrival": None,
                "outcome": None,
                "completion": None,
                "certified_radius": None,
                "answers": 0,
                "events": [],
            }
            self._queries[qid] = record
        return record

    def _event(self, qid: int, ts: float, kind: str, **fields) -> None:
        event: Dict[str, Any] = {"ts": ts, "event": kind}
        event.update(fields)
        self._record(qid)["events"].append(event)

    # -- admission hooks (driven by the serving frontend) -------------

    def arrival(self, qid: int, ts: float, klass: str) -> None:
        """The query walked in, carrying its priority-class label."""
        record = self._record(qid)
        record["arrival"] = ts
        record["class"] = klass
        self._event(qid, ts, "arrival", **{"class": klass})

    def admitted(self, qid: int, ts: float, waited: float) -> None:
        """Admitted to execution after *waited* seconds at the door."""
        self._event(qid, ts, "admitted", waited=waited)

    def queued(self, qid: int, ts: float, depth: int) -> None:
        """Parked in the admission queue at the observed *depth*."""
        self._event(qid, ts, "queued", depth=depth)

    def popped(self, qid: int, ts: float, waited: float) -> None:
        """Left the queue for execution after *waited* seconds."""
        self._event(qid, ts, "popped", waited=waited)

    def shed(self, qid: int, ts: float, where: str) -> None:
        """Shed at *where* ("queue", "rebuild") before doing any work."""
        self._event(qid, ts, "shed", where=where)

    def rejected(self, qid: int, ts: float) -> None:
        """Turned away at the door (queue bound exceeded)."""
        self._event(qid, ts, "rejected")

    # -- execution hooks (driven by the executor / broker) ------------

    def batch(self, qid: int, ts: float, pages: int, shared: int) -> None:
        """One broker stake: *shared* pages piggybacked (dedup credits)."""
        self._event(qid, ts, "batch", pages=pages, dedup_credits=shared)

    def round(
        self,
        qid: int,
        start: float,
        end: float,
        requested: int,
        buffer_hits: int,
        pages_fetched: int,
        failed: int,
        retries: int,
        failovers: int,
        fetch_failures: int,
        hedges: int = 0,
        deadline_cut: bool = False,
    ) -> None:
        """One fetch round's I/O outcome, with fault-path annotations."""
        fields: Dict[str, Any] = {
            "end": end,
            "requested": requested,
            "buffer_hits": buffer_hits,
            "pages_fetched": pages_fetched,
            "failed": failed,
        }
        # Fault-path annotations only when they fired, keeping clean
        # runs' records small (and byte-stable as features toggle).
        if retries:
            fields["retries"] = retries
        if failovers:
            fields["failovers"] = failovers
        if fetch_failures:
            fields["fetch_failures"] = fetch_failures
        if hedges:
            fields["hedges"] = hedges
        if deadline_cut:
            fields["deadline_cut"] = True
        if self.monitor is not None:
            breakers = {
                str(disk_id): self.monitor.state_name(disk_id)
                for disk_id in range(self.monitor.num_disks)
                if self.monitor.state_of(disk_id) != 0
            }
            if breakers:
                fields["breakers"] = breakers
        self._event(qid, start, "round", **fields)

    # -- settlement ---------------------------------------------------

    def outcome(
        self,
        qid: int,
        ts: float,
        outcome: str,
        certified_radius: float,
        answers: int,
    ) -> None:
        """The final settlement: verdict, certificate, answer count."""
        record = self._record(qid)
        record["outcome"] = outcome
        record["completion"] = ts
        # inf is not JSON — a complete answer's "exact everywhere"
        # radius serializes as null, matching the RunReport convention
        # of omitting non-finite leaves.
        record["certified_radius"] = (
            certified_radius
            if certified_radius == certified_radius  # not NaN
            and certified_radius not in (float("inf"), float("-inf"))
            else None
        )
        record["answers"] = answers
        self._event(qid, ts, "outcome", outcome=outcome)

    # -- exports ------------------------------------------------------

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Per-query records, ordered by qid."""
        return [self._queries[qid] for qid in sorted(self._queries)]

    def to_jsonl(self) -> str:
        """One JSON line per query, qid order, sorted keys — byte
        deterministic for a deterministic run."""
        return "".join(jsonl_chunks(self.records))

    def write_jsonl(self, path: str) -> None:
        """Write :meth:`to_jsonl`'s text to *path*, a chunk of lines at a
        time (byte-deterministic)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(jsonl_chunks(self.records))

    def flush_to_tracer(self, tracer, category: str = "lifecycle") -> int:
        """Emit every query's lifecycle as Chrome async span events.

        One ``b`` (arrival) … ``e`` (settle) pair per query, paired by
        the span id under the :data:`ASYNC_SCOPE` scope, with an ``n``
        instant per intermediate event.  Returns the number of records
        emitted.  Call once, after the run — emission is in qid order,
        which is deterministic.
        """
        emitted = 0
        for record in self.records:
            qid = record["qid"]
            span_id = record["span_id"]
            track = f"query{qid}"
            name = f"life q{qid}"
            start = record["arrival"]
            end = record["completion"]
            if start is None or end is None:
                continue  # never arrived / never settled: nothing to span
            tracer.async_event(
                track, name, category, "b", start, span_id,
                scope=ASYNC_SCOPE,
                args={"class": record["class"]},
            )
            emitted += 1
            for event in record["events"]:
                if event["event"] in ("arrival", "outcome"):
                    continue  # the b/e endpoints already carry these
                tracer.async_event(
                    track, event["event"], category, "n", event["ts"],
                    span_id, scope=ASYNC_SCOPE,
                )
                emitted += 1
            tracer.async_event(
                track, name, category, "e", end, span_id,
                scope=ASYNC_SCOPE,
                args={"outcome": record["outcome"]},
            )
            emitted += 1
        return emitted


def load_lifecycle_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a lifecycle JSONL file back into per-query records."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def slowest_queries(
    records: List[Mapping[str, Any]],
    limit: int = 5,
    outcome: Optional[str] = None,
) -> List[Mapping[str, Any]]:
    """The *limit* slowest queries (optionally of one outcome).

    The tail-debugging entry point: ``slowest_queries(records,
    outcome="shed")`` hands back the shed queries that waited longest,
    whose event chains then say *where* the time went.
    """
    candidates = [
        r
        for r in records
        if r.get("arrival") is not None and r.get("completion") is not None
        and (outcome is None or r.get("outcome") == outcome)
    ]
    return sorted(
        candidates,
        key=lambda r: (-(r["completion"] - r["arrival"]), r["qid"]),
    )[:limit]


def format_lifecycle_record(record: Mapping[str, Any]) -> str:
    """Terminal rendering of one query's lifecycle chain."""
    response = (
        record["completion"] - record["arrival"]
        if record.get("completion") is not None
        and record.get("arrival") is not None
        else 0.0
    )
    lines = [
        f"q{record['qid']} [{record.get('class') or 'default'}] "
        f"{record.get('outcome')}: response {response:.4f}s, "
        f"answers {record.get('answers', 0)}"
    ]
    for event in record.get("events", ()):
        extra = {
            key: value
            for key, value in event.items()
            if key not in ("ts", "event")
        }
        detail = (
            "  " + ", ".join(f"{k}={v}" for k, v in sorted(extra.items()))
            if extra
            else ""
        )
        lines.append(f"  {event['ts']:.6f}  {event['event']:<10}{detail}")
    return "\n".join(lines)
