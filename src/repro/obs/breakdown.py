"""Per-query response-time breakdowns that sum to the response time.

The paper's multi-user results are explanations about *where time
goes* — disk-queue contention (§4.2), bus serialisation, queries idling
at their batch barriers while one straggler disk finishes.  A
:class:`Breakdown` attributes every simulated second of one query's
response time to exactly one component:

``admission_wait``
    time spent queued before entering the system: at the serving
    layer's admission controller, or for the index's read latch in a
    mixed workload (zero elsewhere);
``startup``
    the flat query-startup charge (Table 1);
``queue_wait``
    mean time the query's fetches spent queued at their disks;
``disk_service``
    mean seek + rotation + transfer + controller time;
``bus_wait`` / ``bus_transfer``
    mean time queued for, then crossing, the shared bus;
``cpu``
    CPU queueing plus the instruction cost model per batch;
``retry_backoff``
    mean time the query's fetches slept between fault-injected retry
    attempts (zero without a fault plan);
``barrier_idle``
    straggler slack: each fetch round ends when its *slowest* fetch
    arrives, so the round lasts ``max_i(own_i)`` while the mean fetch
    only worked ``mean_i(own_i)`` — the difference is time the query
    spent waiting at the barrier beyond the average fetch's busy time.

Because each round's duration is decomposed as *mean over its fetches
plus barrier slack*, the components are all non-negative and their sum
telescopes to the measured response time within float tolerance —
asserted for every algorithm in ``tests/obs/test_breakdown.py``.

This module is dependency-free (stdlib only): the simulator imports it,
so it must not import the simulator or the experiment layer back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

#: Component field names, in report order.
COMPONENTS: Tuple[str, ...] = (
    "admission_wait",
    "startup",
    "queue_wait",
    "disk_service",
    "bus_wait",
    "bus_transfer",
    "cpu",
    "retry_backoff",
    "barrier_idle",
)


@dataclass
class Breakdown:
    """Additive decomposition of one query's (or workload's mean)
    response time, in seconds."""

    admission_wait: float = 0.0
    startup: float = 0.0
    queue_wait: float = 0.0
    disk_service: float = 0.0
    bus_wait: float = 0.0
    bus_transfer: float = 0.0
    cpu: float = 0.0
    retry_backoff: float = 0.0
    barrier_idle: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all components — equals the response time."""
        return math.fsum(getattr(self, name) for name in COMPONENTS)

    def as_dict(self) -> Dict[str, float]:
        """Component values keyed by :data:`COMPONENTS` name."""
        return {name: getattr(self, name) for name in COMPONENTS}

    def __add__(self, other: "Breakdown") -> "Breakdown":
        return Breakdown(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in COMPONENTS
            }
        )

    def scaled(self, factor: float) -> "Breakdown":
        """A copy with every component multiplied by *factor*."""
        return Breakdown(
            **{name: getattr(self, name) * factor for name in COMPONENTS}
        )

    def shares(self) -> Dict[str, float]:
        """Each component as a fraction of the total (all zero if empty)."""
        total = self.total
        if total <= 0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: getattr(self, name) / total for name in COMPONENTS}

    @staticmethod
    def mean(breakdowns: Sequence["Breakdown"]) -> "Breakdown":
        """Component-wise mean (``fsum`` for numeric robustness)."""
        if not breakdowns:
            return Breakdown()
        count = len(breakdowns)
        return Breakdown(
            **{
                name: math.fsum(getattr(b, name) for b in breakdowns) / count
                for name in COMPONENTS
            }
        )


#: Column headers matching :data:`COMPONENTS`, for report tables.
COMPONENT_HEADERS: Tuple[str, ...] = (
    "adm-wait",
    "startup",
    "q-wait",
    "disk",
    "bus-wait",
    "bus-xfer",
    "cpu",
    "retry",
    "barrier",
)


def _format_rows(
    headers: Sequence[str], rows: Sequence[Sequence], precision: int
) -> str:
    """Minimal aligned table (kept local: this module stays leaf-level)."""

    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    text_rows = [[cell(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in text_rows))
        if text_rows
        else len(header)
        for i, header in enumerate(headers)
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def per_query_report(records: Iterable, precision: int = 4) -> str:
    """Per-query breakdown table for an iterable of ``QueryRecord``-likes
    (anything with ``breakdown`` and ``response_time``)."""
    rows: List[List] = []
    for index, record in enumerate(records):
        b = record.breakdown
        rows.append(
            [index, record.response_time]
            + [getattr(b, name) for name in COMPONENTS]
        )
    return _format_rows(
        ["query", "response"] + list(COMPONENT_HEADERS), rows, precision
    )


def workload_report(
    named_breakdowns: Sequence[Tuple[str, "Breakdown"]],
    precision: int = 4,
) -> str:
    """Per-workload table: one labelled row of mean components each."""
    rows = [
        [label, breakdown.total]
        + [getattr(breakdown, name) for name in COMPONENTS]
        for label, breakdown in named_breakdowns
    ]
    return _format_rows(
        ["workload", "total"] + list(COMPONENT_HEADERS), rows, precision
    )
