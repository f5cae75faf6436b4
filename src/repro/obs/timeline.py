"""Simulated-time series telemetry: the :class:`TimelineSampler`.

The span/metrics layer answers *where one query's time went*; the
paper's workload-level claims (§5) are about *dynamics over simulated
time* — per-disk queues building up under multi-user load, the shared
SCSI bus creeping toward saturation as disks are added, the buffer
pool warming, CRSS keeping a deep candidate stack while FPSS fans out.
A :class:`TimelineSampler` captures those as named step-function
tracks.

Sampling is **event-driven**, not polled: the instrumented components
(the engine's resources, the executor, the buffer gate) push a sample
whenever the tracked value changes, stamped with the event engine's
current simulated time.  Nothing is ever scheduled on the event
calendar and no RNG is consumed, so attaching a sampler does not
perturb the simulation — the golden bit-identity traces hold with and
without one.  Each track is backed by a
:class:`~repro.obs.metrics.Gauge` (exact time-weighted last/max/mean)
plus the raw ``(ts, value)`` samples, which support

* **downsampling** — time-weighted means over equal-width buckets, the
  form stored in :mod:`RunReport <repro.obs.report>` artifacts;
* **ASCII sparklines** — a terminal rendering for ``repro simulate
  --timeline``;
* **Chrome counter export** — :meth:`TimelineSampler.flush_to_tracer`
  emits every sample as a counter record, which the existing exporter
  turns into ``"ph": "C"`` events Perfetto renders as counter tracks.

Track naming convention (what the simulation wires up):

========================  =============================================
``disk<N>.queue_depth``   requests waiting at disk N's queue
``disk<N>.busy``          disk N's in-service indicator (0/1)
``bus.queue_depth``       pages waiting for the shared I/O bus
``bus.busy``              bus in-transfer indicator (0/1)
``buffer.hit_rate``       cumulative buffer-pool hit rate
``queries.in_flight``     queries concurrently inside the system
``crss.stack_depth``      candidates stacked across in-flight CRSS
                          queries (absent for other algorithms)
``disk<N>.health``        disk N's circuit-breaker state as a step
                          function: 0 closed, 1 open, 2 half-open
                          (``disk<L>r<R>.health`` on RAID-1; present
                          only with a health monitor attached)
``disk<L>r<R>.rebuild``   online-rebuild progress gauge, 0 → 1 as a
                          repaired drive's pages stream back (RAID-1
                          with a rebuild policy only)
``latch.readers``         queries holding the index latch shared
``latch.writer``          an update holding it exclusively (0/1)
``latch.queue``           requests waiting for it (these three only
                          when a scenario has update streams)
========================  =============================================

The time-weighted mean of a ``.busy`` track over the makespan *is* the
resource's utilization, which is what the saturation analysis in
:mod:`repro.obs.diff` classifies runs with.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import Gauge

#: Glyphs for :func:`sparkline`, lowest to highest.
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


class TimelineTrack:
    """One named step-function series over simulated time.

    The track is Gauge-backed: it implements the same ``set(ts, value)``
    interface as :class:`~repro.obs.metrics.Gauge` (so an engine
    resource can drive it exactly like a metrics gauge) and keeps both
    the gauge's exact time-weighted statistics and the raw samples.
    The value is piecewise constant: 0 before the first sample, then
    each sample's value until the next one.  Samples at the same
    timestamp collapse last-write-wins — a zero-width interval carries
    no weight.
    """

    __slots__ = ("name", "gauge", "_ts", "_values")

    def __init__(self, name: str):
        self.name = name
        self.gauge = Gauge(name)
        self._ts: List[float] = []
        self._values: List[float] = []

    def set(self, ts: float, value: float) -> None:
        """Record that the track held *value* from *ts* onward."""
        self.gauge.set(ts, value)
        if self._ts and ts == self._ts[-1]:
            self._values[-1] = value
        else:
            self._ts.append(ts)
            self._values.append(value)

    def __len__(self) -> int:
        return len(self._ts)

    @property
    def samples(self) -> Tuple[Tuple[float, float], ...]:
        """The recorded ``(ts, value)`` pairs, in time order."""
        return tuple(zip(self._ts, self._values))

    @property
    def last(self) -> float:
        """The most recent value (0.0 before any sample)."""
        return self._values[-1] if self._values else 0.0

    @property
    def max(self) -> float:
        """The largest value seen (0.0 before any sample)."""
        return max(self._values) if self._values else 0.0

    @property
    def end(self) -> float:
        """Timestamp of the last sample (0.0 before any sample)."""
        return self._ts[-1] if self._ts else 0.0

    def mean(self, until: Optional[float] = None) -> float:
        """Time-weighted mean from the first sample to *until*."""
        return self.gauge.mean(until)

    def value_at(self, ts: float) -> float:
        """The step function's value at *ts* (0.0 before the first
        sample; the last sample's value from its timestamp onward).

        This is how the SLO engine reads trailing-window counts off a
        cumulative track: ``value_at(end) - value_at(end - window)``,
        with windows straddling the start of the run clamping to 0.
        """
        if not self._ts:
            return 0.0
        index = bisect_right(self._ts, ts) - 1
        if index < 0:
            return 0.0
        return self._values[index]

    def integral(self, start: float, end: float) -> float:
        """Exact integral of the step function over ``[start, end]``.

        The value is 0 before the first sample and the last sample's
        value from then on.
        """
        if end <= start or not self._ts:
            return 0.0
        ts, values = self._ts, self._values
        total = 0.0
        # Segments overlapping [start, end]: the one active at `start`
        # through the one active at `end`.
        first = max(0, bisect_right(ts, start) - 1)
        last = bisect_left(ts, end)
        for i in range(first, min(last, len(ts))):
            seg_start = ts[i]
            seg_end = ts[i + 1] if i + 1 < len(ts) else end
            lo = max(start, seg_start)
            hi = min(end, seg_end)
            if hi > lo:
                total += values[i] * (hi - lo)
        return total

    def downsample(
        self, buckets: int, start: float = 0.0, end: Optional[float] = None
    ) -> List[float]:
        """Time-weighted mean per equal-width bucket over ``[start, end]``.

        *end* defaults to the last sample's timestamp.  An empty track
        (or a zero-width horizon) yields all-zero buckets.
        """
        if buckets < 1:
            raise ValueError(f"buckets must be positive, got {buckets}")
        if end is None:
            end = self._ts[-1] if self._ts else start
        span = end - start
        if span <= 0 or not self._ts:
            return [0.0] * buckets
        width = span / buckets
        return [
            self.integral(start + i * width, start + (i + 1) * width) / width
            for i in range(buckets)
        ]

    def summary(
        self, until: Optional[float] = None, buckets: int = 60
    ) -> Dict[str, object]:
        """Plain-dict rendering for RunReport export (deterministic)."""
        end = until
        if end is None:
            end = self._ts[-1] if self._ts else 0.0
        return {
            "samples": len(self._ts),
            "last": self.last,
            "max": self.max,
            "mean": self.mean(until),
            "values": self.downsample(buckets, 0.0, end),
        }


def sparkline(values: List[float], peak: Optional[float] = None) -> str:
    """Render *values* as a row of block glyphs, scaled to *peak*.

    *peak* defaults to ``max(values)``; an all-zero series renders as
    the lowest glyph throughout.  A degenerate track — constant and
    non-zero, with no explicit *peak* to scale against — renders as a
    flat mid-height bar: scaled to its own maximum every sample would
    hit the top glyph, which reads as a saturated series rather than
    an unchanging one.
    """
    if peak is None:
        peak = max(values) if values else 0.0
        if values and peak > 0 and min(values) == peak:
            mid = (len(_SPARK_GLYPHS) - 1) // 2
            return _SPARK_GLYPHS[mid] * len(values)
    if peak <= 0:
        return _SPARK_GLYPHS[0] * len(values)
    top = len(_SPARK_GLYPHS) - 1
    return "".join(
        _SPARK_GLYPHS[min(top, int((max(0.0, v) / peak) * top + 0.5))]
        for v in values
    )


class TimelineSampler:
    """A registry of :class:`TimelineTrack` series for one simulated run.

    Create one, pass it to
    :func:`~repro.simulation.simulator.simulate_workload` (or the
    chaos/RAID-1 runners), and the simulation wires its resources and
    executor probes into named tracks.  Attach only when wanted: the
    default ``timeline=None`` everywhere keeps the instrumented paths
    no-ops, so untimed runs stay bit-identical to the golden traces.
    """

    def __init__(self):
        self._tracks: Dict[str, TimelineTrack] = {}

    def track(self, name: str) -> TimelineTrack:
        """The track *name*, created on first use."""
        track = self._tracks.get(name)
        if track is None:
            track = TimelineTrack(name)
            self._tracks[name] = track
        return track

    def record(self, name: str, ts: float, value: float) -> None:
        """Append one sample to track *name* at simulated time *ts*."""
        self.track(name).set(ts, value)

    def __iter__(self) -> Iterator[TimelineTrack]:
        return iter(self._tracks.values())

    def __len__(self) -> int:
        return len(self._tracks)

    def __contains__(self, name: str) -> bool:
        return name in self._tracks

    @property
    def names(self) -> Tuple[str, ...]:
        """Track names, in registration order."""
        return tuple(self._tracks)

    @property
    def end(self) -> float:
        """Latest sample timestamp across all tracks (0.0 if empty).

        Background work — an online rebuild streaming pages after the
        last foreground response — can sample past the workload
        makespan, so horizons derived from the makespan must be clamped
        up to this before rendering or snapshotting.
        """
        return max(
            (track.end for track in self._tracks.values()), default=0.0
        )

    def snapshot(
        self, until: Optional[float] = None, buckets: int = 60
    ) -> Dict[str, Dict[str, object]]:
        """Every track's downsampled summary, keyed by name (sorted)."""
        return {
            name: self._tracks[name].summary(until, buckets)
            for name in sorted(self._tracks)
        }

    def flush_to_tracer(self, tracer, track: str = "timeline") -> int:
        """Emit every sample into *tracer* as counter records.

        The records land on one trace track (default ``"timeline"``)
        with the series name as the counter name, so the Chrome/Perfetto
        export renders each series as its own counter row.  Returns the
        number of records emitted.  Call once, after the run — emission
        order is by series then time, which is deterministic.
        """
        emitted = 0
        for series in self._tracks.values():
            for ts, value in series.samples:
                tracer.counter(track, series.name, ts, value)
                emitted += 1
        return emitted

    def render(self, until: Optional[float] = None, width: int = 60) -> str:
        """Terminal rendering: one labelled sparkline per track."""
        if not self._tracks:
            return "(no timeline samples recorded)"
        names = sorted(self._tracks)
        label_width = max(len(name) for name in names)
        lines = []
        for name in names:
            series = self._tracks[name]
            values = series.downsample(width, 0.0, until)
            lines.append(
                f"{name:<{label_width}}  {sparkline(values)}  "
                f"max {series.max:g}  mean {series.mean(until):.3f}"
            )
        return "\n".join(lines)
