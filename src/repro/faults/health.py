"""Disk health tracking: EWMA latency, error windows, circuit breakers.

The fault layer (PR3) *reacts* to failures — every fetch pays its
retries and timeouts before giving up.  This module adds the
*anticipating* half of production tail-tolerance:

* :class:`DiskHealthMonitor` consumes per-fetch outcomes
  (:class:`~repro.simulation.system.FetchTiming` successes and
  :class:`~repro.simulation.system.FetchFailure` errors, reduced to an
  ``(ok, latency)`` pair) and maintains, per physical drive, an EWMA
  service latency, a sliding error-rate window, and a three-state
  **circuit breaker**::

      closed ──(error rate / EWMA latency over threshold)──▶ open
      open ──(cooldown elapsed)──▶ half_open
      half_open ──(probe successes)──▶ closed
      half_open ──(probe failure)──▶ open

  While a breaker is open the drive is *ejected*: a RAID-0 fetch fails
  fast (the query certifies its radius instead of waiting out retries)
  and a RAID-1 read prefers the healthy replica.  Half-open admits a
  seeded fraction of requests as probes, so recovery is discovered
  deterministically.

* :class:`HedgePolicy` turns the observed latency distribution
  (:class:`LatencyWindow`) into a hedge delay: a mirrored read that has
  not answered within the chosen quantile re-issues against the other
  replica, first response wins.

* :class:`RebuildPolicy` paces the online RAID-1 rebuild stream (see
  :meth:`repro.extensions.raid1.MirroredDiskArraySystem`): pages per
  second and batch size, both of which consume *simulated* disk and bus
  bandwidth so recovery visibly competes with foreground traffic.

Everything here is bookkeeping plus a private seeded RNG per drive —
no simulation events are created, so attaching a monitor to a run whose
breakers never trip is bit-identity-neutral, and two same-seed runs
transition identically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Deque, Dict, List, Optional, Sequence

from repro.obs.report import percentile

#: Breaker states, indexed by their track value (0/1/2 step function).
BREAKER_STATES = ("closed", "open", "half_open")
CLOSED, OPEN, HALF_OPEN = 0, 1, 2


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class HealthPolicy:
    """When a drive is judged sick, and how it earns its way back.

    :param ewma_alpha: weight of the newest latency sample in the
        per-drive EWMA (0 < alpha <= 1).
    :param window: sliding outcome window length per drive.
    :param min_samples: outcomes required before the window may trip
        the breaker (1 <= min_samples <= window).
    :param error_threshold: error fraction of the window that opens the
        breaker (0 < threshold <= 1).
    :param latency_threshold: EWMA latency (simulated seconds) above
        which the drive counts as fail-slow and the breaker opens;
        ``0`` disables latency ejection.
    :param open_cooldown: seconds an open breaker rejects everything
        before letting probes through.
    :param probe_probability: fraction of half-open requests admitted
        as probes (seeded per-drive draw; the rest stay ejected).
    :param probe_successes: consecutive successful probes that close
        the breaker again.
    :param seed: seeds the per-drive probe RNGs.
    """

    ewma_alpha: float = 0.3
    window: int = 16
    min_samples: int = 8
    error_threshold: float = 0.5
    latency_threshold: float = 0.0
    open_cooldown: float = 0.05
    probe_probability: float = 0.25
    probe_successes: int = 2
    seed: int = 0

    def __post_init__(self):
        _require_finite("ewma_alpha", self.ewma_alpha)
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError(
                f"min_samples must be in [1, window={self.window}], "
                f"got {self.min_samples}"
            )
        _require_finite("error_threshold", self.error_threshold)
        if not 0.0 < self.error_threshold <= 1.0:
            raise ValueError(
                f"error_threshold must be in (0, 1], got "
                f"{self.error_threshold}"
            )
        _require_finite("latency_threshold", self.latency_threshold)
        if self.latency_threshold < 0:
            raise ValueError(
                f"latency_threshold must be non-negative, got "
                f"{self.latency_threshold}"
            )
        _require_finite("open_cooldown", self.open_cooldown)
        if self.open_cooldown <= 0:
            raise ValueError(
                f"open_cooldown must be positive, got {self.open_cooldown}"
            )
        _require_finite("probe_probability", self.probe_probability)
        if not 0.0 < self.probe_probability <= 1.0:
            raise ValueError(
                f"probe_probability must be in (0, 1], got "
                f"{self.probe_probability}"
            )
        if self.probe_successes < 1:
            raise ValueError(
                f"probe_successes must be >= 1, got {self.probe_successes}"
            )


class LatencyWindow:
    """Sliding window of observed latencies with nearest-rank quantiles."""

    def __init__(self, maxlen: int = 128):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self._samples: Deque[float] = deque(maxlen=maxlen)

    def add(self, value: float) -> None:
        """Record one latency sample, evicting the oldest past maxlen."""
        self._samples.append(value)

    def __len__(self) -> int:
        return len(self._samples)

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile of the current window (window non-empty)."""
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return percentile(self._samples, fraction)


@dataclass(frozen=True)
class HedgePolicy:
    """When a straggling mirrored read hedges to the other replica.

    :param quantile: latency quantile used as the hedge delay — the
        classic tail-tolerance choice is p95: wait until the read is
        slower than 95% of its peers, then race the mirror.
    :param min_delay: floor on the hedge delay (also the delay used
        before ``min_samples`` latencies have been observed).
    :param min_samples: observed latencies required before the
        quantile is trusted.
    """

    quantile: float = 0.95
    min_delay: float = 0.004
    min_samples: int = 8

    def __post_init__(self):
        _require_finite("quantile", self.quantile)
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(
                f"quantile must be in (0, 1], got {self.quantile}"
            )
        _require_finite("min_delay", self.min_delay)
        if self.min_delay <= 0:
            raise ValueError(
                f"min_delay must be positive, got {self.min_delay}"
            )
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )

    def delay(self, window: LatencyWindow) -> float:
        """The hedge delay given the latencies observed so far."""
        if len(window) < self.min_samples:
            return self.min_delay
        return max(self.min_delay, window.quantile(self.quantile))


@dataclass(frozen=True)
class RebuildPolicy:
    """How fast the online RAID-1 rebuild streams pages back.

    :param rate: rebuild streaming ceiling in pages per simulated
        second (the rebuild process throttles itself to this rate; the
        actual rate is lower when foreground traffic keeps the drives
        and bus busy).
    :param batch_pages: pages moved per rebuild transaction (one read
        sweep on the surviving replica, one bus crossing, one write
        sweep on the repaired drive).
    """

    rate: float = 400.0
    batch_pages: int = 8

    def __post_init__(self):
        _require_finite("rate", self.rate)
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.batch_pages < 1:
            raise ValueError(
                f"batch_pages must be >= 1, got {self.batch_pages}"
            )


class _DriveHealth:
    """Per-drive breaker state (internal to the monitor)."""

    __slots__ = (
        "ewma", "outcomes", "state", "opened_at", "probe_ok", "rng",
        "opens", "closes", "probes", "ejected", "time_in_open",
    )

    def __init__(self, window: int, rng: Random):
        self.ewma: Optional[float] = None
        self.outcomes: Deque[int] = deque(maxlen=window)
        self.state = CLOSED
        self.opened_at = 0.0
        self.probe_ok = 0
        self.rng = rng
        self.opens = 0
        self.closes = 0
        self.probes = 0
        self.ejected = 0
        self.time_in_open = 0.0


class DiskHealthMonitor:
    """Per-drive health state driving breakers, routing and hedging.

    :param policy: the :class:`HealthPolicy` thresholds.
    :param num_disks: physical drives tracked (RAID-1 systems track
        ``2 × logical``; fault-plan ids address the same space).
    :param timeline: optional
        :class:`~repro.obs.timeline.TimelineSampler`; each drive's
        breaker state is recorded as a 0/1/2 step-function track
        (closed/open/half-open).  Recording is event-driven — attaching
        a sampler never changes the simulated run.
    :param track_names: per-drive track names (default
        ``disk<N>.health``; RAID-1 systems pass ``disk<L>r<R>.health``).
    """

    def __init__(
        self,
        policy: HealthPolicy,
        num_disks: int,
        timeline=None,
        track_names: Optional[Sequence[str]] = None,
    ):
        if num_disks < 1:
            raise ValueError(f"num_disks must be positive, got {num_disks}")
        if track_names is not None and len(track_names) != num_disks:
            raise ValueError(
                f"track_names must name all {num_disks} drives, got "
                f"{len(track_names)}"
            )
        self.policy = policy
        self.num_disks = num_disks
        self.timeline = timeline
        self._names = (
            list(track_names)
            if track_names is not None
            else [f"disk{disk}.health" for disk in range(num_disks)]
        )
        self._drives = [
            _DriveHealth(
                policy.window,
                Random((policy.seed << 16) ^ (disk * 0x9E3779B1)),
            )
            for disk in range(num_disks)
        ]
        #: Latency samples across all drives — the hedge-delay source.
        self.latencies = LatencyWindow(maxlen=max(64, policy.window * 8))
        if timeline is not None:
            for disk in range(num_disks):
                timeline.record(self._names[disk], 0.0, CLOSED)

    # -- state transitions --------------------------------------------------

    def _record(self, disk_id: int, now: float) -> None:
        if self.timeline is not None:
            self.timeline.record(
                self._names[disk_id], now, self._drives[disk_id].state
            )

    def _open(self, drive: _DriveHealth, disk_id: int, now: float) -> None:
        drive.state = OPEN
        drive.opened_at = now
        drive.probe_ok = 0
        drive.opens += 1
        self._record(disk_id, now)

    def _close(self, drive: _DriveHealth, disk_id: int, now: float) -> None:
        drive.state = CLOSED
        drive.probe_ok = 0
        drive.closes += 1
        # Fresh book: the window and EWMA that condemned the drive
        # belong to the sick era; keeping them would re-open instantly.
        drive.outcomes.clear()
        drive.ewma = None
        self._record(disk_id, now)

    def observe(
        self, disk_id: int, ok: bool, latency: float, now: float
    ) -> None:
        """Fold one fetch-attempt outcome into the drive's health."""
        drive = self._drives[disk_id]
        policy = self.policy
        if drive.ewma is None:
            drive.ewma = latency
        else:
            drive.ewma += policy.ewma_alpha * (latency - drive.ewma)
        drive.outcomes.append(0 if ok else 1)
        if ok:
            self.latencies.add(latency)
        if drive.state == CLOSED:
            if len(drive.outcomes) >= policy.min_samples:
                error_rate = sum(drive.outcomes) / len(drive.outcomes)
                slow = (
                    policy.latency_threshold > 0.0
                    and drive.ewma > policy.latency_threshold
                )
                if error_rate >= policy.error_threshold or slow:
                    self._open(drive, disk_id, now)
        elif drive.state == HALF_OPEN:
            if ok:
                drive.probe_ok += 1
                if drive.probe_ok >= policy.probe_successes:
                    self._close(drive, disk_id, now)
            else:
                # A failed probe sends the breaker straight back to
                # open and restarts the cooldown.
                self._open(drive, disk_id, now)
        # OPEN: late results from attempts issued before the trip (or
        # hedge losers) update the EWMA/window but cause no transition —
        # only the cooldown in allow() reopens the path.

    def allow(self, disk_id: int, now: float) -> bool:
        """May a request touch this drive right now?

        Closed: yes.  Open: no, until the cooldown promotes the breaker
        to half-open.  Half-open: a seeded per-drive draw admits
        ``probe_probability`` of requests as probes.  A ``False`` is
        counted as an ejection (RAID-0 fails the fetch fast; RAID-1
        routes to the other replica).
        """
        drive = self._drives[disk_id]
        if drive.state == CLOSED:
            return True
        if drive.state == OPEN:
            if now - drive.opened_at < self.policy.open_cooldown:
                drive.ejected += 1
                return False
            drive.state = HALF_OPEN
            drive.time_in_open += now - drive.opened_at
            drive.probe_ok = 0
            self._record(disk_id, now)
        if drive.rng.random() < self.policy.probe_probability:
            drive.probes += 1
            return True
        drive.ejected += 1
        return False

    # -- introspection ------------------------------------------------------

    def state_of(self, disk_id: int) -> int:
        """The drive's breaker state (0 closed / 1 open / 2 half-open)."""
        return self._drives[disk_id].state

    def state_name(self, disk_id: int) -> str:
        """The drive's breaker state as a string (closed/open/half_open)."""
        return BREAKER_STATES[self._drives[disk_id].state]

    @property
    def total_ejected(self) -> int:
        """Requests refused across every drive."""
        return sum(d.ejected for d in self._drives)

    @property
    def total_opens(self) -> int:
        """Breaker trips across every drive."""
        return sum(d.opens for d in self._drives)

    def describe(self, now: Optional[float] = None) -> Dict[str, object]:
        """JSON-ready health section for RunReports (finite floats only).

        :param now: close the time-in-open books at this instant for
            breakers still open (default: leave open spans uncounted).
        """
        states: Dict[str, int] = {}
        ewma: Dict[str, float] = {}
        time_in_open = 0.0
        probes = ejected = closes = 0
        for disk_id, drive in enumerate(self._drives):
            states[str(disk_id)] = drive.state
            if drive.ewma is not None and math.isfinite(drive.ewma):
                ewma[str(disk_id)] = drive.ewma
            time_in_open += drive.time_in_open
            if now is not None and drive.state == OPEN:
                time_in_open += max(0.0, now - drive.opened_at)
            probes += drive.probes
            ejected += drive.ejected
            closes += drive.closes
        return {
            "drives": self.num_disks,
            "states": states,
            "ewma_latency": ewma,
            "opens": self.total_opens,
            "closes": closes,
            "probes": probes,
            "ejected": ejected,
            "time_in_open": time_in_open,
            "open_drives": sum(
                1 for d in self._drives if d.state != CLOSED
            ),
        }


def pages_per_disk(tree) -> List[int]:
    """Pages placed on each logical disk of a placed tree.

    The online rebuild needs to know how much data a repaired drive must
    re-stream; supernodes (X-tree) count their full span.
    """
    counts = [0] * tree.num_disks
    spanned = tree.pages_spanned
    for page_id in tree.page_ids():
        counts[tree.disk_of(page_id)] += spanned(page_id)
    return counts


__all__ = [
    "BREAKER_STATES",
    "CLOSED",
    "DiskHealthMonitor",
    "HALF_OPEN",
    "HealthPolicy",
    "HedgePolicy",
    "LatencyWindow",
    "OPEN",
    "RebuildPolicy",
    "pages_per_disk",
]
