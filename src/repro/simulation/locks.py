"""A FIFO readers–writer lock for the simulation.

The paper targets "dynamic environments, where insertions, deletions
and updates can be intermixed with read-only operations" (§1) but does
not specify a concurrency protocol.  The mixed-workload simulator uses
the simplest sound one: index-level latching — queries share the index
(readers), structural updates take it exclusively (writers) — with FIFO
fairness so writers cannot starve behind a stream of readers.

A given timeline gets the ``latch.readers`` / ``latch.writer`` (0/1) /
``latch.queue`` tracks, sampled at every change; that schedules nothing.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.simulation.engine import Environment, Event


class ReadWriteLock:
    """Shared/exclusive lock with FIFO granting.

    Usage inside a process::

        grant = lock.acquire_read()
        yield grant
        ...
        lock.release_read()
    """

    def __init__(self, env: Environment, timeline=None):
        self.env = env
        self.timeline = timeline
        self._active_readers = 0
        self._writer_active = False
        # FIFO queue of ('r'|'w', event).
        self._waiting: List[Tuple[str, Event]] = []
        #: Monitoring.
        self.reads_granted = 0
        self.writes_granted = 0

    @property
    def queue_length(self) -> int:
        """Requests currently waiting."""
        return len(self._waiting)

    def acquire_read(self) -> Event:
        """Event firing when shared access is granted."""
        event = Event(self.env)
        # Grant immediately only if no writer holds or waits ahead —
        # letting readers jump the queue would starve writers.
        if not self._writer_active and not self._waiting:
            self._active_readers += 1
            self.reads_granted += 1
            event.succeed()
        else:
            self._waiting.append(("r", event))
        self._sample()
        return event

    def release_read(self) -> None:
        """Release one shared hold."""
        if self._active_readers <= 0:
            raise RuntimeError("release_read without an active reader")
        self._active_readers -= 1
        self._dispatch()
        self._sample()

    def acquire_write(self) -> Event:
        """Event firing when exclusive access is granted."""
        event = Event(self.env)
        if (
            not self._writer_active
            and self._active_readers == 0
            and not self._waiting
        ):
            self._writer_active = True
            self.writes_granted += 1
            event.succeed()
        else:
            self._waiting.append(("w", event))
        self._sample()
        return event

    def release_write(self) -> None:
        """Release the exclusive hold."""
        if not self._writer_active:
            raise RuntimeError("release_write without an active writer")
        self._writer_active = False
        self._dispatch()
        self._sample()

    def _sample(self) -> None:
        if self.timeline is not None:
            for name, value in (("readers", self._active_readers),
                                ("writer", int(self._writer_active)),
                                ("queue", len(self._waiting))):
                self.timeline.record(f"latch.{name}", self.env.now, value)

    def _dispatch(self) -> None:
        """Grant from the front of the queue: one writer, or a batch of
        consecutive readers."""
        if self._writer_active:
            return
        while self._waiting:
            kind, event = self._waiting[0]
            if kind == "w":
                if self._active_readers == 0:
                    self._waiting.pop(0)
                    self._writer_active = True
                    self.writes_granted += 1
                    event.succeed()
                return
            self._waiting.pop(0)
            self._active_readers += 1
            self.reads_granted += 1
            event.succeed()
