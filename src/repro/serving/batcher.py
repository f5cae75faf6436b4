"""Cross-query fetch batching: one transaction per disk per round.

PR4's coalescing merges same-disk sibling pages *within* one query's
fetch round into a single transaction (one seek + one rotation paid for
the group).  Under concurrent traffic the same mechanics apply *across*
queries: when several in-flight queries want pages from the same disk
at (nearly) the same instant, issuing them as one sweep amortizes the
mechanical overhead exactly the same way.  The
:class:`FetchBroker` is that cross-query merge point: executors submit
their round's missed pages, the broker collects submissions over a
short ``window``, groups the backlog by disk, and issues each group
through :meth:`~repro.simulation.system.DiskArraySystem.transfer` — the
same call a query round's own units go through, so a merged page is
charged its span exactly as an unmerged one.

Fairness/aging: the backlog is flushed **completely** on every
dispatch cycle in strict arrival order, and ``max_group_pages`` caps
any single merged transaction — so a query's pages wait at most one
collection window plus the transactions queued ahead of them, and a
storm of pages from one greedy query cannot pin the disk behind one
giant sweep.  Pages already in flight are *deduplicated*: a second
query wanting a page another query is currently fetching subscribes to
the existing flight instead of paying a second disk access.

Failure semantics match the executor's: a failed transaction loses
every page it carried for **every** subscriber, each of which then
degrades along the PR3 certified-radius path.  The broker admits
arrived pages to the buffer pool exactly once per physical fetch.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Set

from repro.simulation.engine import Environment, Event


class RoundTicket:
    """One executor round's stake in the broker.

    The executor waits on :attr:`event`; it fires once every submitted
    page has either arrived or permanently failed.  The accounting
    fields mirror :class:`~repro.simulation.simulator.RoundIO` — note
    ``pages_delivered`` counts only *this query's* pages (a shared
    transaction's physical pages are not multiply charged).
    """

    __slots__ = (
        "qid",
        "event",
        "pending",
        "submitted_at",
        "timings",
        "failed_pages",
        "pages_delivered",
        "retries",
        "failovers",
        "fetch_failures",
    )

    def __init__(self, qid: int, event: Event, pending: int, now: float):
        self.qid = qid
        self.event = event
        self.pending = pending
        self.submitted_at = now
        self.timings: List = []
        self.failed_pages: Set[int] = set()
        self.pages_delivered = 0
        self.retries = 0
        self.failovers = 0
        self.fetch_failures = 0

    def resolve(
        self, page_id: int, ok: bool, timing, spanned: int
    ) -> None:
        """Record one page's outcome; fire the barrier when all are in.

        A transaction resolves its pages back-to-back, so de-duplicating
        the shared timing record against the last appended one suffices
        (a ticket never interleaves two transactions' resolutions).
        """
        if not self.timings or self.timings[-1] is not timing:
            self.timings.append(timing)
            self.retries += max(0, timing.attempts - 1)
            self.failovers += timing.failovers
            if not timing.ok:
                self.fetch_failures += 1
        if ok:
            self.pages_delivered += spanned
        else:
            self.failed_pages.add(page_id)
        self.pending -= 1
        if self.pending == 0:
            self.event.succeed()


class _Flight:
    """One physical page on its way through the broker."""

    __slots__ = ("page_id", "tickets", "created_at", "dispatched")

    def __init__(self, page_id: int, now: float):
        self.page_id = page_id
        self.tickets: List[RoundTicket] = []
        self.created_at = now
        self.dispatched = False


class FetchBroker:
    """Merges same-disk page requests across in-flight queries.

    :param env: the simulation environment.
    :param system: the disk array (``transfer``/``buffer``).
    :param tree: the placed tree (``disk_of``/``cylinder_of``/
        ``pages_spanned``).
    :param window: collection window in simulated seconds — after a
        wakeup the broker waits this long before flushing, letting
        concurrent rounds pile into the same transactions.  0 flushes
        on the next tick (still merging exactly-simultaneous rounds).
    :param max_group_pages: bound on logical pages per merged
        transaction (``None`` → unbounded).
    :param timeline: optional sampler driving the
        ``serving.backlog`` track (pages awaiting dispatch).
    :param lifecycle: optional
        :class:`~repro.obs.lifecycle.LifecycleLog`; each submit appends
        a ``batch`` event carrying this round's *dedup credits* — the
        pages that piggybacked on another query's pending or in-flight
        fetch (write-only; attaching one is bit-identity-neutral).
    """

    def __init__(
        self,
        env: Environment,
        system,
        tree,
        window: float = 0.0,
        max_group_pages: Optional[int] = None,
        timeline=None,
        lifecycle=None,
    ):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_group_pages is not None and max_group_pages <= 0:
            raise ValueError(
                f"max_group_pages must be positive, got {max_group_pages}"
            )
        self.env = env
        self.system = system
        self.tree = tree
        self.window = window
        self.max_group_pages = max_group_pages
        self.timeline = timeline
        self.lifecycle = lifecycle
        self._pages_spanned = tree.pages_spanned
        self._flights: Dict[int, _Flight] = {}
        #: Pages awaiting dispatch, strict arrival order (aging).
        self._backlog: List[int] = []
        self._wakeup: Optional[Event] = None
        self._running = False
        # -- reporting counters ------------------------------------------
        #: submit() calls (executor rounds routed through the broker).
        self.rounds_submitted = 0
        #: Logical pages submitted across all rounds.
        self.pages_submitted = 0
        #: Subscriptions that piggybacked on a page already pending or
        #: in flight (each one is a disk access saved outright).
        self.shared_pages = 0
        #: Physical transactions issued.
        self.transactions = 0
        #: Transactions that carried pages for more than one query.
        self.batched_transactions = 0
        #: Physical (spanned) pages dispatched.
        self.pages_dispatched = 0
        #: Worst page wait from submission to dispatch (aging bound).
        self.max_dispatch_wait = 0.0

    def submit(self, qid: int, pages: List[int]) -> RoundTicket:
        """Stake one executor round's pages; returns its ticket."""
        if not pages:
            raise ValueError("submit() needs at least one page")
        now = self.env.now
        ticket = RoundTicket(qid, self.env.event(), len(pages), now)
        self.rounds_submitted += 1
        self.pages_submitted += len(pages)
        shared_this_round = 0
        for page_id in pages:
            flight = self._flights.get(page_id)
            if flight is None:
                flight = _Flight(page_id, now)
                self._flights[page_id] = flight
                self._backlog.append(page_id)
            else:
                self.shared_pages += 1
                shared_this_round += 1
            flight.tickets.append(ticket)
        if self.lifecycle is not None:
            self.lifecycle.batch(qid, now, len(pages), shared_this_round)
        if self.timeline is not None:
            self.timeline.record("serving.backlog", now, len(self._backlog))
        self._kick()
        return ticket

    def _kick(self) -> None:
        """Start the dispatcher, or wake it if parked on an idle wait."""
        if not self._running:
            self._running = True
            self.env.process(self._dispatch_loop())
        elif self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _dispatch_loop(self) -> Generator:
        """Collect for one window, then flush the whole backlog; repeat.

        Parking on an untriggered event while idle keeps the broker off
        the calendar entirely, so ``env.run()`` still terminates when
        the traffic drains.
        """
        while True:
            if not self._backlog:
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
            if self.window > 0.0:
                yield self.env.timeout(self.window)
            self._flush()

    def _flush(self) -> None:
        """Dispatch the entire backlog, grouped by disk, arrival order."""
        backlog, self._backlog = self._backlog, []
        if not backlog:
            return
        if self.timeline is not None:
            self.timeline.record("serving.backlog", self.env.now, 0)
        by_disk: Dict[int, List[int]] = {}
        for page_id in backlog:
            by_disk.setdefault(self.tree.disk_of(page_id), []).append(
                page_id
            )
        cap = self.max_group_pages
        for disk_id, unit in by_disk.items():
            if cap is None:
                groups = [unit]
            else:
                groups = [
                    unit[i : i + cap] for i in range(0, len(unit), cap)
                ]
            for group in groups:
                self.env.process(self._serve_group(disk_id, group))

    def _serve_group(self, disk_id: int, group: List[int]) -> Generator:
        """Issue one merged transaction and settle its subscribers."""
        now = self.env.now
        qids = set()
        for page_id in group:
            flight = self._flights[page_id]
            flight.dispatched = True
            wait = now - flight.created_at
            if wait > self.max_dispatch_wait:
                self.max_dispatch_wait = wait
            for ticket in flight.tickets:
                qids.add(ticket.qid)
        spanned = sum(self._pages_spanned(p) for p in group)
        self.transactions += 1
        self.pages_dispatched += spanned
        if len(qids) > 1:
            self.batched_transactions += 1
        timing = yield self.system.transfer(self.tree, disk_id, group)
        ok = timing.ok
        buffer = self.system.buffer
        for page_id in group:
            flight = self._flights.pop(page_id)
            if ok and buffer is not None:
                # Once per physical fetch — subscribers share the copy.
                buffer.admit(page_id)
            for ticket in flight.tickets:
                ticket.resolve(
                    page_id, ok, timing, self._pages_spanned(page_id)
                )

    def describe(self) -> Dict[str, object]:
        """Reporting-friendly counter snapshot."""
        return {
            "rounds_submitted": self.rounds_submitted,
            "pages_submitted": self.pages_submitted,
            "shared_pages": self.shared_pages,
            "transactions": self.transactions,
            "batched_transactions": self.batched_transactions,
            "pages_dispatched": self.pages_dispatched,
            "max_dispatch_wait": self.max_dispatch_wait,
        }
