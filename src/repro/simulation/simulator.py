"""Driving search algorithms through the simulated disk array.

A *query process* walks a search coroutine (the fetch protocol of
:mod:`repro.core.protocol`) through the system model: each requested
batch becomes parallel disk fetches (queue → service → bus), the batch
completion is a barrier, and the CPU cost model is charged per processed
batch.  Response time is measured from arrival (the query "enters the
system immediately without waiting", §4.1) to delivery of the answers.

Every query additionally carries a :class:`~repro.obs.breakdown.Breakdown`
attributing its response time to startup / queue wait / disk service /
bus / CPU / barrier idle: each fetch round contributes the *mean* of its
fetches' phase times plus the straggler slack (round duration minus the
mean fetch's busy time) as barrier idle, so the components always sum
back to the response time.

:func:`simulate_workload` implements the paper's multi-user experiment:
query arrivals follow a Poisson process with rate λ, 100 queries are
executed, and the mean response time is reported.  It runs the serving
frontend (:func:`~repro.serving.frontend.serve_scenario`) under its
unrestricted policy — the one run loop of every read-only workload.
Pass a :class:`~repro.obs.trace.Tracer` to capture a full span trace
(exportable to Perfetto via :mod:`repro.obs.export`) and/or a
:class:`~repro.obs.metrics.MetricsRegistry` for histograms and gauges.

**Degraded mode.**  With a :class:`~repro.faults.plan.FaultPlan`
attached, page fetches can fail permanently
(:class:`~repro.simulation.system.FetchFailure`); the executor then
resumes the algorithm with ``None`` for the lost pages, and the
algorithm skips those subtrees while recording their ``Dmin`` lower
bounds.  The query completes with a *partial* answer carrying a
**certified radius** — the distance within which the answer is provably
exact (see :mod:`repro.core.protocol`).  An optional per-query
deadline (``query_process(deadline_at=)``) degrades the same way: once
it passes, every page still pending at the next fetch round resolves
as unreachable at zero simulated cost and the query returns its
best-effort answer with the same certificate.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Generator, List, NamedTuple, Optional, Sequence

from repro.core.protocol import SearchAlgorithm
from repro.core.results import Neighbor
from repro.faults.health import (
    DiskHealthMonitor,
    HealthPolicy,
    HedgePolicy,
    RebuildPolicy,
    pages_per_disk,
)
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.geometry.point import Point
from repro.obs.breakdown import Breakdown
from repro.obs.report import percentile
from repro.obs.trace import NULL_TRACER
from repro.simulation.engine import Environment
from repro.simulation.parameters import SystemParameters
from repro.simulation.system import DiskArraySystem

#: Builds a fresh algorithm instance for a query point (the harness binds
#: k, the disk count and — for WOPTSS — the oracle distance).
AlgorithmFactory = Callable[[Point], SearchAlgorithm]

#: Array layouts a run can target: striping (the paper's model) or
#: mirrored pairs (:mod:`repro.extensions.raid1`).
RAID_LEVELS = ("raid0", "raid1")


@dataclass
class QueryRecord:
    """Outcome of one simulated query."""

    query: Point
    arrival: float
    completion: float
    pages_fetched: int
    rounds: int
    answers: List[Neighbor]
    #: Page requests served from the buffer pool (no I/O paid).
    buffer_hits: int = 0
    #: Where the response time went, component by component.
    breakdown: Breakdown = field(default_factory=Breakdown)
    #: True when every relevant subtree was reached (no page lost).
    complete: bool = True
    #: Radius within which the answer is provably exact (``inf`` when
    #: complete; see :mod:`repro.core.protocol` on degraded mode).
    certified_radius: float = math.inf
    #: Subtrees skipped because their page never arrived.
    unreachable_pages: int = 0
    #: Fetches that failed permanently (crash / retries exhausted);
    #: counted per issued transaction, so a failed coalesced group
    #: counts once however many pages it carried.
    fetch_failures: int = 0
    #: Pages that went through the buffer gate (exactly one lookup
    #: each); 0 when the system has no buffer.  The pool-level invariant
    #: ``hits + misses == sum(page_requests)`` is what the accounting
    #: tests assert.
    page_requests: int = 0
    #: Disk attempts beyond the first, across the query's fetches.
    retries: int = 0
    #: RAID-1 reads redirected away from their preferred replica.
    failovers: int = 0
    #: True when the per-query deadline cut the search short.
    deadline_exceeded: bool = False

    @property
    def response_time(self) -> float:
        """Seconds from arrival to answer delivery."""
        return self.completion - self.arrival


@dataclass
class WorkloadResult:
    """Aggregate outcome of a simulated workload."""

    records: List[QueryRecord] = field(default_factory=list)
    #: Simulated seconds until the last query completed.
    makespan: float = 0.0
    #: Per-disk busy fraction over the makespan.
    disk_utilizations: List[float] = field(default_factory=list)
    #: Per-disk time-weighted mean queue length over the makespan.
    mean_queue_lengths: List[float] = field(default_factory=list)
    #: Per-disk worst-case queue length observed.
    max_queue_lengths: List[int] = field(default_factory=list)
    #: Per-disk cumulative head travel in cylinders (physical drives on
    #: RAID-1).
    seek_distances: List[int] = field(default_factory=list)
    #: Per-disk requests serviced (the seek distances' denominators).
    disk_requests: List[int] = field(default_factory=list)
    #: Multi-page transactions issued by the coalescing layer.
    coalesced_fetches: int = 0
    #: Shared-bus busy fraction over the makespan (the quantity the
    #: paper's §5 FPSS saturation argument turns on).
    bus_utilization: float = 0.0
    #: CPU busy fraction over the makespan.
    cpu_utilization: float = 0.0
    #: The simulated array, e.g. for hedge / rebuild / health sections
    #: built from its counters (never serialised).
    system: Optional[DiskArraySystem] = field(
        default=None, repr=False, compare=False
    )

    @property
    def mean_response(self) -> float:
        """Mean query response time — the paper's headline metric."""
        return statistics.fmean(r.response_time for r in self.records)

    @property
    def median_response(self) -> float:
        """Median query response time."""
        return statistics.median(r.response_time for r in self.records)

    @property
    def max_response(self) -> float:
        """Worst query response time."""
        return max(r.response_time for r in self.records)

    @property
    def mean_pages(self) -> float:
        """Mean pages physically fetched per query (buffer hits excluded)."""
        return statistics.fmean(r.pages_fetched for r in self.records)

    @property
    def total_buffer_hits(self) -> int:
        """Page requests served from the buffer across the workload."""
        return sum(r.buffer_hits for r in self.records)

    @property
    def breakdown(self) -> Breakdown:
        """Mean per-query response-time breakdown (sums to mean_response)."""
        return Breakdown.mean([r.breakdown for r in self.records])

    @property
    def throughput(self) -> float:
        """Completed queries per simulated second over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return len(self.records) / self.makespan

    @property
    def mean_seek_distance(self) -> float:
        """Mean cylinders traveled per serviced disk request.

        The headline metric of the scheduling layer: seek-aware queue
        disciplines (SSTF/SCAN/C-LOOK) exist to drive this down.
        """
        requests = sum(self.disk_requests)
        if requests == 0:
            return 0.0
        return sum(self.seek_distances) / requests

    # -- robustness aggregates (all zero/empty on fault-free runs) ----------

    @property
    def partial_queries(self) -> int:
        """Queries that returned a degraded (partial) answer."""
        return sum(1 for r in self.records if not r.complete)

    @property
    def deadline_exceeded_queries(self) -> int:
        """Queries cut short by their per-query deadline."""
        return sum(1 for r in self.records if r.deadline_exceeded)

    @property
    def aborted_queries(self) -> int:
        """Degraded queries that could not produce a single answer."""
        return sum(
            1 for r in self.records if not r.complete and not r.answers
        )

    @property
    def total_retries(self) -> int:
        """Disk attempts beyond the first, across the workload."""
        return sum(r.retries for r in self.records)

    @property
    def total_fetch_failures(self) -> int:
        """Permanently failed fetches across the workload."""
        return sum(r.fetch_failures for r in self.records)

    @property
    def total_failovers(self) -> int:
        """RAID-1 replica failovers across the workload."""
        return sum(r.failovers for r in self.records)

    @property
    def certified_radii(self) -> List[float]:
        """The partial queries' certified radii (finite values only)."""
        return [
            r.certified_radius
            for r in self.records
            if math.isfinite(r.certified_radius)
        ]

    def percentile(self, fraction: float) -> float:
        """Response-time percentile, e.g. ``percentile(0.95)`` for p95.

        Uses the nearest-rank method on the recorded queries.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if not self.records:
            raise ValueError("no queries recorded")
        return percentile(
            (r.response_time for r in self.records), fraction
        )


class RoundIO(NamedTuple):
    """Outcome of one fetch round's physical I/O (see ``_issue_round``)."""

    #: Fetch timing records (``FetchTiming``/``FetchFailure``/``None``),
    #: one per transaction that carried pages for this query.
    timings: Sequence
    #: Pages that never arrived (their transaction failed permanently).
    failed_pages: set
    #: Physical pages delivered to this query (supernode spans counted).
    pages_fetched: int
    #: Disk attempts beyond the first across the round's transactions.
    retries: int
    #: RAID-1 replica failovers across the round's transactions.
    failovers: int
    #: Transactions that failed permanently (counted once per
    #: transaction, however many pages it carried).
    fetch_failures: int
    #: Transactions this round touched (for tracing only).
    fetches_issued: int


class SimulatedExecutor:
    """Runs search coroutines as processes inside a simulation.

    :param env: simulation environment.
    :param system: the disk array model.
    :param tree: a placed tree (:class:`~repro.rtree.placed.PlacedTree`).
    :param tracer: optional :class:`~repro.obs.trace.Tracer` receiving
        query/round spans (default: the no-op null tracer).
    :param metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
        receiving the batch-width histogram.
    :param timeline: optional
        :class:`~repro.obs.timeline.TimelineSampler`; when given, the
        executor drives the ``queries.in_flight``, ``buffer.hit_rate``
        and (for algorithms exposing a candidate ``stack``, i.e. CRSS)
        ``crss.stack_depth`` tracks.  Event-driven — attaching one
        never changes the simulated run.
    :param lifecycle: optional
        :class:`~repro.obs.lifecycle.LifecycleLog`; when given, every
        fetch round appends one event to the query's lifecycle record
        (pages requested/hit/fetched/failed, retries, failovers, hedges
        issued during the round, deadline cuts).  Write-only — it
        schedules nothing and consumes no RNG, so attaching one is
        bit-identity-neutral.
    """

    def __init__(
        self,
        env: Environment,
        system: DiskArraySystem,
        tree,
        tracer=None,
        metrics=None,
        timeline=None,
        lifecycle=None,
    ):
        self.env = env
        self.system = system
        self.tree = tree
        buffer = system.buffer
        total_pages = len(tree.page_ids())
        if buffer is not None and total_pages and buffer.capacity >= total_pages:
            raise ValueError(
                f"buffer_pages={buffer.capacity} would cache the entire "
                f"{total_pages}-page tree; every fetch after warmup would "
                f"hit, making the simulation meaningless — use a capacity "
                f"below the tree size (or 0 for the paper's bufferless "
                f"model)"
            )
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.timeline = timeline
        self.lifecycle = lifecycle
        #: Timeline state: queries currently inside the system, and the
        #: candidate-stack contribution of each in-flight query (so the
        #: aggregate track updates in O(1) per round).
        self._in_flight = 0
        self._stack_depths: dict = {}
        self._stack_total = 0
        self._batch_width = (
            metrics.histogram("batch_width", minimum=1.0)
            if metrics is not None
            else None
        )
        self._next_qid = 0

    def _sample_stack(self, qid: int, algorithm) -> None:
        """Update the aggregate candidate-stack track for one query.

        Only algorithms exposing a sized ``stack`` attribute (CRSS)
        contribute; everything else is a silent no-op, so the track is
        simply absent on FPSS/BBSS runs.
        """
        if self.timeline is None:
            return
        stack = getattr(algorithm, "stack", None)
        if stack is None:
            return
        depth = len(stack)
        previous = self._stack_depths.get(qid, 0)
        if depth != previous:
            self._stack_depths[qid] = depth
            self._stack_total += depth - previous
            self.timeline.record(
                "crss.stack_depth", self.env.now, self._stack_total
            )

    def _retire_stack(self, qid: int, ts: float) -> None:
        """Drop a completed query's candidate-stack contribution."""
        previous = self._stack_depths.pop(qid, 0)
        if previous:
            self._stack_total -= previous
            self.timeline.record("crss.stack_depth", ts, self._stack_total)

    def _issue_round(self, qid: int, missed: Sequence[int]) -> Generator:
        """Process fragment issuing one round's physical I/O.

        Consumed with ``yield from`` so it adds **no** events of its own
        beyond the fetches it issues — extracting it from
        :meth:`query_process` is bit-identity-neutral (the PR4 golden
        traces assert this).  The default implementation builds the
        round's units — one per page, or, when the system coalesces, one
        per disk covering every sibling page the round sends there —
        and issues each through
        :meth:`~repro.simulation.system.DiskArraySystem.transfer`, which
        charges every page its span.  It then waits on the round
        barrier, accounts per-transaction outcomes and admits arrived
        pages to the buffer pool.

        Subclasses may override it to route the round through a shared
        cross-query batcher (see
        :class:`repro.serving.frontend.BatchedExecutor`); the contract
        is: deliver every page in *missed* or record it in
        ``failed_pages``, admit exactly the arrived pages to the buffer,
        and return a :class:`RoundIO`.
        """
        tree = self.tree
        disk_of = tree.disk_of
        if self.system.coalesce:
            by_disk: dict = {}
            for page_id in missed:
                by_disk.setdefault(disk_of(page_id), []).append(page_id)
            fetch_units = list(by_disk.items())
        else:
            fetch_units = [(disk_of(p), (p,)) for p in missed]
        transfer = self.system.transfer
        fetches = [
            transfer(tree, disk_id, unit, qid)
            for disk_id, unit in fetch_units
        ]
        # Barrier: the algorithm resumes when the whole batch (its
        # activation list for this step) has arrived.  The barrier's
        # value is the fetches' FetchTiming — or FetchFailure — records.
        timings = yield self.env.all_of(fetches)
        failed_pages: set = set()
        pages_fetched = 0
        retries = 0
        failovers = 0
        fetch_failures = 0
        for (_, unit), timing in zip(fetch_units, timings):
            retries += max(0, timing.attempts - 1)
            failovers += timing.failovers
            if timing.ok:
                pages_fetched += timing.pages
            else:
                # A failed transaction loses every page it carried (one
                # failure, len(unit) pages).
                fetch_failures += 1
                failed_pages.update(unit)
        buffer = self.system.buffer
        if buffer is not None:
            # Admit exactly the pages that physically arrived: failed
            # fetches must not be admitted, and hit pages were already
            # refreshed by their lookup at the buffer gate.
            for _, unit in fetch_units:
                for page_id in unit:
                    if page_id not in failed_pages:
                        buffer.admit(page_id)
        return RoundIO(
            timings=timings,
            failed_pages=failed_pages,
            pages_fetched=pages_fetched,
            retries=retries,
            failovers=failovers,
            fetch_failures=fetch_failures,
            fetches_issued=len(fetches),
        )

    def query_process(
        self,
        algorithm: SearchAlgorithm,
        qid: Optional[int] = None,
        deadline_at: Optional[float] = None,
    ) -> Generator:
        """Process body executing one query; returns its QueryRecord.

        :param deadline_at: optional *absolute* simulated-time
            deadline.  Once it passes, every page still pending at the
            next fetch round resolves as unreachable at zero simulated
            cost and the query returns its best-effort partial answer
            with a certified radius.  The serving layer sets it from the
            query's class deadline at scenario arrival, so admission-
            queue wait counts against it.
        """
        if qid is None:
            qid = self._next_qid
            self._next_qid += 1
        tracer = self.tracer
        track = f"query{qid}"
        breakdown = Breakdown()

        arrival = self.env.now
        timeline = self.timeline
        if timeline is not None:
            self._in_flight += 1
            timeline.record("queries.in_flight", arrival, self._in_flight)
        yield self.env.timeout(self.system.params.query_startup)
        breakdown.startup = self.env.now - arrival

        coroutine = algorithm.run(self.tree.root_page_id)
        pages_fetched = 0
        buffer_hits = 0
        rounds = 0
        fetch_failures = 0
        retries = 0
        failovers = 0
        page_requests = 0
        deadline_exceeded = False
        answers: List[Neighbor] = []
        try:
            request = next(coroutine)
            self._sample_stack(qid, algorithm)
            while True:
                buffer = self.system.buffer
                round_start = self.env.now
                failed_pages = set()
                # Deadline check at round granularity: rounds already in
                # flight complete, but once the deadline has passed no
                # new I/O is issued — every still-pending page resolves
                # as unreachable at zero simulated cost.
                if deadline_at is not None and self.env.now >= deadline_at:
                    deadline_exceeded = True
                    failed_pages = set(request.pages)
                    round_end = round_start
                    fetches_issued = 0
                    hits_this_round = 0
                    if self.lifecycle is not None:
                        self.lifecycle.round(
                            qid, round_start, round_end,
                            requested=len(request.pages),
                            buffer_hits=0,
                            pages_fetched=0,
                            failed=len(failed_pages),
                            retries=0,
                            failovers=0,
                            fetch_failures=0,
                            deadline_cut=True,
                        )
                else:
                    # The buffer gate: exactly one lookup per requested
                    # page — a page that later fails (or is retried
                    # internally) was still missed exactly once here.
                    # Buffer hits cost no I/O; the paper's model has no
                    # buffer (SystemParameters.buffer_pages = 0).
                    missed: List[int] = []
                    hits_this_round = 0
                    for page_id in request.pages:
                        if buffer is not None:
                            page_requests += 1
                            if buffer.lookup(page_id):
                                hits_this_round += 1
                                continue
                        missed.append(page_id)
                    buffer_hits += hits_this_round
                    if (
                        timeline is not None
                        and buffer is not None
                        and request.pages
                    ):
                        timeline.record(
                            "buffer.hit_rate", round_start, buffer.hit_rate
                        )
                    hedges_before = self.system.hedges_issued
                    io = yield from self._issue_round(qid, missed)
                    round_end = self.env.now
                    self._attribute_round(
                        breakdown, round_start, round_end, io.timings
                    )
                    pages_fetched += io.pages_fetched
                    retries += io.retries
                    failovers += io.failovers
                    fetch_failures += io.fetch_failures
                    failed_pages = io.failed_pages
                    fetches_issued = io.fetches_issued
                    if self.lifecycle is not None:
                        self.lifecycle.round(
                            qid, round_start, round_end,
                            requested=len(request.pages),
                            buffer_hits=hits_this_round,
                            pages_fetched=io.pages_fetched,
                            failed=len(failed_pages),
                            retries=io.retries,
                            failovers=io.failovers,
                            fetch_failures=io.fetch_failures,
                            hedges=self.system.hedges_issued - hedges_before,
                        )
                fetched = {
                    pid: None if pid in failed_pages else self.tree.page(pid)
                    for pid in request.pages
                }
                explain = algorithm.explain
                if explain is not None:
                    explain.observe_round(
                        [p for p in request.pages if p not in failed_pages],
                        sorted(failed_pages),
                    )
                rounds += 1
                if self._batch_width is not None:
                    self._batch_width.observe(len(request.pages))

                # CPU: scan every fetched entry, sort the survivors.  The
                # survivor count is bounded by the scanned count; charging
                # the bound keeps the model conservative (CPU time is
                # orders of magnitude below one disk access either way).
                scanned = sum(
                    len(node) for node in fetched.values() if node is not None
                )
                cpu_timing = yield self.env.process(
                    self.system.cpu_work(scanned, scanned, flow=qid)
                )
                breakdown.cpu += cpu_timing.total

                if tracer.enabled:
                    tracer.span(
                        track, f"round{rounds - 1}", "round",
                        round_start, round_end, flow=None,
                        args={
                            "batch": len(request.pages),
                            "fetches": fetches_issued,
                            "buffer_hits": hits_this_round,
                            "failed": len(failed_pages),
                        },
                    )

                request = coroutine.send(fetched)
                self._sample_stack(qid, algorithm)
        except StopIteration as stop:
            answers = stop.value if stop.value is not None else []

        completion = self.env.now
        if timeline is not None:
            self._in_flight -= 1
            timeline.record("queries.in_flight", completion, self._in_flight)
            self._retire_stack(qid, completion)
        complete = algorithm.complete
        certified_radius = algorithm.certified_radius
        unreachable_pages = algorithm.unreachable_pages
        if tracer.enabled:
            tracer.span(
                track, "query", "query", arrival, completion, flow=qid,
                args={
                    "algorithm": type(algorithm).__name__,
                    "rounds": rounds,
                    "pages_fetched": pages_fetched,
                    "buffer_hits": buffer_hits,
                    "complete": complete,
                    "deadline_exceeded": deadline_exceeded,
                },
            )
        return QueryRecord(
            query=algorithm.query,
            arrival=arrival,
            completion=completion,
            pages_fetched=pages_fetched,
            rounds=rounds,
            answers=answers,
            buffer_hits=buffer_hits,
            breakdown=breakdown,
            complete=complete,
            certified_radius=certified_radius,
            unreachable_pages=unreachable_pages,
            fetch_failures=fetch_failures,
            page_requests=page_requests,
            retries=retries,
            failovers=failovers,
            deadline_exceeded=deadline_exceeded,
        )

    @staticmethod
    def _attribute_round(
        breakdown: Breakdown,
        round_start: float,
        round_end: float,
        timings: Sequence,
    ) -> None:
        """Fold one fetch round into *breakdown*.

        All fetches of a round start together, so the round lasts until
        its slowest fetch arrives.  The round's duration is attributed
        as the *mean* of the fetches' phase times (queue wait, disk
        service, bus wait, bus transfer, retry backoff) plus the
        remainder — the time the query idled at the barrier beyond the
        average fetch's busy time.  Failed fetches
        (:class:`~repro.simulation.system.FetchFailure`) expose the same
        phase fields, so degraded rounds decompose identically.  A round
        with no fetch (every page a buffer hit) is all barrier idle.
        """
        duration = round_end - round_start
        if not timings:
            breakdown.barrier_idle += duration
            return
        count = len(timings)
        queue_wait = math.fsum(t.queue_wait for t in timings) / count
        service = math.fsum(t.service for t in timings) / count
        bus_wait = math.fsum(t.bus_wait for t in timings) / count
        bus_transfer = math.fsum(t.bus_transfer for t in timings) / count
        retry_wait = math.fsum(t.retry_wait for t in timings) / count
        breakdown.queue_wait += queue_wait
        breakdown.disk_service += service
        breakdown.bus_wait += bus_wait
        breakdown.bus_transfer += bus_transfer
        breakdown.retry_backoff += retry_wait
        # max(0, …): with a single fetch the mean IS the duration and
        # float telescoping can leave a ~1e-19 negative residue.
        breakdown.barrier_idle += max(
            0.0,
            duration
            - (queue_wait + service + bus_wait + bus_transfer + retry_wait),
        )


def collect_system_stats(
    result: WorkloadResult, system, env: Environment
) -> None:
    """Fill *result*'s system-level aggregates from a finished run.

    Clocks the run off the queries themselves: with a retry policy,
    abandoned attempt-timeout timers may outlive the last completion and
    inflate ``env.now``.  Identical on fault-free runs.  Called by the
    serving frontend's result tail, which every read-only workload
    (``simulate_workload`` included) runs.
    """
    result.makespan = (
        max(r.completion for r in result.records) if result.records else env.now
    )
    result.disk_utilizations = system.disk_utilizations(result.makespan)
    result.mean_queue_lengths = [
        queue.mean_queue_length(result.makespan)
        for queue in system.disk_queues
    ]
    result.max_queue_lengths = [
        queue.max_queue_length for queue in system.disk_queues
    ]
    result.seek_distances = system.seek_distances()
    result.disk_requests = [
        model.requests_served for model in system.disk_models
    ]
    result.coalesced_fetches = system.coalesced_fetches
    if result.makespan > 0:
        result.bus_utilization = system.bus.total_hold_time / result.makespan
        result.cpu_utilization = system.cpu.total_hold_time / result.makespan


def record_workload_metrics(metrics, result: WorkloadResult, system) -> None:
    """Fold a finished workload's per-query outcomes into *metrics*.

    Robustness metrics stay absent on fault-free runs (counters are
    only created when something actually degraded).  Per-drive counters
    carry *system*'s drive names.
    """
    response = metrics.histogram("response_time")
    for record in result.records:
        response.observe(record.response_time)
    metrics.counter("pages_fetched").inc(
        sum(r.pages_fetched for r in result.records)
    )
    metrics.counter("buffer_hits").inc(result.total_buffer_hits)
    metrics.counter("queries").inc(len(result.records))
    # Scheduling-layer telemetry: how far every head traveled, and how
    # much the coalescing layer amortized.
    for drive, distance in zip(system.drive_names, result.seek_distances):
        metrics.counter(f"{drive}.seek_distance").inc(distance)
    if result.coalesced_fetches:
        metrics.counter("fetch.coalesced").inc(result.coalesced_fetches)
    if result.partial_queries:
        metrics.counter("queries.partial").inc(result.partial_queries)
        radius_hist = metrics.histogram("certified_radius")
        for radius in result.certified_radii:
            if radius > 0.0:
                radius_hist.observe(radius)
    if result.aborted_queries:
        metrics.counter("queries.aborted").inc(result.aborted_queries)
    if result.deadline_exceeded_queries:
        metrics.counter("queries.deadline_exceeded").inc(
            result.deadline_exceeded_queries
        )
    if result.total_failovers:
        metrics.counter("fetch.failovers").inc(result.total_failovers)


def build_disk_array(
    env: Environment,
    tree,
    raid: str,
    *,
    health: Optional[HealthPolicy],
    hedge: Optional[HedgePolicy],
    rebuild: Optional[RebuildPolicy],
    timeline,
    **system_kwargs,
) -> DiskArraySystem:
    """Build the array *raid* names over *tree*'s disks, monitor included.

    The one place a ``raid`` / ``health`` / ``hedge`` / ``rebuild``
    argument set becomes a system, called by
    :func:`~repro.serving.frontend.serve_scenario` (and so by
    :func:`simulate_workload`).  A *health*
    policy becomes a :class:`~repro.faults.health.DiskHealthMonitor`
    over the array's physical drives (reachable afterwards as
    ``system.health``); the rebuild's per-disk page counts are derived
    from *tree*.  *system_kwargs* go to the system constructor as is.
    """
    if raid not in RAID_LEVELS:
        raise ValueError(f"raid must be one of {RAID_LEVELS}, got {raid!r}")
    if raid == "raid1":
        # Imported here: the extension subclasses this package's system.
        from repro.extensions.raid1 import MirroredDiskArraySystem as array

        pages = pages_per_disk(tree) if rebuild is not None else None
        system_kwargs.update(hedge=hedge, rebuild=rebuild, rebuild_pages=pages)
    elif hedge is not None or rebuild is not None:
        raise ValueError(
            "hedged reads and online rebuild need a mirrored array — "
            "pass raid='raid1'"
        )
    else:
        array = DiskArraySystem
    monitor = None
    if health is not None:
        drives = range(tree.num_disks * array.REPLICAS)
        monitor = DiskHealthMonitor(
            health,
            len(drives),
            timeline=timeline,
            track_names=[f"{array.drive_name(d)}.health" for d in drives],
        )
    return array(
        env, tree.num_disks, timeline=timeline, health=monitor, **system_kwargs
    )


def simulate_workload(
    tree,
    factory: AlgorithmFactory,
    queries: Sequence[Point],
    arrival_rate: Optional[float] = None,
    params: Optional[SystemParameters] = None,
    seed: int = 0,
    tracer=None,
    metrics=None,
    timeline=None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    deadline: Optional[float] = None,
    health: Optional[HealthPolicy] = None,
    raid: str = "raid0",
    hedge: Optional[HedgePolicy] = None,
    rebuild: Optional[RebuildPolicy] = None,
) -> WorkloadResult:
    """Simulate a stream of k-NN queries against a placed tree: the
    :func:`~repro.serving.traffic.workload_scenario` of *queries*
    served by :func:`~repro.serving.frontend.serve_scenario` under the
    unrestricted policy.

    :param tree: a placed tree (:class:`~repro.rtree.placed.PlacedTree`),
        e.g. a :class:`~repro.parallel.tree.ParallelRStarTree`.
    :param factory: builds the algorithm instance for each query point.
    :param queries: the query points, issued in order.
    :param arrival_rate: Poisson arrival rate λ (queries/second); if
        ``None``, queries run back-to-back (single-user mode — the next
        query arrives when the previous one completes).
    :param seed: seeds interarrival sampling and rotational latencies.
    :param deadline: optional per-query deadline in simulated seconds.
    :param params / tracer / metrics / timeline / fault_plan /
        retry_policy / health / raid / hedge / rebuild: passed to
        ``serve_scenario`` as they are (see there).
    :returns: per-query records plus aggregate statistics, the
        simulated array included (``result.system``).
    :raises ValueError: with no query, or a rate that is not positive.
    """
    # Imported here: the serving layer builds on this module.
    from repro.serving import (
        no_admission_policy,
        serve_scenario,
        workload_scenario,
    )

    return serve_scenario(
        tree, factory, workload_scenario(queries, arrival_rate, seed),
        policy=no_admission_policy(deadline),
        params=params, seed=seed, tracer=tracer, metrics=metrics,
        timeline=timeline, fault_plan=fault_plan, retry_policy=retry_policy,
        raid=raid, health=health, hedge=hedge, rebuild=rebuild,
    ).result
