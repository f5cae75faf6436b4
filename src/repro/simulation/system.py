"""The simulated disk array system (paper Figure 7).

The network-queue model: every disk has its own queue and independent
head; pages read from a disk travel over a shared I/O bus modeled as a
queue with constant service time; the CPU is a single server charging
the instruction-count cost model.  The system has two fetch
primitives — a single page (``fetch_page``) and a coalesced same-disk
group (``fetch_group``) — which flow queue → disk service → bus, plus a
CPU work primitive used per processed batch.  Everything that moves
pages of a placed tree — a query's fetch rounds, the fetch broker's
merged groups, an index update's path reads and page writes — goes
through one method, :meth:`DiskArraySystem.transfer`, which picks the
primitive and charges each page its span.

**Queue discipline.**  Each disk queue is FCFS by default (the paper's
model, §4); ``SystemParameters.scheduler`` swaps in a seek-aware
discipline — SSTF, SCAN or C-LOOK — from
:mod:`repro.simulation.scheduling`, which reorders grants using the
disk's live head position.  ``SystemParameters.coalesce`` additionally
lets the executor merge one round's same-disk pages into a single
multi-page transaction paying one head sweep and one rotational
latency.

Every primitive returns its phase timings (:class:`FetchTiming`,
:class:`CpuTiming`) as the process value, so the executor can attribute
each query's response time to queue wait, disk service, bus wait, bus
transfer and CPU without re-deriving anything.  When a
:class:`~repro.obs.trace.Tracer` is attached, disk-service, bus and
CPU intervals are emitted as spans on per-server tracks (one Perfetto
row per disk, one for the bus, one for the CPU).

**Fault injection.**  When a :class:`~repro.faults.plan.FaultPlan` is
attached, ``fetch_page`` becomes a bounded retry loop governed by a
:class:`~repro.faults.policy.RetryPolicy`: each disk attempt may end in
a transient read error (seeded per-disk draw), run slower inside a
fail-slow window, time out (the queue-wait phase is raced against the
per-attempt timeout through the event engine), or find the disk inside
a crash window.  Failed attempts back off exponentially; a fetch whose
attempts are exhausted — or whose disk is crashed — completes with a
:class:`FetchFailure` *value* rather than an exception, so the query
process can degrade gracefully instead of the simulation dying.
Without a fault plan the fetch path is byte-identical to the paper's
model.

**Replica sets.**  Every logical disk is a set of ``REPLICAS`` physical
drives, held in one flat list by physical id ``logical * REPLICAS +
replica`` — the address space fault plans and health monitors already
use.  The paper's striped array is the replica set of one
(:class:`DiskArraySystem`, ``disk<d>``); the mirrored array of
:mod:`repro.extensions.raid1` is the subclass with two
(``disk<L>r<R>``).  Everything above is shared; the one step an array
type decides for itself is :meth:`DiskArraySystem._attempt` — *which
drive takes this attempt, or why none can*.
"""

from __future__ import annotations

import random
from typing import Callable, Generator, List, NamedTuple, Optional, Sequence

from repro.disks.model import DiskModel
from repro.faults.health import DiskHealthMonitor
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.obs.metrics import fanout_gauges
from repro.obs.trace import NULL_TRACER
from repro.simulation.buffer import BufferPool
from repro.simulation.cpu import CpuModel
from repro.simulation.engine import AnyOf, Environment, Resource
from repro.simulation.parameters import SystemParameters
from repro.simulation.scheduling import make_scheduler


class FetchTiming(NamedTuple):
    """Phase timings of one page fetch (all in simulated seconds).

    ``queue_wait`` and ``service`` accumulate over *every* attempt the
    fetch made (failed attempts genuinely queued and spun the disk);
    ``retry_wait`` is the backoff time slept between attempts.
    """

    disk_id: int
    pages: int
    start: float
    queue_wait: float
    service: float
    bus_wait: float
    bus_transfer: float
    end: float
    retry_wait: float = 0.0
    attempts: int = 1
    failovers: int = 0

    @property
    def ok(self) -> bool:
        """The page arrived (this is a success record)."""
        return True

    @property
    def total(self) -> float:
        """Queue wait + service + retries + bus wait + bus transfer."""
        return self.end - self.start


class FetchFailure(NamedTuple):
    """A fetch that permanently failed (crash, or retries exhausted).

    Interface-compatible with :class:`FetchTiming` on the phase fields
    so breakdown attribution treats both uniformly; ``bus_wait`` and
    ``bus_transfer`` are zero because a failed fetch never reaches the
    bus.
    """

    disk_id: int
    pages: int
    start: float
    queue_wait: float
    service: float
    retry_wait: float
    end: float
    #: ``"crashed"`` (the disk was inside a crash window),
    #: ``"exhausted"`` (transient errors/timeouts used every attempt) or
    #: ``"ejected"`` (the disk's circuit breaker was open — the fetch
    #: failed fast at zero simulated cost instead of waiting out
    #: retries; see :mod:`repro.faults.health`).
    reason: str
    attempts: int
    failovers: int = 0
    bus_wait: float = 0.0
    bus_transfer: float = 0.0

    @property
    def ok(self) -> bool:
        """The page never arrived."""
        return False

    @property
    def total(self) -> float:
        """Time burnt before giving up."""
        return self.end - self.start


class _Attempt(NamedTuple):
    """Outcome of one attempt at a logical disk (fetch-loop internal)."""

    #: ``"ok"`` | ``"timeout"`` | ``"transient"`` | ``"crashed"`` |
    #: ``"ejected"`` (RAID-0 breaker gate) | ``"cancelled"`` (hedge arm).
    status: str
    queue_wait: float
    service: float
    #: Physical drive the attempt went to; ``None`` when it reached none.
    drive: Optional[int] = None
    #: 1 when the read was redirected away from its preferred replica.
    failover: int = 0


class CpuTiming(NamedTuple):
    """Phase timings of one CPU batch (queue wait, then service)."""

    start: float
    queue_wait: float
    service: float
    end: float

    @property
    def total(self) -> float:
        return self.end - self.start


class DiskArraySystem:
    """Disks + bus + CPU wired into a simulation environment.

    :param env: the simulation environment.
    :param num_disks: *logical* disks in the array (physical drives are
        ``REPLICAS`` times that; the two coincide on RAID-0).
    :param params: timing parameters (defaults to the paper's Table 1/2).
    :param seed: seeds the rotational-latency RNG per drive; ignored when
        ``params.sample_rotation`` is False.
    :param tracer: optional :class:`~repro.obs.trace.Tracer`; the
        default :data:`~repro.obs.trace.NULL_TRACER` records nothing.
    :param metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
        when given, per-drive/bus/cpu queue-depth gauges are wired into
        the resources.
    :param timeline: optional
        :class:`~repro.obs.timeline.TimelineSampler`; when given, each
        drive and the bus drive ``<drive>.queue_depth`` / ``<drive>.busy``
        / ``bus.queue_depth`` / ``bus.busy`` tracks (``<drive>`` as
        named by :meth:`drive_name`).  Sampling is event-driven (no
        calendar events, no RNG), so attaching one changes nothing
        about the simulated run.
    :param fault_plan: optional :class:`~repro.faults.plan.FaultPlan`
        over *physical* drive ids; when given, fetches run through the
        retry loop documented in the module docstring.
    :param retry_policy: the :class:`~repro.faults.policy.RetryPolicy`
        governing that loop (default: ``RetryPolicy()`` when a fault
        plan is present).
    :param health: optional
        :class:`~repro.faults.health.DiskHealthMonitor` over the
        physical drives.
    """

    #: Physical drives per logical disk: a class constant per array type
    #: (picked by the runners' ``raid=`` argument), never a user-set
    #: number.  The paper's striped array is a replica set of one.
    REPLICAS = 1

    #: Hedged reads issued; a striped array has no replica to hedge to.
    hedges_issued = 0
    #: True while a drive streams its pages back; a striped array never
    #: rebuilds.
    rebuild_active = False

    def __init__(
        self,
        env: Environment,
        num_disks: int,
        params: Optional[SystemParameters] = None,
        seed: int = 0,
        tracer=None,
        metrics=None,
        timeline=None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[DiskHealthMonitor] = None,
    ):
        if num_disks < 1:
            raise ValueError(f"num_disks must be positive, got {num_disks}")
        self.env = env
        self.params = params if params is not None else SystemParameters()
        self.num_disks = num_disks
        self.cpu_model = CpuModel(self.params.cpu_mips)
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        self.timeline = timeline
        self.fault_plan = fault_plan
        self.faults = fault_plan.state() if fault_plan is not None else None
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        #: Optional circuit-breaker health monitor: every attempt is
        #: reported to it; what an open breaker *does* is :meth:`_attempt`'s.
        self.health = health
        #: The fault-aware path is taken only when something can fail;
        #: otherwise the fetch path is exactly the paper's model.
        self._faulty = (
            fault_plan is not None
            or retry_policy is not None
            or health is not None
        )
        #: Robustness counters: failed attempts that were retried,
        #: fetches that permanently failed, and reads redirected away
        #: from their preferred replica (always 0 on RAID-0).
        self.retries = 0
        self.failed_fetches = 0
        self.failovers = 0

        def _gauge(name: str):
            metrics_gauge = (
                metrics.gauge(f"{name}.queue_depth")
                if metrics is not None
                else None
            )
            timeline_track = (
                timeline.track(f"{name}.queue_depth")
                if timeline is not None
                else None
            )
            return fanout_gauges(metrics_gauge, timeline_track)

        def _busy(name: str):
            if timeline is None:
                return None
            return timeline.track(f"{name}.busy")

        #: Per-drive names, queues and models in one flat list each,
        #: indexed by physical id (``logical * REPLICAS + replica``).
        self.drive_names: List[str] = [
            self.drive_name(drive)
            for drive in range(num_disks * self.REPLICAS)
        ]
        self.disk_queues: List[Resource] = []
        self.disk_models: List[DiskModel] = []
        # Seed layout: 8 bits of logical disk plus the bits the replica
        # index needs — ``(seed << 8) ^ disk`` on RAID-0 and
        # ``(seed << 9) ^ (disk * 2 + replica)`` on RAID-1, the streams
        # every golden trace was captured with.
        shift = 8 + (self.REPLICAS - 1).bit_length()
        for drive, track in enumerate(self.drive_names):
            rng = (
                random.Random((seed << shift) ^ drive)
                if self.params.sample_rotation
                else None
            )
            self.tracer.track(track)
            model = DiskModel(self.params.disk, rng)
            self.disk_models.append(model)
            # Each physical drive runs its own queue discipline against
            # its own head.  make_scheduler returns None for "fcfs": the
            # resource then grants strictly FCFS — the paper's model,
            # bit-identical to the pre-scheduler code path.
            self.disk_queues.append(
                Resource(env, name=track, tracer=self.tracer,
                         gauge=_gauge(track), busy_gauge=_busy(track),
                         scheduler=make_scheduler(self.params.scheduler,
                                                  model))
            )
        self.tracer.track("bus")
        self.tracer.track("cpu")
        self.bus = Resource(env, name="bus", tracer=self.tracer,
                            gauge=_gauge("bus"), busy_gauge=_busy("bus"))
        self.cpu = Resource(env, name="cpu", tracer=self.tracer,
                            gauge=_gauge("cpu"))
        #: Optional LRU page buffer (None when buffer_pages == 0 — the
        #: paper's model).  The executor consults it per page, on every
        #: array type.
        self.buffer: Optional[BufferPool] = BufferPool.from_parameters(
            self.params
        )
        #: The executor coalesces same-disk pages of a round into one
        #: transaction when this is set (``params.coalesce``).
        self.coalesce = self.params.coalesce

        #: Monitoring: physical pages fetched through the system, and
        #: multi-page transactions issued by the coalescing layer.
        self.pages_fetched = 0
        self.coalesced_fetches = 0

    @classmethod
    def drive_name(cls, drive: int) -> str:
        """Physical drive *drive*'s name: ``disk<d>`` on a striped array,
        ``disk<L>r<R>`` on a replicated one.  Tracer, gauge, timeline and
        health tracks and per-drive metrics are all named through this.
        """
        if cls.REPLICAS == 1:
            return f"disk{drive}"
        logical, replica = divmod(drive, cls.REPLICAS)
        return f"disk{logical}r{replica}"

    def _validate_fetch(self, disk_id, cylinder, pages) -> None:
        """Reject bad fetch arguments at the boundary with clear errors.

        A broken declustering assignment used to surface as an
        ``IndexError`` deep inside the resource lists (or a cylinder
        error mid-service, after the request had already queued); every
        argument is checked here instead, before any simulated time is
        spent.
        """
        num_cylinders = self.params.disk.cylinders
        if not isinstance(disk_id, int) or isinstance(disk_id, bool):
            raise ValueError(
                f"disk_id must be an int, got {disk_id!r} "
                f"({type(disk_id).__name__})"
            )
        if not 0 <= disk_id < self.num_disks:
            raise ValueError(
                f"disk {disk_id} outside [0, {self.num_disks}) — check the "
                f"tree's declustering placement"
            )
        if not isinstance(cylinder, int) or isinstance(cylinder, bool):
            raise ValueError(
                f"cylinder must be an int, got {cylinder!r} "
                f"({type(cylinder).__name__})"
            )
        if not 0 <= cylinder < num_cylinders:
            raise ValueError(
                f"cylinder {cylinder} outside [0, {num_cylinders}) for disk "
                f"{disk_id} — check the tree's cylinder placement"
            )
        if not isinstance(pages, int) or isinstance(pages, bool):
            raise ValueError(
                f"pages must be an int, got {pages!r} ({type(pages).__name__})"
            )
        if pages < 1:
            raise ValueError(f"pages must be positive, got {pages}")

    def fetch_page(
        self,
        disk_id: int,
        cylinder: int,
        pages: int = 1,
        flow: Optional[int] = None,
    ) -> Generator:
        """Process: read one node — disk queue, disk service, then bus.

        Returns a :class:`FetchTiming` as the process value; with a
        fault plan attached, a permanently failed read returns a
        :class:`FetchFailure` instead.

        :param pages: physical pages the node spans (1 for ordinary
            nodes; X-tree supernodes span several, read sequentially in
            one service: a single seek plus *pages* transfers).
        :param flow: optional query id stamped on emitted trace spans so
            exporters can link one query's fetches across tracks.
        """
        self._validate_fetch(disk_id, cylinder, pages)
        nbytes = self.params.page_size * pages
        result = yield from self._fetch(
            disk_id,
            anchor=cylinder,
            service_fn=lambda model: model.service(cylinder, nbytes),
            pages=pages,
            flow=flow,
            span_args={"cylinder": cylinder, "pages": pages},
        )
        return result

    def fetch_group(
        self,
        disk_id: int,
        cylinders: Sequence[int],
        pages: Optional[int] = None,
        flow: Optional[int] = None,
    ) -> Generator:
        """Process: read several same-disk pages as one transaction.

        The coalescing layer groups the pages a fetch round sends to one
        disk and issues them together: the head sweeps once across the
        requested cylinder range, paying a single rotational latency and
        controller overhead for the whole group (see
        :meth:`~repro.disks.model.DiskModel.service_coalesced`).  Under
        a fault plan the group is retried — and fails — as a unit: a
        crash or exhausted retry budget loses every page of the group,
        which the executor then degrades exactly like individually
        failed fetches.

        Returns one :class:`FetchTiming` (or :class:`FetchFailure`)
        covering the whole group.

        :param cylinders: the pages' cylinders, one entry per page.
        :param pages: total physical pages the group spans (defaults to
            ``len(cylinders)``; larger when the group contains X-tree
            supernodes).
        """
        cylinders = tuple(cylinders)
        if not cylinders:
            raise ValueError("a fetch group needs at least one cylinder")
        if pages is None:
            pages = len(cylinders)
        for cylinder in cylinders:
            self._validate_fetch(disk_id, cylinder, 1)
        if pages < len(cylinders):
            raise ValueError(
                f"group spans {pages} pages but names {len(cylinders)} "
                f"cylinders"
            )
        nbytes = self.params.page_size * pages
        if len(cylinders) > 1:
            self.coalesced_fetches += 1
        result = yield from self._fetch(
            disk_id,
            # Scheduler metadata: the group's nearest-to-zero end; the
            # sweep itself starts from whichever end is closer when the
            # disk is finally granted.
            anchor=min(cylinders),
            service_fn=lambda model: model.service_coalesced(
                cylinders, nbytes
            ),
            pages=pages,
            flow=flow,
            span_args={"cylinders": list(cylinders), "pages": pages},
        )
        return result

    def transfer(
        self,
        tree,
        disk_id: int,
        page_ids: Sequence[int],
        flow: Optional[int] = None,
    ):
        """The process moving *page_ids* of the placed *tree*, all on
        *disk_id*, as one transaction: :meth:`fetch_page` for one page,
        :meth:`fetch_group` for several, each page charged
        ``tree.pages_spanned``.  Its value is the primitive's
        :class:`FetchTiming` (or :class:`FetchFailure`); *flow* is the
        optional query id stamped on trace spans.
        """
        spanned = tree.pages_spanned
        if len(page_ids) == 1:
            page_id = page_ids[0]
            body = self.fetch_page(
                disk_id, tree.cylinder_of(page_id),
                pages=spanned(page_id), flow=flow,
            )
        else:
            cylinder_of = tree.cylinder_of
            body = self.fetch_group(
                disk_id, [cylinder_of(p) for p in page_ids],
                pages=sum(spanned(p) for p in page_ids), flow=flow,
            )
        return self.env.process(body)

    def _pick_drive(self, disk_id: int, cylinder: int) -> int:
        """The drive a fault-free read of *disk_id* goes to: the
        nothing-can-fail form of :meth:`_attempt`'s decision (a replica
        set of one has only the one drive)."""
        return disk_id

    def _attempt(
        self,
        disk_id: int,
        anchor: int,
        service_fn: Callable[[DiskModel], float],
        attempt: int,
        last: Optional[int],
    ) -> Generator:
        """Process fragment: one attempt of the fetch loop at *disk_id*.

        The one step that differs by array type: *which drive takes
        this attempt, or why none can*.  Returns the attempt's
        :class:`_Attempt`.  The striped array has a single candidate, so
        an open breaker or a crash fails the attempt outright.

        :param attempt: 1-based attempt number within the fetch.
        :param last: the drive the previous failed attempt ran on.
        """
        now = self.env.now
        if self.health is not None and not self.health.allow(disk_id, now):
            # The disk's breaker is open: fail fast at zero simulated
            # cost; the executor marks the subtree unreachable and the
            # query certifies its radius instead of waiting out retries
            # at a sick disk.  (The stateful gate is consulted *before*
            # the crash check — its probe draws are part of the run.)
            return _Attempt("ejected", 0.0, 0.0)
        if self.fault_plan is not None and self.fault_plan.is_crashed(
            disk_id, now
        ):
            # No point queueing at a dead disk; the attempt is charged
            # but costs no simulated time.
            return self._judged(_Attempt("crashed", 0.0, 0.0, disk_id))
        return (yield from self._disk_attempt(disk_id, anchor, service_fn))

    def _judged(self, outcome: _Attempt) -> _Attempt:
        """Report a finished attempt to the health monitor, if any."""
        if self.health is not None:
            self.health.observe(
                outcome.drive,
                outcome.status == "ok",
                outcome.queue_wait + outcome.service,
                self.env.now,
            )
        return outcome

    def _disk_attempt(
        self,
        drive: int,
        anchor: int,
        service_fn: Callable[[DiskModel], float],
    ) -> Generator:
        """Process fragment (``yield from``): one attempt at one drive.

        Queue for the drive, racing the grant against the per-attempt
        timeout (a timed-out queued request is cancelled cleanly), then
        serve and judge the read (:meth:`_serve_granted`).

        :param anchor: scheduler metadata — the request's (anchor)
            cylinder, so a seek-aware queue discipline can order the grant.
        """
        env = self.env
        queue = self.disk_queues[drive]
        t0 = env.now
        cap = self.retry_policy.attempt_timeout
        grant = queue.request(cylinder=anchor)
        if cap is not None and not grant.triggered:
            yield AnyOf(env, [grant, env.timeout(cap)])
            if not grant.triggered:
                # Timed out while queued: withdraw the request and give up
                # on this attempt without ever touching the disk.
                queue.release(grant)
                return self._judged(
                    _Attempt("timeout", env.now - t0, 0.0, drive)
                )
        else:
            yield grant
        return (
            yield from self._serve_granted(drive, grant, t0, service_fn, cap)
        )

    def _serve_granted(
        self,
        drive: int,
        grant,
        t0: float,
        service_fn: Callable[[DiskModel], float],
        cap: Optional[float],
    ) -> Generator:
        """Process fragment: serve a granted read at *drive*, then judge it.

        *service_fn* charges the drive (a plain single read or a
        coalesced multi-page sweep), inflated by any active fail-slow
        window; the attempt is then judged — crashed mid-service, over
        the time cap *cap* (``None``: uncapped), or hit by a transient
        read error — and reported to the health monitor.

        :param t0: when the attempt started queueing.
        """
        env = self.env
        queue, model = self.disk_queues[drive], self.disk_models[drive]
        plan = self.fault_plan
        granted = env.now
        try:
            duration = service_fn(model)
            if plan is not None:
                factor = plan.slow_factor(drive, granted)
                if factor > 1.0:
                    # The drive really is busy for the inflated time; keep
                    # the utilization accounting honest.
                    extra = duration * (factor - 1.0)
                    model.busy_time += extra
                    duration += extra
            yield env.timeout(duration)
        finally:
            queue.release(grant)
        served = env.now
        if plan is not None and plan.is_crashed(drive, served):
            status = "crashed"
        elif cap is not None and served - t0 > cap:
            # The disk is not preemptible: the service completed, but the
            # attempt blew its budget and its result is discarded.
            status = "timeout"
        elif self.faults is not None and self.faults.draw_transient(drive):
            status = "transient"
        else:
            status = "ok"
        return self._judged(
            _Attempt(status, granted - t0, served - granted, drive)
        )

    def _fetch(
        self,
        disk_id: int,
        anchor: int,
        service_fn: Callable[[DiskModel], float],
        pages: int,
        flow: Optional[int],
        span_args: dict,
    ) -> Generator:
        """Shared fetch path: disk queue, disk service, then bus.

        *service_fn* charges the drive (single read or coalesced sweep);
        *anchor* is the cylinder the queue discipline orders by.
        """
        env = self.env
        start = env.now
        failovers = 0

        if not self._faulty:
            # The paper's model: one attempt, nothing can go wrong.
            drive = self._pick_drive(disk_id, anchor)
            queue = self.disk_queues[drive]
            grant = queue.request(cylinder=anchor)
            yield grant
            granted = env.now
            try:
                # Head position is only touched while holding the disk,
                # so the seek distance reflects the true service order.
                yield env.timeout(service_fn(self.disk_models[drive]))
            finally:
                queue.release(grant)
            served = env.now
            queue_wait, service = granted - start, served - granted
            retry_wait, attempts = 0.0, 1
        else:
            policy = self.retry_policy
            queue_wait = service = retry_wait = 0.0
            attempts = 0
            status = "exhausted"
            last: Optional[int] = None
            while attempts < policy.max_attempts:
                attempts += 1
                outcome = yield from self._attempt(
                    disk_id, anchor, service_fn, attempts, last
                )
                queue_wait += outcome.queue_wait
                service += outcome.service
                failovers += outcome.failover
                status, drive = outcome.status, outcome.drive
                if status == "ok":
                    granted = env.now - outcome.service
                    break
                if status == "ejected":
                    # Failing fast means exactly that: no fault instant,
                    # no retry charged, no backoff slept.
                    break
                if drive is None:
                    # No drive took it (the whole replica set is down):
                    # the fault is marked on the set's first drive.
                    drive = disk_id * self.REPLICAS
                else:
                    last = drive
                if self.tracer.enabled:
                    self.tracer.instant(
                        self.drive_names[drive], "fault", "fault", env.now,
                        flow=flow,
                        args={"status": status, "attempt": attempts},
                    )
                if attempts >= policy.max_attempts:
                    break
                self.retries += 1
                if self.metrics is not None:
                    self.metrics.counter("fetch.retries").inc()
                delay = policy.backoff(attempts)
                if delay > 0.0:
                    before = env.now
                    yield env.timeout(delay)
                    retry_wait += env.now - before
            if status != "ok":
                self.failed_fetches += 1
                if self.metrics is not None:
                    self.metrics.counter("fetch.failures").inc()
                return FetchFailure(
                    disk_id=disk_id,
                    pages=pages,
                    start=start,
                    queue_wait=queue_wait,
                    service=service,
                    retry_wait=retry_wait,
                    end=env.now,
                    reason=(
                        status
                        if status in ("crashed", "ejected")
                        else "exhausted"
                    ),
                    attempts=attempts,
                    failovers=failovers,
                )
            served = env.now

        grant = self.bus.request()
        yield grant
        bus_granted = env.now
        try:
            yield env.timeout(self.params.bus_time)
        finally:
            self.bus.release(grant)
        end = env.now
        self.pages_fetched += pages

        if self.tracer.enabled:
            # The span covers the successful attempt's service interval
            # (the winning arm's, for a hedged read).
            self.tracer.span(
                self.drive_names[drive], "service", "disk", granted, served,
                flow=flow, args=span_args,
            )
            self.tracer.span(
                "bus", "transfer", "bus", bus_granted, end, flow=flow,
            )
        return FetchTiming(
            disk_id=disk_id,
            pages=pages,
            start=start,
            queue_wait=queue_wait,
            service=service,
            bus_wait=bus_granted - served,
            bus_transfer=end - bus_granted,
            end=end,
            retry_wait=retry_wait,
            attempts=attempts,
            failovers=failovers,
        )

    def cpu_work(
        self, scanned: int, sorted_count: int, flow: Optional[int] = None
    ) -> Generator:
        """Process: charge CPU time for processing one fetched batch.

        Returns a :class:`CpuTiming` as the process value.
        """
        start = self.env.now
        grant = self.cpu.request()
        yield grant
        granted = self.env.now
        try:
            yield self.env.timeout(
                self.cpu_model.batch_time(scanned, sorted_count)
            )
        finally:
            self.cpu.release(grant)
        end = self.env.now
        if self.tracer.enabled:
            self.tracer.span(
                "cpu", "batch", "cpu", granted, end, flow=flow,
                args={"scanned": scanned, "sorted": sorted_count},
            )
        return CpuTiming(
            start=start,
            queue_wait=granted - start,
            service=end - granted,
            end=end,
        )

    def disk_utilizations(self, elapsed: float) -> List[float]:
        """Fraction of *elapsed* each physical drive spent servicing."""
        if elapsed <= 0:
            return [0.0] * len(self.disk_models)
        return [model.busy_time / elapsed for model in self.disk_models]

    def seek_distances(self) -> List[int]:
        """Cumulative cylinders each physical drive's head has traveled."""
        return [model.seek_distance_total for model in self.disk_models]
