"""The serving frontend: admission → execution → (degraded) answers.

:func:`serve_scenario` is the production-shaped counterpart of
:func:`~repro.simulation.simulator.simulate_workload`: a stream of
queries from a :class:`~repro.serving.traffic.TrafficScenario` hits an
:class:`~repro.serving.admission.AdmissionController`, admitted queries
run as :class:`~repro.simulation.simulator.SimulatedExecutor` processes
(optionally routing their fetch rounds through the shared
:class:`~repro.serving.batcher.FetchBroker`), and every offered query
ends in exactly one of four outcomes:

``complete``
    ran to completion before its deadline — the exact k-NN answer;
``degraded``
    admitted, but cut short mid-flight (deadline or lost pages) — a
    partial answer with the PR3 **certified radius**: the distance
    within which it is provably exact;
``shed``
    queued past its deadline and dropped by load shedding without
    spending any I/O — an empty answer certified to radius 0 (the
    degenerate, still-honest certificate);
``rejected``
    bounced at the door because the admission queue was full.

The unrestricted policy (no bounds, no batching) reproduces
``simulate_workload`` **bit-identically** when fed the same arrival
stream (:func:`~repro.serving.traffic.workload_interarrivals`): the
admission bookkeeping adds no simulation events.  The golden no-op test
in ``tests/serving`` pins this down, which is what licenses the serving
layer as the default front door.

Response times are measured from *scenario arrival* — admission-queue
wait shows up in the new ``admission_wait`` breakdown component, so
per-query breakdowns still telescope to the response time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro.core.results import Neighbor
from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.obs.report import percentile
from repro.obs.trace import NULL_TRACER
from repro.serving.admission import (
    AdmissionController,
    QueueEntry,
    ServingPolicy,
)
from repro.serving.batcher import FetchBroker
from repro.serving.traffic import TrafficScenario
from repro.simulation.engine import Environment
from repro.simulation.simulator import (
    AlgorithmFactory,
    QueryRecord,
    RoundIO,
    SimulatedExecutor,
    WorkloadResult,
    build_disk_array,
    collect_system_stats,
    record_workload_metrics,
)
from repro.simulation.parameters import SystemParameters
from repro.simulation.system import DiskArraySystem

#: ServedQuery outcomes, in report order.
OUTCOMES = ("complete", "degraded", "shed", "rejected")


class BatchedExecutor(SimulatedExecutor):
    """Executor whose fetch rounds go through the cross-query broker.

    Only :meth:`_issue_round` changes: instead of issuing its own
    per-query transactions, the round's missed pages are staked with
    the :class:`~repro.serving.batcher.FetchBroker`, which merges them
    with other in-flight queries' pages into shared same-disk
    transactions.  ``pages_fetched`` stays per-query (a shared
    transaction's pages are charged to each subscriber only for its own
    pages), while physical I/O is counted once at the system level.
    """

    def __init__(self, *args, broker: FetchBroker, **kwargs):
        super().__init__(*args, **kwargs)
        self.broker = broker

    def _issue_round(self, qid: int, missed: Sequence[int]) -> Generator:
        if not missed:
            # Mirror the base executor: an empty round still crosses
            # the (immediately-firing) barrier.
            timings = yield self.env.all_of([])
            return RoundIO(timings, set(), 0, 0, 0, 0, 0)
        ticket = self.broker.submit(qid, list(missed))
        yield ticket.event
        return RoundIO(
            timings=ticket.timings,
            failed_pages=ticket.failed_pages,
            pages_fetched=ticket.pages_delivered,
            retries=ticket.retries,
            failovers=ticket.failovers,
            fetch_failures=ticket.fetch_failures,
            fetches_issued=len(ticket.timings),
        )


@dataclass
class ServedQuery:
    """One offered query's fate at the serving layer."""

    qid: int
    klass: str
    outcome: str
    #: Scenario arrival (open) or client issue time (closed-loop).
    arrival: float
    #: When the query entered the system (None: rejected/shed unstarted).
    started: Optional[float]
    completion: float
    answers: List[Neighbor] = field(default_factory=list)
    #: PR3 contract: radius within which the answer is provably exact.
    #: ``inf`` for complete queries, finite for degraded, 0.0 for shed.
    certified_radius: float = math.inf
    #: The executor record (None for shed/rejected queries).
    record: Optional[QueryRecord] = None

    @property
    def response_time(self) -> float:
        """Seconds from arrival to the answer (or the drop decision)."""
        return self.completion - self.arrival

    @property
    def admission_wait(self) -> float:
        """Seconds spent queued at the admission controller."""
        if self.started is None:
            return self.completion - self.arrival
        return self.started - self.arrival

    @property
    def served(self) -> bool:
        """True when the query got an answer (complete or degraded)."""
        return self.outcome in ("complete", "degraded")


@dataclass
class ServingResult:
    """Everything one :func:`serve_scenario` run produced."""

    scenario: TrafficScenario
    policy: ServingPolicy
    #: Every offered query, ordered by qid.
    queries: List[ServedQuery]
    #: The admitted queries' workload aggregate (records ordered by
    #: completion, as in ``simulate_workload``) — feeds the standard
    #: RunReport latency/breakdown/counts/utilization sections.
    result: WorkloadResult
    #: Broker counter snapshot (None without cross-query batching).
    batching: Optional[Dict[str, object]]
    #: Physical pages fetched by the array (shared fetches counted once).
    physical_pages: int = 0
    peak_in_flight: int = 0
    peak_queued: int = 0
    #: Tail-tolerance snapshots (None when the feature was not enabled,
    #: keeping pre-PR8 report bodies byte-identical).
    health: Optional[Dict[str, object]] = None
    hedge: Optional[Dict[str, object]] = None
    rebuild: Optional[Dict[str, object]] = None
    #: Queries shed on arrival because a rebuild was streaming.
    rebuild_shed: int = 0
    #: SLO section (None without an SLOTracker attached, keeping
    #: pre-PR10 report bodies byte-identical).
    slo: Optional[Dict[str, object]] = None

    def outcome_counts(self) -> Dict[str, int]:
        """How many offered queries ended in each outcome."""
        counts = {outcome: 0 for outcome in OUTCOMES}
        for query in self.queries:
            counts[query.outcome] += 1
        return counts

    @property
    def served_queries(self) -> List[ServedQuery]:
        return [q for q in self.queries if q.served]

    @property
    def logical_pages(self) -> int:
        """Pages *delivered to queries* (shared fetches charged per
        subscriber — each one is a page some query needed)."""
        return sum(r.pages_fetched for r in self.result.records)

    @property
    def transactions_per_page(self) -> float:
        """Physical disk transactions per page delivered to a query.

        The cross-query batching headline — *mean fetch rounds per
        page*.  Without batching every delivered page is backed by its
        own transaction (or its share of an intra-query coalesced
        group), so this sits near 1.  The broker drives it **down** two
        ways: merging same-disk pages from different queries into one
        sweep, and deduplicating pages several queries want at once
        (one physical fetch, many deliveries).  The paper-claim test
        asserts batching beats per-query coalescing alone at high λ.
        """
        logical = self.logical_pages
        if logical == 0:
            return 0.0
        return sum(self.result.disk_requests) / logical

    @property
    def goodput(self) -> float:
        """Answered (complete + degraded) queries per simulated second."""
        served = self.served_queries
        if not served or self.result.makespan <= 0:
            return 0.0
        return len(served) / self.result.makespan

    def serving_section(self) -> Dict[str, object]:
        """JSON-ready ``"serving"`` RunReport section (finite floats only)."""
        counts = self.outcome_counts()
        served = self.served_queries
        latencies = [q.response_time for q in served]
        waits = [q.admission_wait for q in self.queries if q.started is not None]
        shed_radii = [
            q.certified_radius
            for q in self.queries
            if q.outcome in ("degraded", "shed")
            and math.isfinite(q.certified_radius)
        ]
        section: Dict[str, object] = {
            "policy": self.policy.describe(),
            "scenario": {
                "name": self.scenario.name,
                "offered": len(self.queries),
                "closed_loop": self.scenario.closed_loop,
            },
            "counts": {
                **counts,
                "admitted": sum(
                    1 for q in self.queries if q.started is not None
                ),
                "peak_in_flight": self.peak_in_flight,
                "peak_queued": self.peak_queued,
            },
            "latency": {
                "mean": (
                    math.fsum(latencies) / len(latencies) if latencies else 0.0
                ),
                "p50": percentile(latencies, 0.50) if latencies else 0.0,
                "p95": percentile(latencies, 0.95) if latencies else 0.0,
                "p99": percentile(latencies, 0.99) if latencies else 0.0,
                "max": max(latencies) if latencies else 0.0,
            },
            "admission_wait": {
                "mean": math.fsum(waits) / len(waits) if waits else 0.0,
                "max": max(waits) if waits else 0.0,
            },
            "certificates": {
                "count": len(shed_radii),
                "max_radius": max(shed_radii) if shed_radii else 0.0,
            },
            "io": {
                "transactions": sum(self.result.disk_requests),
                "physical_pages": self.physical_pages,
                "logical_pages": self.logical_pages,
                "transactions_per_page": self.transactions_per_page,
            },
            "goodput": self.goodput,
        }
        if self.batching is not None:
            section["batching"] = dict(self.batching)
        if self.health is not None:
            section["health"] = dict(self.health)
        if self.hedge is not None:
            section["hedge"] = dict(self.hedge)
        if self.rebuild is not None:
            section["rebuild"] = dict(self.rebuild)
            section["rebuild"]["shed_during_rebuild"] = self.rebuild_shed
        return section


class ServingFrontend:
    """Wires a scenario through admission, execution and shedding.

    Single-use: build one per :func:`serve_scenario` call.  All state
    transitions happen synchronously on the simulation clock — the only
    events the frontend itself creates are the arrival timeouts (open
    scenarios) and the per-client think-time timeouts (closed loop),
    mirroring ``simulate_workload``'s arrival process exactly.
    """

    def __init__(
        self,
        env: Environment,
        system: DiskArraySystem,
        tree,
        factory: AlgorithmFactory,
        scenario: TrafficScenario,
        policy: ServingPolicy,
        tracer=None,
        metrics=None,
        timeline=None,
        deadline: Optional[float] = None,
        lifecycle=None,
        slo=None,
    ):
        self.env = env
        self.system = system
        self.tree = tree
        self.factory = factory
        self.scenario = scenario
        self.policy = policy
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.timeline = timeline
        #: Write-only observers (PR10): a LifecycleLog and an SLOTracker.
        #: Neither schedules events nor consumes RNG — attaching them is
        #: bit-identity-neutral (golden-asserted).
        self.lifecycle = lifecycle
        self.slo = slo
        self.controller = AdmissionController(policy)
        self.broker: Optional[FetchBroker] = None
        if policy.cross_query_batching:
            self.broker = FetchBroker(
                env,
                system,
                tree,
                window=policy.batch_window,
                max_group_pages=policy.max_group_pages,
                timeline=timeline,
                lifecycle=lifecycle,
            )
            self.executor: SimulatedExecutor = BatchedExecutor(
                env,
                system,
                tree,
                tracer=tracer,
                metrics=metrics,
                timeline=timeline,
                deadline=deadline,
                lifecycle=lifecycle,
                broker=self.broker,
            )
        else:
            self.executor = SimulatedExecutor(
                env,
                system,
                tree,
                tracer=tracer,
                metrics=metrics,
                timeline=timeline,
                deadline=deadline,
                lifecycle=lifecycle,
            )
        self.served: List[Optional[ServedQuery]] = [None] * len(
            scenario.queries
        )
        self.records: List[QueryRecord] = []
        #: Closed-loop completion latches, keyed by qid.
        self._done: Dict[int, object] = {}
        #: Arrivals shed by rebuild-aware admission (reporting).
        self.rebuild_shed = 0

    # -- arrival processes ------------------------------------------------

    def open_arrivals(self) -> Generator:
        """Open scenario: advance the clock by the interarrival deltas.

        Accumulates time exactly like ``simulate_workload`` (successive
        ``timeout(delta)`` events), which is what makes the no-op
        golden test byte-exact.
        """
        for qid, delta in enumerate(self.scenario.interarrivals):
            yield self.env.timeout(delta)
            if self.tracer.enabled:
                self.tracer.instant(
                    f"query{qid}", "arrival", "query", self.env.now, flow=qid
                )
            self._on_arrival(qid)

    def client_loop(self, client_id: int, qids: Sequence[int]) -> Generator:
        """One closed-loop client: think, issue, await the answer, repeat."""
        rng = random.Random(
            (self.scenario.seed << 8) ^ client_id ^ 0xC11E47
        )
        for qid in qids:
            if self.scenario.think_time > 0:
                yield self.env.timeout(
                    rng.expovariate(1.0 / self.scenario.think_time)
                )
            done = self.env.event()
            self._done[qid] = done
            self._on_arrival(qid)
            yield done

    def start(self) -> None:
        """Spawn the arrival process(es); call once before ``env.run()``."""
        if self.scenario.closed_loop:
            # Deal queries round-robin so every client works the whole
            # scenario duration.
            for client_id in range(self.scenario.clients):
                qids = list(
                    range(
                        client_id,
                        len(self.scenario.queries),
                        self.scenario.clients,
                    )
                )
                if qids:
                    self.env.process(self.client_loop(client_id, qids))
        else:
            self.env.process(self.open_arrivals())

    # -- admission lifecycle ----------------------------------------------

    def _on_arrival(self, qid: int) -> None:
        now = self.env.now
        klass = self.policy.class_named(self.scenario.class_of(qid))
        if self.lifecycle is not None:
            self.lifecycle.arrival(qid, now, klass.name)
        deadline_at = (
            now + klass.deadline if klass.deadline is not None else None
        )
        if (
            self.policy.rebuild_shed_priority is not None
            and klass.priority >= self.policy.rebuild_shed_priority
            and getattr(self.system, "rebuild_active", False)
        ):
            # Rebuild-aware admission: while a drive is streaming its
            # pages back, low-priority arrivals are shed at the door so
            # foreground urgency and the rebuild share the spindles.
            self.rebuild_shed += 1
            if self.lifecycle is not None:
                self.lifecycle.shed(qid, now, "rebuild")
            self._settle(
                ServedQuery(
                    qid=qid,
                    klass=klass.name,
                    outcome="shed",
                    arrival=now,
                    started=None,
                    completion=now,
                    certified_radius=0.0,
                )
            )
            return
        entry = QueueEntry(
            qid=qid, arrival=now, klass=klass, deadline_at=deadline_at
        )
        verdict = self.controller.offer(entry)
        if verdict == "admit":
            if self.lifecycle is not None:
                self.lifecycle.admitted(qid, now, 0.0)
            self.env.process(self._run_admitted(entry))
        elif verdict == "reject":
            if self.lifecycle is not None:
                self.lifecycle.rejected(qid, now)
            self._settle(
                ServedQuery(
                    qid=qid,
                    klass=klass.name,
                    outcome="rejected",
                    arrival=now,
                    started=None,
                    completion=now,
                    certified_radius=0.0,
                )
            )
        else:  # queued
            if self.lifecycle is not None:
                self.lifecycle.queued(qid, now, self.controller.queued)
            self._sample_queue()

    def _run_admitted(self, entry: QueueEntry) -> Generator:
        started = self.env.now
        record = yield self.env.process(
            self.executor.query_process(
                self.factory(self.scenario.queries[entry.qid]),
                qid=entry.qid,
                deadline_at=entry.deadline_at,
            )
        )
        wait = started - entry.arrival
        if wait > 0.0:
            # Charge the admission-queue wait to the query: response
            # time spans scenario arrival → completion, and the new
            # breakdown component keeps the telescoping exact.
            record.arrival = entry.arrival
            record.breakdown.admission_wait = wait
        self.records.append(record)
        degraded = not record.complete or record.deadline_exceeded
        self._settle(
            ServedQuery(
                qid=entry.qid,
                klass=entry.klass.name,
                outcome="degraded" if degraded else "complete",
                arrival=entry.arrival,
                started=started,
                completion=record.completion,
                answers=record.answers,
                certified_radius=record.certified_radius,
                record=record,
            )
        )
        self.controller.release()
        self._admit_next()

    def _admit_next(self) -> None:
        """Pull the next queued query; shed the expired ones en route."""
        entry, shed = self.controller.pop_next(self.env.now)
        now = self.env.now
        for dropped in shed:
            if self.lifecycle is not None:
                self.lifecycle.shed(dropped.qid, now, "queue")
            self._settle(
                ServedQuery(
                    qid=dropped.qid,
                    klass=dropped.klass.name,
                    outcome="shed",
                    arrival=dropped.arrival,
                    started=None,
                    completion=now,
                    certified_radius=0.0,
                )
            )
        if entry is not None:
            if self.lifecycle is not None:
                self.lifecycle.popped(
                    entry.qid, now, now - entry.arrival
                )
            self.env.process(self._run_admitted(entry))
        self._sample_queue()

    def _settle(self, served: ServedQuery) -> None:
        self.served[served.qid] = served
        if self.slo is not None:
            self.slo.observe(
                served.klass,
                served.completion,
                served.served,
                served.response_time,
            )
        if self.lifecycle is not None:
            self.lifecycle.outcome(
                served.qid,
                served.completion,
                served.outcome,
                served.certified_radius,
                len(served.answers),
            )
        done = self._done.pop(served.qid, None)
        if done is not None:
            done.succeed(served)

    def _sample_queue(self) -> None:
        if self.timeline is not None:
            self.timeline.record(
                "serving.queued", self.env.now, self.controller.queued
            )


def serve_scenario(
    tree,
    factory: AlgorithmFactory,
    scenario: TrafficScenario,
    policy: Optional[ServingPolicy] = None,
    params: Optional[SystemParameters] = None,
    seed: int = 0,
    tracer=None,
    metrics=None,
    timeline=None,
    fault_plan=None,
    retry_policy=None,
    raid: str = "raid0",
    health: Optional[HealthPolicy] = None,
    hedge: Optional[HedgePolicy] = None,
    rebuild: Optional[RebuildPolicy] = None,
    lifecycle=None,
    slo=None,
) -> ServingResult:
    """Serve a traffic scenario over the simulated disk array.

    :param tree: a placed tree (the ``simulate_workload`` interface).
    :param factory: builds the algorithm instance per query point.
    :param scenario: the traffic to serve (arrivals + query points +
        optional per-query class labels).
    :param policy: serving policy; default is the unrestricted
        :class:`~repro.serving.admission.ServingPolicy` (no admission
        bounds, no batching — the plain-workload baseline).
    :param params: system parameters (default: the paper's).
    :param seed: seeds rotational latencies (and fault plans), exactly
        as in ``simulate_workload`` — arrivals are owned by *scenario*.
    :param tracer / metrics / timeline: the usual observability hooks;
        the timeline gains ``serving.queued`` (admission-queue depth)
        and, with batching, ``serving.backlog`` (broker backlog) tracks.
    :param fault_plan / retry_policy: PR3 fault injection.
    :param raid: ``"raid0"`` (declustered, the default) or ``"raid1"``
        (mirrored pairs — required for hedging and rebuild; fault-plan
        disk ids then address physical drives, ``logical*2+replica``).
    :param health: optional :class:`~repro.faults.health.HealthPolicy`
        — attaches a :class:`~repro.faults.health.DiskHealthMonitor`
        over the physical drives, so fetches route around (RAID-1) or
        fail fast against (RAID-0) open-breaker disks.
    :param hedge: optional :class:`~repro.faults.health.HedgePolicy`
        enabling hedged mirrored reads (RAID-1 only).
    :param rebuild: optional
        :class:`~repro.faults.health.RebuildPolicy` enabling online
        rebuild of finite-repair crash windows (RAID-1 only).
    :param lifecycle: optional
        :class:`~repro.obs.lifecycle.LifecycleLog` recording each
        query's causal chain (write-only observer; gains the health
        monitor for breaker annotations when one is attached).
    :param slo: optional :class:`~repro.obs.slo.SLOTracker`; when
        attached, :attr:`ServingResult.slo` carries the evaluated
        section (write-only observer).
    :returns: a :class:`ServingResult`.
    """
    if policy is None:
        policy = ServingPolicy()
    tracer = NULL_TRACER if tracer is None else tracer
    env = Environment()
    system = build_disk_array(
        env, tree, raid, health=health, hedge=hedge, rebuild=rebuild,
        timeline=timeline, params=params, seed=seed, tracer=tracer,
        metrics=metrics, fault_plan=fault_plan, retry_policy=retry_policy,
    )
    monitor = system.health
    if lifecycle is not None and monitor is not None:
        # Round events annotate the breaker states of non-closed drives.
        lifecycle.monitor = monitor
    frontend = ServingFrontend(
        env,
        system,
        tree,
        factory,
        scenario,
        policy,
        tracer=tracer,
        metrics=metrics,
        timeline=timeline,
        lifecycle=lifecycle,
        slo=slo,
    )
    frontend.start()
    env.run()

    leftovers = [q for q in frontend.served if q is None]
    if leftovers:
        raise RuntimeError(
            f"{len(leftovers)} offered queries never settled — "
            f"serving frontend bug"
        )
    result = WorkloadResult(records=frontend.records)
    collect_system_stats(result, system, env)
    if metrics is not None and result.records:
        record_workload_metrics(metrics, result, system)
    controller = frontend.controller
    serving = ServingResult(
        scenario=scenario,
        policy=policy,
        queries=[q for q in frontend.served if q is not None],
        result=result,
        batching=(
            frontend.broker.describe() if frontend.broker is not None else None
        ),
        physical_pages=system.pages_fetched,
        peak_in_flight=controller.peak_in_flight,
        peak_queued=controller.peak_queued,
        health=(
            monitor.describe(env.now) if monitor is not None else None
        ),
        hedge=(system.hedge_section() if hedge is not None else None),
        rebuild=(
            system.rebuild_section() if rebuild is not None else None
        ),
        rebuild_shed=frontend.rebuild_shed,
        slo=(slo.section(result.makespan) if slo is not None else None),
    )
    # Ride-along for tests and benches (not a dataclass field, never
    # serialized): the simulated array, e.g. for buffer-pool invariants.
    serving.system = system
    return serving
