"""Traffic-scenario generation for the serving layer.

The paper's multi-user experiment (§4.1) opens queries with a plain
Poisson process.  Production traffic is nothing like that: it bursts
(flash crowds, retry storms), breathes on a daily cycle, concentrates on
a few hot regions of the data space, and — for interactive clients — is
*closed-loop*: each user issues the next query only after the previous
answer came back.  This module generates deterministic arrival traces
for all four shapes so the serving layer can be stressed, benchmarked
and regression-gated under each of them.

All generators are pure functions of their arguments: same seed →
byte-identical traces (the metamorphic suite asserts the repr of the
trace is stable).  The MMPP and diurnal generators are built by
*thinning* a homogeneous Poisson candidate stream at the peak rate, so
an MMPP whose two states share one rate degenerates **exactly** to the
Poisson trace with the same seed — a property the tests pin down.

A :class:`TrafficScenario` couples an arrival trace with the query
points (optionally hot-spot skewed via
:func:`repro.datasets.workloads.hotspot_queries`), per-query priority
class names and, for the paper's dynamic setting, open streams of
inserts and deletes.  Interarrival *deltas* rather than absolute times are
stored: the frontend advances the simulation clock by successive
``timeout(delta)`` events, so a scenario built from
:func:`workload_interarrivals` replays the paper's Poisson arrivals
float for float — :func:`workload_scenario` builds that scenario, and
:func:`~repro.simulation.simulator.simulate_workload` serves it under
the unrestricted policy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.datasets.queries import sample_queries
from repro.datasets.workloads import hotspot_queries
from repro.geometry.point import Point

#: Scenario names accepted by :func:`make_scenario` (and the CLI).
SCENARIO_KINDS = ("poisson", "bursty", "diurnal", "hotspot", "closed")


def poisson_trace(
    rate: float, horizon: float, seed: int = 0
) -> List[float]:
    """Homogeneous Poisson arrival times on ``[0, horizon)``.

    :param rate: arrival rate λ in queries per simulated second.
    :param horizon: end of the observation window (arrivals at or past
        it are dropped — the trace length is itself Poisson(λ·horizon)).
    :param seed: RNG seed; same seed → byte-identical trace.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    rng = random.Random(seed)
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            return times
        times.append(t)


def _thinned_trace(
    peak_rate: float,
    horizon: float,
    seed: int,
    accept_probability,
) -> List[float]:
    """Thin a Poisson(peak_rate) candidate stream.

    *accept_probability(rng, t)* returns the instantaneous acceptance
    probability at candidate time *t*; it may advance hidden state
    (the MMPP phase) but must draw all randomness from *rng* so the
    trace stays a pure function of the seed.
    """
    rng = random.Random(seed)
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(peak_rate)
        if t >= horizon:
            return times
        probability = accept_probability(rng, t)
        # Certain acceptance draws nothing: with the probability pinned
        # at 1 the candidate stream passes through untouched, which is
        # what makes the degenerate cases (equal-rate MMPP, flat
        # diurnal) EXACTLY the Poisson trace of the same seed.
        if probability >= 1.0 or rng.random() < probability:
            times.append(t)


def mmpp_trace(
    burst_rate: float,
    base_rate: float,
    horizon: float,
    mean_burst: float = 0.5,
    mean_gap: float = 2.0,
    seed: int = 0,
) -> List[float]:
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The process alternates between a *burst* state (arrivals at
    ``burst_rate``) and a *gap* state (``base_rate``), with
    exponentially distributed dwell times ``mean_burst`` / ``mean_gap``.
    Implemented by thinning a Poisson(burst_rate) candidate stream, so
    ``burst_rate == base_rate`` degenerates exactly to
    :func:`poisson_trace` with the same seed.

    :param burst_rate: arrival rate inside a burst (the peak).
    :param base_rate: arrival rate between bursts (``<= burst_rate``).
    :param horizon: observation window in simulated seconds.
    :param mean_burst: mean burst duration in seconds.
    :param mean_gap: mean gap duration in seconds.
    :param seed: RNG seed; same seed → byte-identical trace.
    """
    if burst_rate <= 0 or base_rate <= 0:
        raise ValueError("rates must be positive")
    if base_rate > burst_rate:
        raise ValueError(
            f"base_rate ({base_rate}) must not exceed burst_rate "
            f"({burst_rate}) — thinning needs the peak as envelope"
        )
    if mean_burst <= 0 or mean_gap <= 0:
        raise ValueError("state dwell times must be positive")

    # Hidden phase state advanced lazily to each candidate's time.  The
    # phase RNG is independent of the candidate stream's draws only in
    # the degenerate case: when the rates are equal the acceptance
    # probability is 1 regardless of phase, so no phase draw is made and
    # the candidate stream passes through untouched.
    state = {"in_burst": True, "until": None}

    def accept(rng: random.Random, t: float) -> float:
        if burst_rate == base_rate:
            return 1.0
        if state["until"] is None:
            state["until"] = rng.expovariate(1.0 / mean_burst)
        while state["until"] < t:
            state["in_burst"] = not state["in_burst"]
            mean = mean_burst if state["in_burst"] else mean_gap
            state["until"] += rng.expovariate(1.0 / mean)
        return 1.0 if state["in_burst"] else base_rate / burst_rate

    return _thinned_trace(burst_rate, horizon, seed, accept)


def diurnal_trace(
    base_rate: float,
    peak_rate: float,
    horizon: float,
    period: Optional[float] = None,
    seed: int = 0,
) -> List[float]:
    """Sinusoidal daily-cycle arrivals.

    The instantaneous rate follows
    ``base + (peak - base) * (1 - cos(2πt/period)) / 2`` — the window
    opens at the trough and peaks mid-period.  Default period is the
    whole horizon (one "day" per run).

    :param base_rate: trough arrival rate.
    :param peak_rate: peak arrival rate (the thinning envelope).
    :param horizon: observation window in simulated seconds.
    :param period: cycle length (default: *horizon*).
    :param seed: RNG seed; same seed → byte-identical trace.
    """
    if base_rate <= 0 or peak_rate <= 0:
        raise ValueError("rates must be positive")
    if base_rate > peak_rate:
        raise ValueError(
            f"base_rate ({base_rate}) must not exceed peak_rate "
            f"({peak_rate})"
        )
    if period is None:
        period = horizon
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")

    def accept(rng: random.Random, t: float) -> float:
        rate = base_rate + (peak_rate - base_rate) * (
            1.0 - math.cos(2.0 * math.pi * t / period)
        ) / 2.0
        return rate / peak_rate

    return _thinned_trace(peak_rate, horizon, seed, accept)


def workload_interarrivals(
    rate: float, count: int, seed: int = 0
) -> List[float]:
    """The Poisson interarrival stream of :func:`workload_scenario`.

    Seeds the arrival RNG as ``random.Random(seed ^ 0xA5A5A5)`` and
    draws one ``expovariate(rate)`` per query, so any serving run fed
    it replays the *same* arrivals as a plain workload run.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = random.Random(seed ^ 0xA5A5A5)
    return [rng.expovariate(rate) for _ in range(count)]


def _to_interarrivals(times: Sequence[float]) -> List[float]:
    """Absolute arrival times → successive deltas."""
    deltas: List[float] = []
    previous = 0.0
    for t in times:
        deltas.append(t - previous)
        previous = t
    return deltas


@dataclass(frozen=True)
class TrafficScenario:
    """One reproducible stream of queries against the serving layer.

    *Open* scenarios carry one interarrival delta per query; *closed*
    scenarios (``clients > 0``) have no arrival trace — each simulated
    client issues its share of the queries serially, thinking an
    exponential ``think_time`` between them.  Update streams arrive
    open either way, beside the queries; a scenario may hold updates
    and no queries.
    """

    name: str
    queries: Tuple[Point, ...]
    #: Interarrival deltas (open scenarios); empty for closed-loop.
    interarrivals: Tuple[float, ...] = ()
    #: Priority-class name per query ("" → the policy's default class).
    classes: Tuple[str, ...] = ()
    #: Closed-loop client count (0 → open arrivals).
    clients: int = 0
    #: Mean think time per closed-loop client, seconds.
    think_time: float = 0.0
    seed: int = 0
    #: Open update streams, started in this order: ``(kind, items,
    #: interarrivals)`` with *kind* ``"insert"`` or ``"delete"``,
    #: ``(point, oid)`` items and one delta per item.
    updates: Tuple[Tuple[str, tuple, tuple], ...] = ()

    def __post_init__(self) -> None:
        if not self.queries and not any(items for _, items, _ in self.updates):
            raise ValueError("a scenario needs at least one query or update")
        for kind, items, deltas in self.updates:
            if kind not in ("insert", "delete") or len(deltas) != len(items):
                raise ValueError(
                    f"an update stream is 'insert' or 'delete' with one "
                    f"interarrival per item: got {kind!r}, {len(deltas)} "
                    f"deltas for {len(items)} items"
                )
        if self.clients < 0:
            raise ValueError(f"clients must be >= 0, got {self.clients}")
        if self.clients == 0 and len(self.interarrivals) != len(self.queries):
            raise ValueError(
                f"open scenario needs one interarrival per query: "
                f"{len(self.interarrivals)} deltas for "
                f"{len(self.queries)} queries"
            )
        if self.classes and len(self.classes) != len(self.queries):
            raise ValueError(
                f"classes must be empty or per-query: {len(self.classes)} "
                f"names for {len(self.queries)} queries"
            )
        if self.think_time < 0:
            raise ValueError(
                f"think_time must be >= 0, got {self.think_time}"
            )

    @property
    def closed_loop(self) -> bool:
        return self.clients > 0

    def class_of(self, index: int) -> str:
        """Priority-class name of query *index* ("" → policy default)."""
        return self.classes[index] if self.classes else ""

    @property
    def arrival_times(self) -> List[float]:
        """Absolute arrival times (accumulated deltas; open scenarios)."""
        times: List[float] = []
        t = 0.0
        for delta in self.interarrivals:
            t += delta
            times.append(t)
        return times


def scenario_from_arrivals(
    name: str,
    queries: Sequence[Point],
    arrival_times: Sequence[float],
    classes: Sequence[str] = (),
    seed: int = 0,
) -> TrafficScenario:
    """Build an open scenario from absolute arrival times."""
    return TrafficScenario(
        name=name,
        queries=tuple(queries),
        interarrivals=tuple(_to_interarrivals(arrival_times)),
        classes=tuple(classes),
        seed=seed,
    )


def workload_scenario(
    queries: Sequence[Point],
    arrival_rate: Optional[float] = None,
    seed: int = 0,
) -> TrafficScenario:
    """The traffic of the paper's multi-user experiment.

    Poisson arrivals at *arrival_rate* drawn by
    :func:`workload_interarrivals`, or, with no rate, one zero-think
    closed-loop client (single-user mode: the next query arrives when
    the previous one completes).  ``simulate_workload``, ``run_chaos``
    and the CLI's ``simulate`` / ``chaos`` serve this scenario.
    """
    if not queries:
        raise ValueError("a workload needs at least one query")
    if arrival_rate is not None and arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if arrival_rate is None:
        return TrafficScenario(
            name="serial", queries=tuple(queries), clients=1, seed=seed
        )
    return TrafficScenario(
        name="poisson",
        queries=tuple(queries),
        interarrivals=tuple(
            workload_interarrivals(arrival_rate, len(queries), seed)
        ),
        seed=seed,
    )


def assign_classes(
    count: int,
    class_weights: Sequence[Tuple[str, float]],
    seed: int = 0,
) -> Tuple[str, ...]:
    """Draw a priority-class name per query from weighted choices."""
    if not class_weights:
        return ()
    names = [name for name, _ in class_weights]
    weights = [weight for _, weight in class_weights]
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError(f"invalid class weights: {class_weights}")
    rng = random.Random(seed ^ 0x5EED)
    return tuple(rng.choices(names, weights=weights, k=count))


def make_scenario(
    kind: str,
    data: Sequence[Sequence[float]],
    rate: float,
    horizon: float,
    seed: int = 0,
    *,
    burst_factor: float = 4.0,
    clients: int = 8,
    think_time: float = 0.05,
    queries_per_client: int = 8,
    class_weights: Sequence[Tuple[str, float]] = (),
) -> TrafficScenario:
    """Build one of the canonical traffic scenarios.

    :param kind: one of :data:`SCENARIO_KINDS` —

        * ``poisson`` — the paper's open Poisson arrivals;
        * ``bursty`` — MMPP bursts peaking at ``rate`` with a base of
          ``rate / burst_factor``;
        * ``diurnal`` — sinusoidal cycle from ``rate / burst_factor``
          up to ``rate`` over the horizon;
        * ``hotspot`` — Poisson arrivals whose query points concentrate
          on a few hot regions (:func:`hotspot_queries`);
        * ``closed`` — ``clients`` closed-loop users, each issuing
          ``queries_per_client`` queries with exponential think time.

    :param data: data set the query points are drawn from.
    :param rate: peak arrival rate λ (queries/second); ignored for
        ``closed``.
    :param horizon: observation window in simulated seconds; ignored
        for ``closed``.
    :param seed: seeds arrivals, query sampling and class assignment.
    :param burst_factor: peak-to-base ratio for bursty/diurnal.
    :param class_weights: optional ``(name, weight)`` pairs — each
        query draws its priority class from them.
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(
            f"unknown scenario kind {kind!r}; expected one of "
            f"{SCENARIO_KINDS}"
        )
    if kind == "closed":
        if clients <= 0 or queries_per_client <= 0:
            raise ValueError(
                "closed scenarios need positive clients and "
                "queries_per_client"
            )
        count = clients * queries_per_client
        queries = sample_queries(data, count, seed=seed)
        return TrafficScenario(
            name=kind,
            queries=tuple(queries),
            classes=assign_classes(count, class_weights, seed=seed),
            clients=clients,
            think_time=think_time,
            seed=seed,
        )

    if burst_factor < 1.0:
        raise ValueError(
            f"burst_factor must be >= 1, got {burst_factor}"
        )
    if kind == "bursty":
        times = mmpp_trace(
            burst_rate=rate,
            base_rate=rate / burst_factor,
            horizon=horizon,
            seed=seed,
        )
    elif kind == "diurnal":
        times = diurnal_trace(
            base_rate=rate / burst_factor,
            peak_rate=rate,
            horizon=horizon,
            seed=seed,
        )
    else:  # poisson | hotspot
        times = poisson_trace(rate, horizon, seed=seed)
    if not times:
        raise ValueError(
            f"scenario {kind!r} produced no arrivals over "
            f"horizon={horizon} at rate={rate}; widen the window"
        )
    if kind == "hotspot":
        queries = hotspot_queries(data, len(times), seed=seed)
    else:
        queries = sample_queries(data, len(times), seed=seed)
    return scenario_from_arrivals(
        name=kind,
        queries=queries,
        arrival_times=times,
        classes=assign_classes(len(times), class_weights, seed=seed),
        seed=seed,
    )
