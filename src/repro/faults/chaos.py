"""Chaos workload runner: a seeded workload replayed under a fault plan.

:func:`run_chaos` takes the same ingredients as a plain simulated
workload — a placed tree, an algorithm, query points — plus a
:class:`~repro.faults.plan.FaultPlan`, runs the simulation on the
chosen array (RAID-0 striping or RAID-1 mirrored pairs), and distils
the run into a :class:`ChaosReport`: how hard the fault layer worked
(retries, failovers, permanently failed fetches) and how gracefully
queries degraded (partial/aborted counts, the certified-radius
distribution, deadline misses).  Everything is deterministic in the
seeds, so a chaos run is a regression artifact: the CI smoke job
re-runs one and archives the JSON report.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.geometry.point import Point
from repro.simulation.parameters import SystemParameters

if TYPE_CHECKING:
    from repro.serving.frontend import ServingResult
    from repro.simulation.simulator import WorkloadResult


@dataclass
class ChaosReport:
    """Robustness metrics of one chaos run (JSON-serialisable)."""

    algorithm: str
    raid: str
    num_queries: int
    k: int
    seed: int
    deadline: Optional[float]
    #: Timing: the headline latency numbers still hold under faults.
    mean_response: float
    max_response: float
    makespan: float
    #: Fault-layer work.
    retries: int
    fetch_failures: int
    failovers: int
    #: Degradation outcomes.
    complete_queries: int
    partial_queries: int
    aborted_queries: int
    deadline_exceeded_queries: int
    #: Certified radii of the partial queries (finite values only).
    certified_radii: List[float] = field(default_factory=list)
    #: Mean per-query time breakdown, component by component.
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: The fault plan that was injected, summarised.
    plan: Dict[str, object] = field(default_factory=dict)
    #: Tail-tolerance sections (``None`` when the feature was off; the
    #: keys are then absent from :meth:`as_dict`, so pre-PR8 chaos
    #: reports stay byte-identical).
    health: Optional[Dict[str, object]] = None
    hedge: Optional[Dict[str, object]] = None
    rebuild: Optional[Dict[str, object]] = None
    #: The served run's workload result, for a full RunReport of the
    #: same run (never serialised).
    result: Optional[WorkloadResult] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_served(
        cls,
        served: ServingResult,
        *,
        algorithm: str,
        raid: str,
        k: int,
        seed: int,
        deadline: Optional[float],
        plan: FaultPlan,
    ) -> "ChaosReport":
        """Distil one served run (see :func:`run_chaos`).

        The health section closes open-breaker time at the makespan,
        not at the run's last event as ``served.health`` does.
        """
        result = served.result
        monitor = served.system.health
        return cls(
            algorithm=algorithm,
            raid=raid,
            num_queries=len(result.records),
            k=k,
            seed=seed,
            deadline=deadline,
            mean_response=result.mean_response,
            max_response=result.max_response,
            makespan=result.makespan,
            retries=result.total_retries,
            fetch_failures=result.total_fetch_failures,
            failovers=result.total_failovers,
            complete_queries=len(result.records) - result.partial_queries,
            partial_queries=result.partial_queries,
            aborted_queries=result.aborted_queries,
            deadline_exceeded_queries=result.deadline_exceeded_queries,
            certified_radii=result.certified_radii,
            breakdown=result.breakdown.as_dict(),
            plan=_plan_summary(plan),
            health=(
                monitor.describe(result.makespan)
                if monitor is not None
                else None
            ),
            hedge=served.hedge,
            rebuild=served.rebuild,
            result=result,
        )

    @property
    def certified_radius_stats(self) -> Dict[str, float]:
        """Min / mean / max of the certified-radius distribution."""
        if not self.certified_radii:
            return {"count": 0}
        return {
            "count": len(self.certified_radii),
            "min": min(self.certified_radii),
            "mean": statistics.fmean(self.certified_radii),
            "max": max(self.certified_radii),
        }

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict rendering for JSON export: every field but
        ``result``, the radii as their stats, and a tail section only
        when its feature was on."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        del doc["result"], doc["certified_radii"]
        doc["certified_radius"] = self.certified_radius_stats
        for key in ("health", "hedge", "rebuild"):
            if doc[key] is None:
                del doc[key]
        return doc

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """A short human-readable rendering for the CLI."""
        lines = [
            f"chaos: {self.algorithm} on {self.raid}, "
            f"{self.num_queries} queries, k={self.k}, seed={self.seed}",
            f"  responses : mean {self.mean_response:.4f} s, "
            f"max {self.max_response:.4f} s "
            f"(makespan {self.makespan:.4f} s)",
            f"  fault work: {self.retries} retries, "
            f"{self.fetch_failures} failed fetches, "
            f"{self.failovers} failovers",
            f"  degraded  : {self.partial_queries} partial "
            f"({self.aborted_queries} aborted), "
            f"{self.deadline_exceeded_queries} past deadline, "
            f"{self.complete_queries} complete",
        ]
        stats = self.certified_radius_stats
        if stats["count"]:
            lines.append(
                f"  certified : radius min {stats['min']:.4f} / "
                f"mean {stats['mean']:.4f} / max {stats['max']:.4f} "
                f"over {stats['count']} partial queries"
            )
        if self.health is not None:
            lines.append(
                f"  health    : {self.health['opens']} breaker opens, "
                f"{self.health['closes']} closes, "
                f"{self.health['ejected']} ejections, "
                f"{self.health['open_drives']} drive(s) still open"
            )
        if self.hedge is not None:
            lines.append(
                f"  hedging   : {self.hedge['issued']} issued, "
                f"{self.hedge['won']} won, "
                f"{self.hedge['cancelled']} cancelled, "
                f"{self.hedge['wasted_reads']} wasted reads"
            )
        if self.rebuild is not None:
            lines.append(
                f"  rebuild   : {self.rebuild['completed']} completed "
                f"({self.rebuild['pages_streamed']:.0f} pages), "
                f"time-to-healthy {self.rebuild['time_to_healthy']:.4f} s"
            )
        return "\n".join(lines)


def _plan_summary(plan: FaultPlan) -> Dict[str, object]:
    """The plan's ingredients, flattened for the JSON report."""
    return {
        "seed": plan.seed,
        "default_transient_prob": plan.default_transient_prob,
        "transient_prob": {
            str(disk): prob for disk, prob in sorted(plan.transient_prob.items())
        },
        "crashes": [
            {
                "disk": w.disk_id,
                "start": w.start,
                "repair": None if math.isinf(w.repair) else w.repair,
            }
            for w in plan.crashes
        ],
        "slow_windows": [
            {
                "disk": w.disk_id,
                "start": w.start,
                "end": w.end,
                "factor": w.factor,
            }
            for w in plan.slow_windows
        ],
    }


def run_chaos(
    tree,
    algorithm: str,
    queries: Sequence[Point],
    k: int = 10,
    raid: str = "raid0",
    arrival_rate: Optional[float] = None,
    params: Optional[SystemParameters] = None,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    deadline: Optional[float] = None,
    metrics=None,
    timeline=None,
    explain=None,
    health=None,
    hedge=None,
    rebuild=None,
) -> ChaosReport:
    """Replay a seeded workload under a fault plan and report robustness.

    :param tree: a placed tree (the RAID-1 run mirrors its logical
        disks; fault-plan disk ids then address physical drives,
        ``logical * 2 + replica``).
    :param algorithm: search algorithm name (``BBSS``/``FPSS``/``CRSS``/
        ``WOPTSS``, case-insensitive).
    :param queries: the query points, issued in order.
    :param k: neighbors per query.
    :param raid: ``"raid0"`` (striped, the paper's model) or
        ``"raid1"`` (mirrored pairs with failover).
    :param arrival_rate: Poisson λ, or ``None`` for single-user serial.
    :param seed: seeds arrivals and rotational latencies.
    :param fault_plan: what goes wrong when (default: nothing — but the
        retry machinery still runs, so a no-fault chaos run is a
        control).
    :param retry_policy: retry/timeout/backoff policy (default:
        :class:`~repro.faults.policy.RetryPolicy`'s defaults).
    :param deadline: optional per-query deadline in simulated seconds.
    :param explain: optional
        :class:`~repro.obs.explain.WorkloadExplain` collector; every
        query's algorithm gets a per-query decision recorder attached
        (bit-identity-neutral — answers and timings are unchanged).
    :param params / metrics / timeline / health / hedge / rebuild:
        passed to :func:`~repro.serving.frontend.serve_scenario` as
        they are (see there).
    :returns: the distilled :class:`ChaosReport`; its ``result`` field
        holds the workload result (never serialised) so callers can
        build a full RunReport from the same run.
    """
    # Imported here: the serving layer pulls in the whole simulation
    # stack, and `repro.faults` must stay importable on its own.
    from repro.experiments.setup import make_factory
    from repro.serving import (
        no_admission_policy,
        serve_scenario,
        workload_scenario,
    )

    name = algorithm.strip().upper()
    factory = make_factory(name, tree, k)
    if explain is not None:
        factory = explain.attach(factory)
    plan = fault_plan if fault_plan is not None else FaultPlan(seed=seed)
    retry = retry_policy if retry_policy is not None else RetryPolicy()
    served = serve_scenario(
        tree, factory, workload_scenario(queries, arrival_rate, seed),
        policy=no_admission_policy(deadline), params=params, seed=seed,
        metrics=metrics, timeline=timeline, fault_plan=plan,
        retry_policy=retry, raid=raid, health=health, hedge=hedge,
        rebuild=rebuild,
    )
    return ChaosReport.from_served(
        served, algorithm=name, raid=raid, k=k, seed=seed,
        deadline=deadline, plan=plan,
    )
