"""Fault-aware serving benchmark — ``repro bench-chaos-serving``.

Serves the same bursty (MMPP) traffic as the PR7 serving bench, but on
a mirrored RAID-1 array under a deterministic fault plan (two fail-slow
drives plus a transient read-error floor), and sweeps offered load λ
over two serving stacks:

* ``full-serving`` — the PR7 admission+batching+shedding stack, with
  plain replica failover only (no health tracking, no hedging);
* ``hedged+breakers`` — the same stack plus the tail-tolerance layer:
  a per-drive EWMA/error circuit breaker that routes reads off sick
  replicas, and quantile-delayed hedged reads that re-issue a slow
  read against the mirror and keep whichever finishes first.

A second pair of arms runs at the top load point with one drive
crashing mid-run: ``rebuild`` streams the dead drive's pages back
online (through the same simulated disk + bus resources as foreground
traffic) after a finite repair instant, while ``no-repair`` never gets
the drive back.  The document (default ``BENCH_PR8.json``) records the
p99-vs-load frontier per stack, hedge/breaker counters, and the
rebuild arms' time-to-healthy and foreground-p99 inflation.

Two invariants are enforced at build time:

* at the highest load, ``hedged+breakers`` must *strictly dominate*
  ``full-serving`` on p99 — a tail-tolerance regression cannot
  silently ship a benchmark;
* the ``rebuild`` arm's time-to-healthy must be *strictly shorter*
  than the ``no-repair`` arm's (which, never becoming healthy, is
  capped at its makespan).

Every value is simulated time derived from the seed, so same-seed runs
are byte-identical (``canonical_bytes``; asserted in
``tests/serving/test_chaos_bench.py`` and the chaos-serving-smoke CI
job).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.experiments.setup import build_tree, dataset, make_factory
from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.faults.plan import CrashWindow, FaultPlan, SlowWindow
from repro.faults.policy import RetryPolicy
from repro.perf.bench import canonical_bytes, run_report_envelope, write_bench
from repro.serving.admission import full_serving_policy
from repro.serving.bench import _served_digest
from repro.serving.frontend import ServingResult, serve_scenario
from repro.serving.traffic import make_scenario
from repro.simulation.parameters import SystemParameters

#: Bumped when the document layout changes incompatibly.
CHAOS_SERVING_BENCH_SCHEMA = "repro-chaos-serving-bench/1"

#: Default output file for this PR's trajectory point.
DEFAULT_OUT = "BENCH_PR8.json"

#: Stack names, baseline first (the dominance check runs against it).
STACK_NAMES = ("full-serving", "hedged+breakers")

#: Rebuild-arm names, baseline (no repair) first.
REBUILD_ARMS = ("no-repair", "rebuild")

#: Sweep configurations.  The fail-slow factor and the breaker's
#: latency threshold are calibrated together: healthy replicas sit
#: around 20–40 ms per page under load while an 8× drive climbs past
#: 200 ms, so a 100 ms EWMA threshold trips only the sick drives.
#: ``smoke`` shrinks the sweep to CI size while keeping the top point
#: overloaded and the slow drives genuinely slow.
_CONFIGS = {
    False: dict(
        dataset="gaussian", n=4_000, dims=2, disks=5,
        k=10, horizon=2.0, loads=(50.0, 150.0, 400.0),
        burst_factor=4.0, max_in_flight=10, max_queued=400,
        deadline=0.4, batch_window=0.0005, max_group_pages=32,
        slow_drives=(2, 6), slow_factor=8.0, transient_prob=0.01,
        max_attempts=3, attempt_timeout=0.05,
        latency_threshold=0.1, hedge_quantile=0.95, hedge_min_delay=0.002,
        crash_drive=4, crash_start=0.1, crash_repair=0.4,
        rebuild_rate=400.0, rebuild_batch=8,
    ),
    True: dict(
        dataset="gaussian", n=800, dims=2, disks=4,
        k=8, horizon=1.0, loads=(40.0, 200.0),
        burst_factor=4.0, max_in_flight=6, max_queued=200,
        deadline=0.25, batch_window=0.0005, max_group_pages=32,
        slow_drives=(2, 5), slow_factor=8.0, transient_prob=0.01,
        max_attempts=3, attempt_timeout=0.05,
        latency_threshold=0.1, hedge_quantile=0.95, hedge_min_delay=0.002,
        crash_drive=6, crash_start=0.1, crash_repair=0.3,
        rebuild_rate=400.0, rebuild_batch=8,
    ),
}

_ALGORITHM = "CRSS"


def _fault_plan(config: Dict[str, object], crash_repair=None) -> FaultPlan:
    """The sweep's plan; a crash window is added for the rebuild arms."""
    crashes = ()
    if crash_repair is not None:
        crashes = (
            CrashWindow(
                config["crash_drive"], config["crash_start"], crash_repair
            ),
        )
    horizon_slack = config["horizon"] * 5.0
    return FaultPlan(
        seed=0,
        default_transient_prob=config["transient_prob"],
        crashes=crashes,
        slow_windows=tuple(
            SlowWindow(drive, 0.0, horizon_slack, config["slow_factor"])
            for drive in config["slow_drives"]
        ),
    )


def _tail_policies(config: Dict[str, object]):
    health = HealthPolicy(latency_threshold=config["latency_threshold"])
    hedge = HedgePolicy(
        quantile=config["hedge_quantile"],
        min_delay=config["hedge_min_delay"],
    )
    return health, hedge


def _serve(
    tree,
    scenario,
    config: Dict[str, object],
    seed: int,
    plan: FaultPlan,
    health: Optional[HealthPolicy],
    hedge: Optional[HedgePolicy],
    rebuild: Optional[RebuildPolicy] = None,
) -> ServingResult:
    return serve_scenario(
        tree,
        make_factory(_ALGORITHM, tree, config["k"]),
        scenario,
        policy=full_serving_policy(
            max_in_flight=config["max_in_flight"],
            max_queued=config["max_queued"],
            deadline=config["deadline"],
            batch_window=config["batch_window"],
            max_group_pages=config["max_group_pages"],
        ),
        params=SystemParameters(coalesce=True),
        seed=seed,
        fault_plan=plan,
        retry_policy=RetryPolicy(
            max_attempts=config["max_attempts"],
            attempt_timeout=config["attempt_timeout"],
        ),
        raid="raid1",
        health=health,
        hedge=hedge,
        rebuild=rebuild,
    )


def _point(stack: str, load: float, serving: ServingResult) -> Dict[str, object]:
    section = serving.serving_section()
    point: Dict[str, object] = {
        "stack": stack,
        "offered_load": load,
        "offered": len(serving.queries),
        **serving.outcome_counts(),
        "latency_mean_s": section["latency"]["mean"],
        "latency_p50_s": section["latency"]["p50"],
        "latency_p95_s": section["latency"]["p95"],
        "latency_p99_s": section["latency"]["p99"],
        "latency_max_s": section["latency"]["max"],
        "goodput_qps": serving.goodput,
        "makespan_s": serving.result.makespan,
        "failovers": serving.result.total_failovers,
        "certificates": section["certificates"]["count"],
        "served_digest": _served_digest(serving),
    }
    if serving.health is not None:
        point["breaker_opens"] = serving.health["opens"]
        point["breaker_closes"] = serving.health["closes"]
        point["open_drives"] = serving.health["open_drives"]
    if serving.hedge is not None:
        point["hedges_issued"] = serving.hedge["issued"]
        point["hedges_won"] = serving.hedge["won"]
        point["hedges_cancelled"] = serving.hedge["cancelled"]
        point["wasted_reads"] = serving.hedge["wasted_reads"]
    return point


def run_chaos_serving_bench(
    smoke: bool = False, seed: int = 0
) -> Dict[str, object]:
    """Run the stack × load sweep + rebuild arms; returns the document."""
    config = dict(_CONFIGS[smoke])
    config["loads"] = list(config["loads"])  # JSON-native document
    config["slow_drives"] = list(config["slow_drives"])
    data = dataset(config["dataset"], config["n"], config["dims"], seed=seed)
    tree = build_tree(
        config["dataset"], config["n"], config["dims"],
        config["disks"], seed=seed,
    )
    plan = _fault_plan(config)
    health, hedge = _tail_policies(config)

    points: List[Dict[str, object]] = []
    for load in config["loads"]:
        scenario = make_scenario(
            "bursty",
            data,
            rate=load,
            horizon=config["horizon"],
            seed=seed + 1,
            burst_factor=config["burst_factor"],
        )
        points.append(
            _point(
                "full-serving",
                load,
                _serve(tree, scenario, config, seed, plan, None, None),
            )
        )
        points.append(
            _point(
                "hedged+breakers",
                load,
                _serve(tree, scenario, config, seed, plan, health, hedge),
            )
        )

    frontier = {
        stack: [
            [point["offered_load"], point["latency_p99_s"]]
            for point in points
            if point["stack"] == stack
        ]
        for stack in STACK_NAMES
    }

    top_load = max(config["loads"])

    def _at_top(stack: str) -> Dict[str, object]:
        return next(
            p
            for p in points
            if p["stack"] == stack and p["offered_load"] == top_load
        )

    baseline = _at_top(STACK_NAMES[0])
    hedged = _at_top(STACK_NAMES[1])
    if hedged["latency_p99_s"] >= baseline["latency_p99_s"]:
        raise RuntimeError(
            f"hedged+breakers does not dominate full-serving at "
            f"λ={top_load}: p99 {hedged['latency_p99_s']:.4f} >= "
            f"{baseline['latency_p99_s']:.4f}"
        )

    # Rebuild arms: same top-load traffic, plus one drive crashing at
    # crash_start.  ``no-repair`` never gets it back (repair=inf), so
    # its time-to-healthy is capped at the run's makespan; ``rebuild``
    # repairs at crash_repair and streams the pages back online.
    top_scenario = make_scenario(
        "bursty",
        data,
        rate=top_load,
        horizon=config["horizon"],
        seed=seed + 1,
        burst_factor=config["burst_factor"],
    )
    rebuild_points: Dict[str, Dict[str, object]] = {}
    for arm in REBUILD_ARMS:
        repairs = math.inf if arm == "no-repair" else config["crash_repair"]
        policy = (
            None
            if arm == "no-repair"
            else RebuildPolicy(
                rate=config["rebuild_rate"],
                batch_pages=config["rebuild_batch"],
            )
        )
        serving = _serve(
            tree,
            top_scenario,
            config,
            seed,
            _fault_plan(config, crash_repair=repairs),
            health,
            hedge,
            rebuild=policy,
        )
        point = _point(arm, top_load, serving)
        if serving.rebuild is not None:
            point["rebuild_completed"] = serving.rebuild["completed"]
            point["rebuild_pages"] = serving.rebuild["pages_streamed"]
            point["rebuild_duration_s"] = serving.rebuild["duration"]
            point["time_to_healthy_s"] = serving.rebuild["time_to_healthy"]
        else:
            # The drive never recovers: unavailable from the crash to
            # the end of the run.
            point["time_to_healthy_s"] = (
                serving.result.makespan - config["crash_start"]
            )
        point["shed_during_rebuild"] = serving.rebuild_shed
        rebuild_points[arm] = point

    if (
        rebuild_points["rebuild"]["time_to_healthy_s"]
        >= rebuild_points["no-repair"]["time_to_healthy_s"]
    ):
        raise RuntimeError(
            f"online rebuild does not beat no-repair on time-to-healthy: "
            f"{rebuild_points['rebuild']['time_to_healthy_s']:.4f} >= "
            f"{rebuild_points['no-repair']['time_to_healthy_s']:.4f}"
        )

    dominance = {
        "offered_load": top_load,
        "p99_ratio": hedged["latency_p99_s"] / baseline["latency_p99_s"],
        "goodput_ratio": hedged["goodput_qps"] / baseline["goodput_qps"],
        "time_to_healthy_ratio": (
            rebuild_points["rebuild"]["time_to_healthy_s"]
            / rebuild_points["no-repair"]["time_to_healthy_s"]
        ),
        "foreground_p99_inflation": (
            rebuild_points["rebuild"]["latency_p99_s"]
            / rebuild_points["no-repair"]["latency_p99_s"]
        ),
    }

    return {
        "schema": CHAOS_SERVING_BENCH_SCHEMA,
        "label": "PR8",
        "smoke": smoke,
        "seed": seed,
        "algorithm": _ALGORITHM,
        "scenario": "bursty",
        "config": config,
        "stacks": list(STACK_NAMES),
        "points": points,
        "frontier_p99_vs_load": frontier,
        "rebuild_arms": rebuild_points,
        "dominance_at_top_load": dominance,
    }


def to_run_report(doc: Dict[str, object]) -> Dict[str, object]:
    """The chaos-serving document as a RunReport envelope for ``diff``."""
    return run_report_envelope(
        "bench-chaos-serving", doc, ("algorithm", "scenario")
    )


def format_summary(doc: Dict[str, object]) -> str:
    """A terminal-friendly summary of a chaos-serving-bench document."""
    config = doc["config"]
    lines = [
        f"{doc['algorithm']} over '{doc['scenario']}' traffic on raid1 "
        f"({config['dataset']} n={config['n']} disks={config['disks']}), "
        f"{len(config['slow_drives'])} fail-slow drive(s) ×"
        f"{config['slow_factor']:g}",
        f"  {'stack':<18} {'λ':>6} {'served':>7} {'shed':>5} "
        f"{'p99 s':>8} {'goodput':>8} {'hedges':>7} {'opens':>6}",
    ]
    for point in doc["points"]:
        served = point["complete"] + point["degraded"]
        lines.append(
            f"  {point['stack']:<18} {point['offered_load']:>6.0f} "
            f"{served:>7} {point['shed']:>5} "
            f"{point['latency_p99_s']:>8.4f} "
            f"{point['goodput_qps']:>8.1f} "
            f"{point.get('hedges_issued', 0):>7} "
            f"{point.get('breaker_opens', 0):>6}"
        )
    lines.append("")
    for arm in REBUILD_ARMS:
        point = doc["rebuild_arms"][arm]
        lines.append(
            f"  {arm:<18} crash@{config['crash_start']:g}s: "
            f"time-to-healthy {point['time_to_healthy_s']:.4f}s, "
            f"p99 {point['latency_p99_s']:.4f}s"
        )
    dom = doc["dominance_at_top_load"]
    lines.append("")
    lines.append(
        f"at λ={dom['offered_load']:.0f}, hedged+breakers vs full-serving: "
        f"p99 ×{dom['p99_ratio']:.3f}, goodput ×{dom['goodput_ratio']:.3f}; "
        f"rebuild vs no-repair: time-to-healthy "
        f"×{dom['time_to_healthy_ratio']:.3f}, "
        f"foreground p99 ×{dom['foreground_p99_inflation']:.3f}"
    )
    return "\n".join(lines)


__all__ = [
    "CHAOS_SERVING_BENCH_SCHEMA",
    "DEFAULT_OUT",
    "REBUILD_ARMS",
    "STACK_NAMES",
    "canonical_bytes",
    "format_summary",
    "run_chaos_serving_bench",
    "to_run_report",
    "write_bench",
]
