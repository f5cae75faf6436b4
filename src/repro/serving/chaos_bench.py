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
the drive back.  The document (``BENCH_PR8.json``) records the
p99-vs-load frontier per stack, hedge/breaker counters, and the
rebuild arms' time-to-healthy and foreground-p99 inflation.

The run raises unless, at the highest load, ``hedged+breakers`` is
*strictly below* ``full-serving`` on p99, and unless the ``rebuild``
arm's time-to-healthy is strictly below the ``no-repair`` arm's (which,
never becoming healthy, is capped at its makespan).  Every value is
simulated time derived from the seed.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.experiments.setup import make_factory
from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.faults.plan import CrashWindow, FaultPlan, SlowWindow
from repro.faults.policy import RetryPolicy
from repro.perf.sweep import (  # canonical_bytes, write_bench: re-exported
    at_load,
    canonical_bytes,
    frontier,
    json_config,
    run_report_envelope,
    setup,
    strictly_below,
    write_bench,
)
from repro.serving.bench import (
    CONFIGS as SERVING_CONFIGS,
    bursty_scenario,
    serving_point,
    serving_policy,
)
from repro.serving.frontend import ServingResult, serve_scenario
from repro.simulation.parameters import SystemParameters

#: Bumped when the document layout changes incompatibly.
CHAOS_SERVING_BENCH_SCHEMA = "repro-chaos-serving-bench/1"

#: Stack names, baseline first (the dominance check runs against it).
STACK_NAMES = ("full-serving", "hedged+breakers")

#: Rebuild-arm names, baseline (no repair) first.
REBUILD_ARMS = ("no-repair", "rebuild")

#: The fault plan and tail-tolerance keys both sweep sizes share.
_FAULT_KEYS = dict(
    slow_factor=8.0, transient_prob=0.01,
    max_attempts=3, attempt_timeout=0.05,
    latency_threshold=0.1, hedge_quantile=0.95, hedge_min_delay=0.002,
    crash_start=0.1, rebuild_rate=400.0, rebuild_batch=8,
)

#: Sweep configurations: the serving bench's, plus the fault keys.  The
#: fail-slow factor and the breaker's latency threshold are calibrated
#: together: healthy replicas sit around 20–40 ms per page under load
#: while an 8× drive climbs past 200 ms, so a 100 ms EWMA threshold
#: trips only the sick drives.  ``smoke`` keeps the top point
#: overloaded and the slow drives genuinely slow.
_CONFIGS = {
    False: dict(
        SERVING_CONFIGS[False], **_FAULT_KEYS,
        slow_drives=(2, 6), crash_drive=4, crash_repair=0.4,
    ),
    True: dict(
        SERVING_CONFIGS[True], **_FAULT_KEYS,
        slow_drives=(2, 5), crash_drive=6, crash_repair=0.3,
    ),
}

_ALGORITHM = "CRSS"


def _serve(
    tree, scenario, config: Dict[str, object], seed: int, arm: str
) -> ServingResult:
    """One arm: the full serving stack on RAID-1 under the fault plan.

    Every arm but ``full-serving`` adds the breakers and hedged reads.
    The rebuild arms add a crash of ``crash_drive`` at ``crash_start``:
    ``rebuild`` repairs it at ``crash_repair`` and streams the pages
    back online, ``no-repair`` never gets the drive back.
    """
    tail = arm != "full-serving"
    crashes = ()
    if arm in REBUILD_ARMS:
        repair = config["crash_repair"] if arm == "rebuild" else math.inf
        crashes = (
            CrashWindow(config["crash_drive"], config["crash_start"], repair),
        )
    plan = FaultPlan(
        seed=0,
        default_transient_prob=config["transient_prob"],
        crashes=crashes,
        slow_windows=tuple(
            SlowWindow(drive, 0.0, config["horizon"] * 5.0,
                       config["slow_factor"])
            for drive in config["slow_drives"]
        ),
    )
    return serve_scenario(
        tree,
        make_factory(_ALGORITHM, tree, config["k"]),
        scenario,
        policy=serving_policy("admission+batching+shedding", config),
        params=SystemParameters(coalesce=True),
        seed=seed,
        fault_plan=plan,
        retry_policy=RetryPolicy(
            max_attempts=config["max_attempts"],
            attempt_timeout=config["attempt_timeout"],
        ),
        raid="raid1",
        health=(
            HealthPolicy(latency_threshold=config["latency_threshold"])
            if tail else None
        ),
        hedge=(
            HedgePolicy(
                quantile=config["hedge_quantile"],
                min_delay=config["hedge_min_delay"],
            )
            if tail else None
        ),
        rebuild=(
            RebuildPolicy(
                rate=config["rebuild_rate"],
                batch_pages=config["rebuild_batch"],
            )
            if arm == "rebuild" else None
        ),
    )


def _point(stack: str, load: float, serving: ServingResult) -> Dict[str, object]:
    point: Dict[str, object] = {
        "stack": stack,
        "offered_load": load,
        **serving_point(serving),
        "failovers": serving.result.total_failovers,
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
    config = json_config(_CONFIGS[smoke])
    data, tree = setup(config, seed)
    points = []
    for load in config["loads"]:
        scenario = bursty_scenario(data, load, config, seed)
        points += [
            _point(stack, load, _serve(tree, scenario, config, seed, stack))
            for stack in STACK_NAMES
        ]
    top_load = max(config["loads"])
    baseline = at_load(points, "stack", STACK_NAMES[0], top_load)
    hedged = at_load(points, "stack", STACK_NAMES[1], top_load)
    p99_ratio = strictly_below(
        hedged, baseline, "latency_p99_s",
        f"hedged+breakers beats full-serving at λ={top_load}",
    )

    # Rebuild arms: the top-load traffic with one drive crashing.
    top_scenario = bursty_scenario(data, top_load, config, seed)
    rebuild_points: Dict[str, Dict[str, object]] = {}
    for arm in REBUILD_ARMS:
        serving = _serve(tree, top_scenario, config, seed, arm)
        point = _point(arm, top_load, serving)
        if serving.rebuild is not None:
            point["rebuild_completed"] = serving.rebuild["completed"]
            point["rebuild_pages"] = serving.rebuild["pages_streamed"]
            point["rebuild_duration_s"] = serving.rebuild["duration"]
            point["time_to_healthy_s"] = serving.rebuild["time_to_healthy"]
        else:
            # The drive never recovers: unavailable from the crash to
            # the end of the run, so time-to-healthy is capped there.
            point["time_to_healthy_s"] = (
                serving.result.makespan - config["crash_start"]
            )
        point["shed_during_rebuild"] = serving.rebuild_shed
        rebuild_points[arm] = point
    repaired = rebuild_points["rebuild"]
    unrepaired = rebuild_points["no-repair"]

    dominance = {
        "offered_load": top_load,
        "p99_ratio": p99_ratio,
        "goodput_ratio": hedged["goodput_qps"] / baseline["goodput_qps"],
        "time_to_healthy_ratio": strictly_below(
            repaired, unrepaired, "time_to_healthy_s",
            "online rebuild beats no-repair",
        ),
        "foreground_p99_inflation": (
            repaired["latency_p99_s"] / unrepaired["latency_p99_s"]
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
        "frontier_p99_vs_load": frontier(points, "stack", STACK_NAMES),
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

