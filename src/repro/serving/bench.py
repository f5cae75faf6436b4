"""Serving-policy benchmark — ``repro bench-serving``.

Sweeps offered load λ over a bursty (MMPP) traffic scenario and runs
three serving policies at every point on the same seeded tree, query
stream and arrivals:

* ``no-admission`` — every arrival starts immediately (the plain
  multi-user baseline; per-query coalescing only);
* ``admission-only`` — bounded concurrency, no batching, no shedding;
* ``admission+batching+shedding`` — the full serving stack: bounded
  concurrency, the cross-query fetch broker, and deadline shedding
  with certified-radius degraded answers.

The document (``BENCH_PR7.json``) records the **p99-vs-offered-load
frontier** per policy plus goodput, outcome counts and the
transactions-per-page batching headline.  At the highest load the full
stack must *strictly dominate* no-admission on p99 **and** on
transactions per delivered page, or the run raises.  Every value is
simulated time derived from the seed.

:func:`serving_policy`, :func:`bursty_scenario` and :func:`serving_point`
are shared with the fault-aware sweep in :mod:`repro.serving.chaos_bench`.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.setup import make_factory
from repro.perf.sweep import (  # canonical_bytes, write_bench: re-exported
    at_load,
    canonical_bytes,
    frontier,
    json_config,
    run_report_envelope,
    served_digest,
    setup,
    strictly_below,
    write_bench,
)
from repro.serving.admission import (
    ServingPolicy,
    admission_only_policy,
    full_serving_policy,
    no_admission_policy,
)
from repro.serving.frontend import ServingResult, serve_scenario
from repro.serving.traffic import make_scenario
from repro.simulation.parameters import SystemParameters

#: Bumped when the document layout changes incompatibly.
SERVING_BENCH_SCHEMA = "repro-serving-bench/1"

#: Policy names, baseline first (the dominance check runs against it).
POLICY_NAMES = (
    "no-admission",
    "admission-only",
    "admission+batching+shedding",
)

#: Sweep configurations.  The full size pushes the highest load point
#: well past the array's service capacity so the frontier actually
#: bends; ``smoke`` shrinks it to CI size while keeping the top point
#: overloaded.
CONFIGS = {
    False: dict(
        dataset="gaussian", n=4_000, dims=2, disks=5,
        k=10, horizon=2.0, loads=(50.0, 150.0, 400.0),
        burst_factor=4.0, max_in_flight=10, max_queued=400,
        deadline=0.4, batch_window=0.0005, max_group_pages=32,
    ),
    True: dict(
        dataset="gaussian", n=800, dims=2, disks=4,
        k=8, horizon=1.0, loads=(40.0, 200.0),
        burst_factor=4.0, max_in_flight=6, max_queued=200,
        deadline=0.25, batch_window=0.0005, max_group_pages=32,
    ),
}

_ALGORITHM = "CRSS"


def serving_policy(name: str, config: Dict[str, object]) -> ServingPolicy:
    """The serving policy *name*, sized by the sweep's *config*."""
    bounds = dict(
        max_in_flight=config["max_in_flight"],
        max_queued=config["max_queued"],
        deadline=config["deadline"],
    )
    if name == "no-admission":
        return no_admission_policy()
    if name == "admission-only":
        return admission_only_policy(**bounds)
    if name == "admission+batching+shedding":
        return full_serving_policy(
            **bounds,
            batch_window=config["batch_window"],
            max_group_pages=config["max_group_pages"],
        )
    raise ValueError(f"unknown policy {name!r}")


def bursty_scenario(data, load: float, config: Dict[str, object], seed: int):
    """The sweep's MMPP traffic at offered load *load*."""
    return make_scenario(
        "bursty",
        data,
        rate=load,
        horizon=config["horizon"],
        seed=seed + 1,
        burst_factor=config["burst_factor"],
    )


def serving_point(serving: ServingResult) -> Dict[str, object]:
    """The row fields every serving sweep records for one run."""
    section = serving.serving_section()
    latency = section["latency"]
    return {
        "offered": len(serving.queries),
        **serving.outcome_counts(),
        "latency_mean_s": latency["mean"],
        "latency_p50_s": latency["p50"],
        "latency_p95_s": latency["p95"],
        "latency_p99_s": latency["p99"],
        "latency_max_s": latency["max"],
        "goodput_qps": serving.goodput,
        "makespan_s": serving.result.makespan,
        "certificates": section["certificates"]["count"],
        "served_digest": served_digest(serving),
    }


def _run_point(
    policy_name: str, load: float, tree, scenario, config, seed: int
) -> Dict[str, object]:
    serving = serve_scenario(
        tree,
        make_factory(_ALGORITHM, tree, config["k"]),
        scenario,
        policy=serving_policy(policy_name, config),
        params=SystemParameters(coalesce=True),
        seed=seed,
    )
    wait = serving.serving_section()["admission_wait"]
    return {
        "policy": policy_name,
        "offered_load": load,
        **serving_point(serving),
        "admission_wait_mean_s": wait["mean"],
        "admission_wait_max_s": wait["max"],
        "transactions": sum(serving.result.disk_requests),
        "logical_pages": serving.logical_pages,
        "physical_pages": serving.physical_pages,
        "transactions_per_page": serving.transactions_per_page,
        "peak_in_flight": serving.peak_in_flight,
        "peak_queued": serving.peak_queued,
    }


def run_serving_bench(
    smoke: bool = False, seed: int = 0
) -> Dict[str, object]:
    """Run the full policy × load sweep; returns the JSON document."""
    config = json_config(CONFIGS[smoke])
    data, tree = setup(config, seed)
    points = []
    for load in config["loads"]:
        scenario = bursty_scenario(data, load, config, seed)
        points += [
            _run_point(name, load, tree, scenario, config, seed)
            for name in POLICY_NAMES
        ]
    top_load = max(config["loads"])
    baseline = at_load(points, "policy", POLICY_NAMES[0], top_load)
    full = at_load(points, "policy", POLICY_NAMES[2], top_load)
    dominance = {
        "offered_load": top_load,
        "p99_ratio": strictly_below(
            full, baseline, "latency_p99_s",
            f"admission+batching+shedding beats no-admission at λ={top_load}",
        ),
        "transactions_per_page_ratio": strictly_below(
            full, baseline, "transactions_per_page",
            f"cross-query batching saves transactions at λ={top_load}",
        ),
    }
    return {
        "schema": SERVING_BENCH_SCHEMA,
        "label": "PR7",
        "smoke": smoke,
        "seed": seed,
        "algorithm": _ALGORITHM,
        "scenario": "bursty",
        "config": config,
        "policies": list(POLICY_NAMES),
        "points": points,
        "frontier_p99_vs_load": frontier(points, "policy", POLICY_NAMES),
        "dominance_at_top_load": dominance,
    }


def to_run_report(doc: Dict[str, object]) -> Dict[str, object]:
    """The serving-bench document as a RunReport envelope for ``diff``."""
    return run_report_envelope(
        "bench-serving", doc, ("algorithm", "scenario")
    )


def format_summary(doc: Dict[str, object]) -> str:
    """A terminal-friendly summary of a serving-bench document."""
    config = doc["config"]
    lines = [
        f"{doc['algorithm']} over '{doc['scenario']}' traffic on "
        f"{config['dataset']} n={config['n']} disks={config['disks']} "
        f"k={config['k']} horizon={config['horizon']}s",
        f"  {'policy':<28} {'λ':>6} {'served':>7} {'shed':>5} "
        f"{'p99 s':>8} {'goodput':>8} {'tx/page':>8}",
    ]
    for point in doc["points"]:
        served = point["complete"] + point["degraded"]
        lines.append(
            f"  {point['policy']:<28} {point['offered_load']:>6.0f} "
            f"{served:>7} {point['shed']:>5} "
            f"{point['latency_p99_s']:>8.4f} "
            f"{point['goodput_qps']:>8.1f} "
            f"{point['transactions_per_page']:>8.3f}"
        )
    dom = doc["dominance_at_top_load"]
    lines.append("")
    lines.append(
        f"at λ={dom['offered_load']:.0f}, full stack vs no-admission: "
        f"p99 ×{dom['p99_ratio']:.3f}, "
        f"tx/page ×{dom['transactions_per_page_ratio']:.3f}"
    )
    return "\n".join(lines)

