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

The document (default ``BENCH_PR7.json``) records the **p99-vs-offered-
load frontier** per policy plus goodput, outcome counts and the
transactions-per-page batching headline.  Two invariants are enforced
at build time:

* at the highest load, the full stack must *strictly dominate*
  no-admission on p99 **and** on transactions per delivered page —
  a serving-layer regression cannot silently ship a benchmark;
* every value is simulated time derived from the seed, so same-seed
  runs are byte-identical (``canonical_bytes``; asserted in
  ``tests/serving/test_serving_bench.py`` and by the serving-smoke CI
  job).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.experiments.setup import build_tree, dataset, make_factory
from repro.perf.bench import canonical_bytes, run_report_envelope, write_bench
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

#: Default output file for this PR's trajectory point.
DEFAULT_OUT = "BENCH_PR7.json"

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
_CONFIGS = {
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


def _policy_for(name: str, config: Dict[str, object]) -> ServingPolicy:
    if name == "no-admission":
        return no_admission_policy()
    if name == "admission-only":
        return admission_only_policy(
            max_in_flight=config["max_in_flight"],
            max_queued=config["max_queued"],
            deadline=config["deadline"],
        )
    if name == "admission+batching+shedding":
        return full_serving_policy(
            max_in_flight=config["max_in_flight"],
            max_queued=config["max_queued"],
            deadline=config["deadline"],
            batch_window=config["batch_window"],
            max_group_pages=config["max_group_pages"],
        )
    raise ValueError(f"unknown policy {name!r}")


def _served_digest(serving: ServingResult) -> str:
    """Stable hash over every offered query's outcome and answers."""
    digest = hashlib.sha256()
    for query in serving.queries:
        digest.update(f"{query.qid}:{query.outcome}:".encode())
        for neighbor in query.answers:
            digest.update(f"{neighbor.oid}:{neighbor.distance!r};".encode())
        digest.update(b"|")
    return digest.hexdigest()


def _run_point(
    policy_name: str, load: float, tree, scenario, config, seed: int
) -> Dict[str, object]:
    params = SystemParameters(coalesce=True)
    serving = serve_scenario(
        tree,
        make_factory(_ALGORITHM, tree, config["k"]),
        scenario,
        policy=_policy_for(policy_name, config),
        params=params,
        seed=seed,
    )
    section = serving.serving_section()
    counts = serving.outcome_counts()
    return {
        "policy": policy_name,
        "offered_load": load,
        "offered": len(serving.queries),
        **counts,
        "latency_mean_s": section["latency"]["mean"],
        "latency_p50_s": section["latency"]["p50"],
        "latency_p95_s": section["latency"]["p95"],
        "latency_p99_s": section["latency"]["p99"],
        "latency_max_s": section["latency"]["max"],
        "admission_wait_mean_s": section["admission_wait"]["mean"],
        "admission_wait_max_s": section["admission_wait"]["max"],
        "goodput_qps": serving.goodput,
        "makespan_s": serving.result.makespan,
        "transactions": sum(serving.result.disk_requests),
        "logical_pages": serving.logical_pages,
        "physical_pages": serving.physical_pages,
        "transactions_per_page": serving.transactions_per_page,
        "peak_in_flight": serving.peak_in_flight,
        "peak_queued": serving.peak_queued,
        "certificates": section["certificates"]["count"],
        "served_digest": _served_digest(serving),
    }


def run_serving_bench(
    smoke: bool = False, seed: int = 0
) -> Dict[str, object]:
    """Run the full policy × load sweep; returns the JSON document."""
    config = dict(_CONFIGS[smoke])
    config["loads"] = list(config["loads"])  # JSON-native document
    data = dataset(config["dataset"], config["n"], config["dims"], seed=seed)
    tree = build_tree(
        config["dataset"], config["n"], config["dims"],
        config["disks"], seed=seed,
    )

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
        for policy_name in POLICY_NAMES:
            points.append(
                _run_point(policy_name, load, tree, scenario, config, seed)
            )

    frontier = {
        policy_name: [
            [point["offered_load"], point["latency_p99_s"]]
            for point in points
            if point["policy"] == policy_name
        ]
        for policy_name in POLICY_NAMES
    }

    top_load = max(config["loads"])

    def _at_top(policy_name: str) -> Dict[str, object]:
        return next(
            p
            for p in points
            if p["policy"] == policy_name and p["offered_load"] == top_load
        )

    baseline = _at_top(POLICY_NAMES[0])
    full = _at_top(POLICY_NAMES[2])
    dominance = {
        "offered_load": top_load,
        "p99_ratio": full["latency_p99_s"] / baseline["latency_p99_s"],
        "transactions_per_page_ratio": (
            full["transactions_per_page"]
            / baseline["transactions_per_page"]
        ),
    }
    if full["latency_p99_s"] >= baseline["latency_p99_s"]:
        raise RuntimeError(
            f"admission+batching+shedding does not dominate no-admission "
            f"at λ={top_load}: p99 {full['latency_p99_s']:.4f} >= "
            f"{baseline['latency_p99_s']:.4f}"
        )
    if full["transactions_per_page"] >= baseline["transactions_per_page"]:
        raise RuntimeError(
            f"cross-query batching does not reduce transactions per page "
            f"at λ={top_load}: {full['transactions_per_page']:.4f} >= "
            f"{baseline['transactions_per_page']:.4f}"
        )

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
        "frontier_p99_vs_load": frontier,
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


__all__ = [
    "DEFAULT_OUT",
    "POLICY_NAMES",
    "SERVING_BENCH_SCHEMA",
    "canonical_bytes",
    "format_summary",
    "run_serving_bench",
    "to_run_report",
    "write_bench",
]
