"""Scheduler-comparison benchmark — ``repro bench-schedulers``.

Runs the paper's multi-user workload (Poisson arrivals, CRSS) once per
queue discipline — FCFS, SSTF, SCAN, C-LOOK, and SSTF with same-disk
request coalescing — on the same seeded tree and query stream, and
writes a JSON document (default ``BENCH_PR4.json``) comparing

* response-time statistics (mean / median / p95) and makespan,
* mean seek distance per disk request (cylinders),
* coalesced multi-page transactions issued,
* an answer digest per variant.

The answer digest must be identical across variants: scheduling only
reorders *service*, never *results*.  The harness raises if any variant
disagrees, so a scheduling bug can't silently ship a benchmark.

Everything in the document is simulated time, reproducible from the
seed — there are no wall-clock values, so two runs with the same seed
produce byte-identical files (enforced by
``tests/perf/test_sched_bench.py``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.datasets import sample_queries
from repro.experiments.setup import build_tree, dataset, make_factory
from repro.obs.report import fold_mean
from repro.perf.bench import (
    _percentile,
    canonical_bytes,
    run_report_envelope,
    write_bench,
)
from repro.simulation import simulate_workload
from repro.simulation.parameters import SystemParameters
from repro.simulation.scheduling import SCHEDULERS

#: Bumped when the document layout changes incompatibly.
SCHED_BENCH_SCHEMA = "repro-sched-bench/1"

#: Default output file for this PR's trajectory point.
DEFAULT_OUT = "BENCH_PR4.json"

#: The benchmark variants: every queue discipline plus coalescing on
#: top of the best seek-aware one.  FCFS first — it is the baseline the
#: improvement table is computed against.
VARIANTS = (
    ("fcfs", "fcfs", False),
    ("sstf", "sstf", False),
    ("scan", "scan", False),
    ("clook", "clook", False),
    ("sstf+coalesce", "sstf", True),
)

#: Workload configurations.  The full size mirrors the paper's
#: multi-user experiment shape (§5.2): a declustered tree under heavy
#: Poisson arrivals so per-disk queues actually build up — an idle
#: queue gives every discipline identical traces.  ``smoke`` shrinks it
#: to CI size.
_CONFIGS = {
    False: dict(
        dataset="gaussian", n=6_000, dims=2, disks=5,
        queries=60, k=10, arrival_rate=30.0,
    ),
    True: dict(
        dataset="gaussian", n=800, dims=2, disks=4,
        queries=15, k=8, arrival_rate=25.0,
    ),
}

_ALGORITHM = "CRSS"


def _answer_digest(result) -> str:
    """A stable hash over per-query answers, in arrival order.

    Records append in *completion* order, which legitimately differs
    across schedulers; arrival order is scheduler-invariant.
    """
    digest = hashlib.sha256()
    for record in sorted(result.records, key=lambda r: r.arrival):
        for neighbor in record.answers:
            digest.update(f"{neighbor.oid}:{neighbor.distance!r};".encode())
        digest.update(b"|")
    return digest.hexdigest()


def _run_variant(
    name: str,
    scheduler: str,
    coalesce: bool,
    tree,
    queries,
    config: Dict[str, object],
    seed: int,
) -> Dict[str, object]:
    params = SystemParameters(scheduler=scheduler, coalesce=coalesce)
    result = simulate_workload(
        tree,
        make_factory(_ALGORITHM, tree, config["k"]),
        queries,
        arrival_rate=config["arrival_rate"],
        params=params,
        seed=seed,
    )
    responses = [r.response_time for r in result.records]
    return {
        "name": name,
        "scheduler": scheduler,
        "coalesce": coalesce,
        "response_mean_s": fold_mean(responses),
        "response_median_s": _percentile(responses, 0.5),
        "response_p95_s": _percentile(responses, 0.95),
        "makespan_s": result.makespan,
        "mean_seek_distance": result.mean_seek_distance,
        "seek_distance_total": sum(result.seek_distances),
        "disk_requests": sum(result.disk_requests),
        "coalesced_fetches": result.coalesced_fetches,
        "pages_fetched": sum(r.pages_fetched for r in result.records),
        "answer_digest": _answer_digest(result),
    }


def run_sched_bench(smoke: bool = False, seed: int = 0) -> Dict[str, object]:
    """Run every scheduler variant; returns the JSON-ready document."""
    config = dict(_CONFIGS[smoke])
    data = dataset(
        config["dataset"], config["n"], config["dims"], seed=seed
    )
    tree = build_tree(
        config["dataset"], config["n"], config["dims"],
        config["disks"], seed=seed,
    )
    queries = sample_queries(data, config["queries"], seed=seed + 1)

    variants: List[Dict[str, object]] = [
        _run_variant(name, scheduler, coalesce, tree, queries, config, seed)
        for name, scheduler, coalesce in VARIANTS
    ]

    digests = {v["answer_digest"] for v in variants}
    if len(digests) != 1:
        raise RuntimeError(
            "scheduler variants disagree on query answers: "
            + ", ".join(f"{v['name']}={v['answer_digest'][:12]}" for v in variants)
        )

    baseline = variants[0]
    improvement = {
        v["name"]: {
            "response_mean_ratio": (
                v["response_mean_s"] / baseline["response_mean_s"]
            ),
            "seek_distance_ratio": (
                v["mean_seek_distance"] / baseline["mean_seek_distance"]
            ),
        }
        for v in variants[1:]
    }

    return {
        "schema": SCHED_BENCH_SCHEMA,
        "label": "PR4",
        "smoke": smoke,
        "seed": seed,
        "algorithm": _ALGORITHM,
        "config": config,
        "schedulers": list(SCHEDULERS),
        "variants": variants,
        "improvement_vs_fcfs": improvement,
    }


def to_run_report(doc: Dict[str, object]) -> Dict[str, object]:
    """The scheduler-bench document as a RunReport envelope.

    Every numeric leaf is already seed-reproducible (the document has
    no wall-clock values — :func:`~repro.perf.bench.canonical_bytes`
    strips nothing from it), so the whole document flattens into the
    envelope's metrics for ``repro diff``.
    """
    return run_report_envelope("bench-schedulers", doc, ("algorithm",))


def format_summary(doc: Dict[str, object]) -> str:
    """A terminal-friendly summary of a scheduler-bench document."""
    config = doc["config"]
    lines = [
        f"{doc['algorithm']} on {config['dataset']} n={config['n']} "
        f"dims={config['dims']} disks={config['disks']} "
        f"k={config['k']} queries={config['queries']} "
        f"λ={config['arrival_rate']}/s",
        f"  {'variant':<14} {'mean s':>8} {'p95 s':>8} "
        f"{'seek/req':>9} {'coalesced':>10}",
    ]
    for variant in doc["variants"]:
        lines.append(
            f"  {variant['name']:<14} {variant['response_mean_s']:>8.4f} "
            f"{variant['response_p95_s']:>8.4f} "
            f"{variant['mean_seek_distance']:>9.1f} "
            f"{variant['coalesced_fetches']:>10}"
        )
    lines.append("")
    lines.append("vs fcfs (ratio < 1 is better):")
    for name, row in doc["improvement_vs_fcfs"].items():
        lines.append(
            f"  {name:<14} response ×{row['response_mean_ratio']:.3f}  "
            f"seek ×{row['seek_distance_ratio']:.3f}"
        )
    return "\n".join(lines)


__all__ = [
    "DEFAULT_OUT",
    "SCHED_BENCH_SCHEMA",
    "VARIANTS",
    "canonical_bytes",
    "format_summary",
    "run_sched_bench",
    "to_run_report",
    "write_bench",
]
