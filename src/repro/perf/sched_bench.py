"""Scheduler-comparison benchmark — ``repro bench-schedulers``.

Runs the paper's multi-user workload (Poisson arrivals, CRSS) once per
queue discipline — FCFS, SSTF, SCAN, C-LOOK, and SSTF with same-disk
request coalescing — on the same seeded tree and query stream, and
writes a JSON document (``BENCH_PR4.json``) comparing

* response-time statistics (mean / median / p95) and makespan,
* mean seek distance per disk request (cylinders),
* coalesced multi-page transactions issued,
* an answer digest per variant.

The answer digest must be identical across variants: scheduling only
reorders *service*, never *results*, so the run raises if any variant
disagrees.  Every value is simulated time, reproducible from the seed.
"""

from __future__ import annotations

from typing import Dict

from repro.datasets import sample_queries
from repro.experiments.setup import make_factory
from repro.obs.report import fold_mean, percentile
from repro.perf.sweep import (  # canonical_bytes, write_bench: re-exported
    agree,
    answer_digest,
    canonical_bytes,
    json_config,
    run_report_envelope,
    setup,
    write_bench,
)
from repro.simulation import simulate_workload
from repro.simulation.parameters import SystemParameters
from repro.simulation.scheduling import SCHEDULERS

#: Bumped when the document layout changes incompatibly.
SCHED_BENCH_SCHEMA = "repro-sched-bench/1"

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
        "response_median_s": percentile(responses, 0.5),
        "response_p95_s": percentile(responses, 0.95),
        "makespan_s": result.makespan,
        "mean_seek_distance": result.mean_seek_distance,
        "seek_distance_total": sum(result.seek_distances),
        "disk_requests": sum(result.disk_requests),
        "coalesced_fetches": result.coalesced_fetches,
        "pages_fetched": sum(r.pages_fetched for r in result.records),
        # Arrival order: records append in completion order, which
        # legitimately differs across schedulers.
        "answer_digest": answer_digest(
            r.answers for r in sorted(result.records, key=lambda r: r.arrival)
        ),
    }


def run_sched_bench(smoke: bool = False, seed: int = 0) -> Dict[str, object]:
    """Run every scheduler variant; returns the JSON-ready document."""
    config = json_config(_CONFIGS[smoke])
    data, tree = setup(config, seed)
    queries = sample_queries(data, config["queries"], seed=seed + 1)
    variants = [
        _run_variant(name, scheduler, coalesce, tree, queries, config, seed)
        for name, scheduler, coalesce in VARIANTS
    ]
    agree(variants, "answer_digest", "scheduling never changes answers")

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
    """The scheduler-bench document as a RunReport envelope for ``diff``."""
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

