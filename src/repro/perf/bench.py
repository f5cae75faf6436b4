"""Reproducible benchmark harness — ``repro bench`` / ``BENCH_*.json``.

One invocation builds fixed seeded trees, runs a fixed query suite and a
fixed simulated workload per algorithm, microbenchmarks the vectorized
node scan against the scalar reference and the flat struct-of-arrays
layout against the pointer tree, and writes everything to a JSON file
(``BENCH_PR9.json``).  The point is a *trajectory*: every future PR
re-runs the harness and appends its own ``BENCH_<PR>.json``, so
regressions and wins are visible across the repository's history.

Everything in the document but its wall-clock measurements is
reproducible from the seed; the document lists their key names under
``nondeterministic_keys``, and :func:`~repro.perf.sweep.canonical_bytes`
strips exactly those (see :mod:`repro.perf.sweep`).
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict

import numpy as np

from repro.core import ALGORITHMS, CountingExecutor
from repro.core.distances import (
    maximum_distance_sq,
    minimum_distance_sq,
    minmax_distance_sq,
)
from repro.core.results import NeighborList
from repro.core.scan import offer_leaf, scan_children
from repro.datasets import sample_queries
from repro.experiments.setup import make_factory
from repro.geometry.rect import Rect
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import fold_mean, percentile
from repro.perf import kernels
from repro.perf.sweep import (  # canonical_bytes, write_bench: re-exported
    NONDETERMINISTIC_KEYS,
    answer_digest,
    canonical_bytes,
    run_report_envelope,
    setup,
    write_bench,
)
from repro.rtree.flat import flatten
from repro.simulation import simulate_workload

#: Bumped when the document layout changes incompatibly.
BENCH_SCHEMA = "repro-bench/1"

#: The query/simulate suite configurations: low- and high-dimensional.
#: ``smoke`` shrinks populations so the harness fits in a CI minute.
_SUITE_CONFIGS = {
    False: [
        dict(dataset="gaussian", n=12_000, dims=2, queries=20),
        dict(dataset="gaussian", n=8_000, dims=10, queries=10),
    ],
    True: [
        dict(dataset="gaussian", n=1_500, dims=2, queries=4),
        dict(dataset="gaussian", n=1_000, dims=10, queries=3),
    ],
}

_DISKS = 10
_K = 10
_ARRIVAL_RATE = 8.0

#: Tree sizes swept by the flat-vs-pointer layout microbench.
_LAYOUT_CONFIGS = {
    False: [
        dict(n=2_000, dims=2),
        dict(n=8_000, dims=2),
        dict(n=8_000, dims=10),
    ],
    True: [
        dict(n=1_000, dims=2),
        dict(n=2_000, dims=2),
    ],
}


def _run_algorithm_suite(
    name: str, tree, queries, seed: int
) -> Dict[str, object]:
    """One algorithm's counted query suite plus its simulated workload."""
    registry = MetricsRegistry()
    previous = kernels.instrument_kernels(registry)
    try:
        executor = CountingExecutor(tree)
        factory = make_factory(name, tree, _K)
        answer_sets = []
        pages = rounds = critical_path = 0
        start = time.perf_counter()
        for query in queries:
            answer_sets.append(executor.execute(factory(query)))
            stats = executor.last_stats
            pages += stats.nodes_visited
            rounds += stats.rounds
            critical_path += stats.critical_path
        wall = time.perf_counter() - start

        workload = simulate_workload(
            tree, factory, queries, arrival_rate=_ARRIVAL_RATE, seed=seed
        )
        responses = [r.response_time for r in workload.records]
    finally:
        kernels.instrument_kernels(previous)

    kernel_counters = {
        counter.name: counter.value for counter in registry
    }
    return {
        "pages_fetched": pages,
        "rounds": rounds,
        "critical_path": critical_path,
        "mean_parallelism": pages / rounds if rounds else 0.0,
        "answer_digest": answer_digest(answer_sets),
        "kernel_counters": kernel_counters,
        "wall_time_s": wall,
        "wall_time_per_query_s": wall / len(queries),
        "simulate": {
            "arrival_rate": _ARRIVAL_RATE,
            "makespan_s": workload.makespan,
            "response_mean_s": fold_mean(responses),
            "response_p95_s": percentile(responses, 0.95),
            "pages_fetched": sum(r.pages_fetched for r in workload.records),
            "buffer_hits": sum(r.buffer_hits for r in workload.records),
        },
    }


def _best_of(
    fn: Callable[[], None], repeats: int, inner_loops: int = 1
) -> float:
    """Best-of-*repeats* wall time of one call, each repeat averaged over
    *inner_loops* calls."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner_loops):
            fn()
        best = min(best, (time.perf_counter() - start) / inner_loops)
    return best


def _microbench_case(
    dims: int, entries: int, seed: int, repeats: int = 5
) -> Dict[str, float]:
    """Time one full node scan (Dmin + Dmm + Dmax over all entries).

    The vectorized side runs the batch kernels over prebuilt corner
    matrices — exactly what a node scan costs once
    :meth:`~repro.rtree.node.Node.entry_bounds` is cached.  The scalar
    side is the per-entry reference loop the algorithms used to run.
    """
    rng = np.random.default_rng(seed)
    centers = rng.random((entries, dims))
    half = rng.random((entries, dims)) * 0.05
    lows = centers - half
    highs = centers + half
    query = tuple(rng.random(dims).tolist())
    rects = [
        Rect(tuple(lo), tuple(hi))
        for lo, hi in zip(lows.tolist(), highs.tolist())
    ]

    def scalar_scan() -> None:
        for rect in rects:
            minimum_distance_sq(query, rect)
            minmax_distance_sq(query, rect)
            maximum_distance_sq(query, rect)

    def vectorized_scan() -> None:
        kernels.batch_minimum_distance_sq(query, lows, highs)
        kernels.batch_minmax_distance_sq(query, lows, highs)
        kernels.batch_maximum_distance_sq(query, lows, highs)

    scalar_s = _best_of(scalar_scan, repeats)
    vectorized_s = _best_of(vectorized_scan, repeats, inner_loops=10)
    return {
        "dims": dims,
        "entries": entries,
        "scalar_s": scalar_s,
        "vectorized_s": vectorized_s,
        "speedup": scalar_s / vectorized_s if vectorized_s else math.inf,
    }


def run_microbench(
    smoke: bool = False, seed: int = 0
) -> Dict[str, Dict[str, float]]:
    """The node-scan microbenchmark across dimensionalities."""
    entries = 512 if smoke else 2048
    return {
        str(dims): _microbench_case(dims, entries, seed + dims)
        for dims in (2, 10, 20)
    }


def _whole_tree_scan(query, nodes) -> None:
    """One sweep of the search hot path over every node of a tree.

    Each node is scanned as a round of one (as BBSS does): internal
    nodes get the full three-metric batch scan, leaves feed a running
    neighbor list — the per-page work of the four algorithms minus
    traversal logic and round batching, so the pointer/flat difference
    isolates the storage layout.
    """
    neighbors = NeighborList(query, _K)
    for node in nodes:
        if node.is_leaf:
            offer_leaf(query, [node], neighbors)
        else:
            scan_children(query, [node], want_dmm=True, want_dmax=True)


def _layout_microbench_case(
    n: int, dims: int, seed: int, repeats: int = 5
) -> Dict[str, float]:
    """Time the whole-tree scan on the pointer tree vs. its flat freeze.

    Both sides run the same vectorized kernels and the same block offer
    for leaves; the difference under measurement is pure storage layout
    — per-scan page-id lists and count gathers over the child objects
    on the pointer side vs. cached page-id lists and zero-copy corner
    and count slices on the flat side.  Caches are warmed before timing.
    """
    data, pointer = setup(
        dict(dataset="gaussian", n=n, dims=dims, disks=_DISKS), seed
    )
    frozen = flatten(pointer)
    query = tuple(sample_queries(data, 1, seed=seed + 1)[0])

    def scan_time(tree) -> float:
        nodes = [tree.tree.pages[pid] for pid in sorted(tree.tree.pages)]
        _whole_tree_scan(query, nodes)  # warm bounds/page-list caches
        return _best_of(lambda: _whole_tree_scan(query, nodes), repeats)

    pointer_s = scan_time(pointer)
    flat_s = scan_time(frozen)
    return {
        "n": n,
        "dims": dims,
        "nodes": len(frozen.tree.pages),
        "pointer_s": pointer_s,
        "flat_s": flat_s,
        "speedup": pointer_s / flat_s if flat_s else math.inf,
    }


def run_layout_microbench(
    smoke: bool = False, seed: int = 0
) -> list:
    """The flat-vs-pointer layout microbenchmark across tree sizes."""
    return [
        _layout_microbench_case(case["n"], case["dims"], seed)
        for case in _LAYOUT_CONFIGS[smoke]
    ]


def run_bench(smoke: bool = False, seed: int = 0) -> Dict[str, object]:
    """Run the full benchmark suite; returns the JSON-ready document.

    The query/simulate suites run over each tree's freeze, like every
    reading command; the layout microbench measures the build form
    against it.
    """
    configs = []
    for base in _SUITE_CONFIGS[smoke]:
        config = {**base, "disks": _DISKS, "k": _K}
        data, tree = setup(config, seed)
        tree = flatten(tree)
        queries = sample_queries(data, config["queries"], seed=seed + 1)
        config["algorithms"] = {
            name: _run_algorithm_suite(name, tree, queries, seed)
            for name in sorted(ALGORITHMS)
        }
        configs.append(config)
    return {
        "schema": BENCH_SCHEMA,
        "label": "PR9",
        "smoke": smoke,
        "seed": seed,
        "nondeterministic_keys": list(NONDETERMINISTIC_KEYS),
        "configs": configs,
        "microbench": run_microbench(smoke, seed),
        "microbench_layout": run_layout_microbench(smoke, seed),
    }


def to_run_report(doc: Dict[str, object]) -> Dict[str, object]:
    """The bench document as a RunReport envelope for ``repro diff``."""
    suite = [
        {
            key: entry[key]
            for key in ("dataset", "n", "dims", "queries", "disks", "k")
            if key in entry
        }
        for entry in doc.get("configs", [])
    ]
    return run_report_envelope("bench", doc, suite=suite)


def format_summary(doc: Dict[str, object]) -> str:
    """A terminal-friendly summary of a bench document."""
    lines = []
    for config in doc["configs"]:
        lines.append(
            f"{config['dataset']} n={config['n']} dims={config['dims']} "
            f"k={config['k']} queries={config['queries']} "
            f"disks={config['disks']}"
        )
        lines.append(
            f"  {'algorithm':<8} {'pages':>7} {'rounds':>7} "
            f"{'par':>6} {'sim mean s':>11} {'wall s':>8}"
        )
        for name, row in sorted(config["algorithms"].items()):
            lines.append(
                f"  {name:<8} {row['pages_fetched']:>7} {row['rounds']:>7} "
                f"{row['mean_parallelism']:>6.2f} "
                f"{row['simulate']['response_mean_s']:>11.4f} "
                f"{row['wall_time_s']:>8.3f}"
            )
        lines.append("")
    lines.append("node-scan microbench (scalar / vectorized, best-of):")
    for dims, row in sorted(doc["microbench"].items(), key=lambda i: int(i[0])):
        lines.append(
            f"  dims={dims:>2} entries={row['entries']}: "
            f"{row['scalar_s'] * 1e3:.3f} ms / "
            f"{row['vectorized_s'] * 1e3:.3f} ms  "
            f"→ {row['speedup']:.1f}x"
        )
    if doc.get("microbench_layout"):
        lines.append("")
        lines.append(
            "layout microbench (whole-tree scan, pointer / flat, best-of):"
        )
        for row in doc["microbench_layout"]:
            lines.append(
                f"  n={row['n']:>6} dims={row['dims']:>2} "
                f"nodes={row['nodes']:>5}: "
                f"{row['pointer_s'] * 1e3:.3f} ms / "
                f"{row['flat_s'] * 1e3:.3f} ms  "
                f"→ {row['speedup']:.2f}x"
            )
    return "\n".join(lines)
