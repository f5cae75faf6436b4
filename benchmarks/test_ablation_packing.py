"""Ablation A9 — tree construction: dynamic build vs. bulk packing.

The paper builds its trees incrementally (§4.1) because the target
setting is dynamic.  This ablation quantifies what that choice costs a
read-mostly deployment: the same data packed with STR and with
Hilbert ordering produces fewer, fuller pages, and CRSS visits fewer
nodes per query over the packed trees — while the dynamic tree is the
only one that pays no reorganization cost on updates.
"""

import statistics

from repro.core import CRSS, CountingExecutor
from repro.datasets import sample_queries
from repro.experiments import build_tree, current_scale, format_table
from repro.experiments.setup import dataset
from repro.parallel import ParallelRStarTree
from repro.rtree import hilbert_bulk_load, str_bulk_load

PAPER_POPULATION = 40_000
NUM_DISKS = 10
K = 20


def _wrap_packed(build, data, dims, page_size):
    """Bulk-build a tree, then decluster its pages like a fresh one."""
    parallel = ParallelRStarTree(dims, NUM_DISKS, page_size=page_size)
    packed = build(
        [(p, i) for i, p in enumerate(data)],
        dims=dims,
        page_size=page_size,
        on_split=lambda old, new: None,
    )
    # Drop the fresh tree's empty root, adopt the packed tree with the
    # placement hooks, and place every page.
    parallel.free_page(parallel.root_page_id)
    parallel._adopt(packed)
    for node in sorted(packed.pages.values(), key=lambda n: -n.level):
        parallel._place(node)
    return parallel


def _run():
    scale = current_scale()
    population = scale.population(PAPER_POPULATION)
    data = dataset("california_places", population, 2, seed=0)
    queries = sample_queries(data, scale.queries, seed=17)

    dynamic = build_tree(
        "california_places",
        population,
        dims=2,
        num_disks=NUM_DISKS,
        page_size=scale.page_size,
    )
    str_packed = _wrap_packed(str_bulk_load, data, 2, scale.page_size)
    hilbert_packed = _wrap_packed(hilbert_bulk_load, data, 2, scale.page_size)

    rows = []
    for label, tree in (
        ("dynamic R* (paper)", dynamic),
        ("STR packed", str_packed),
        ("Hilbert packed", hilbert_packed),
    ):
        executor = CountingExecutor(tree)
        counts = []
        for query in queries:
            executor.execute(CRSS(query, K, num_disks=NUM_DISKS))
            counts.append(executor.last_stats.nodes_visited)
        rows.append(
            (
                label,
                len(tree.tree.pages),
                tree.tree.height,
                statistics.fmean(counts),
            )
        )
    return rows


def test_ablation_packing(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print(
        format_table(
            ["construction", "pages", "height", "CRSS mean nodes"],
            rows,
            precision=2,
            title=f"Ablation A9: dynamic vs. packed construction "
            f"(california, k={K}, disks={NUM_DISKS})",
        )
    )
    by_label = {row[0]: row for row in rows}
    dynamic_pages = by_label["dynamic R* (paper)"][1]
    # Packing produces fewer pages (fuller nodes)...
    assert by_label["STR packed"][1] < dynamic_pages
    assert by_label["Hilbert packed"][1] < dynamic_pages
    # ...and no packed tree makes CRSS meaningfully worse.
    dynamic_nodes = by_label["dynamic R* (paper)"][3]
    assert by_label["Hilbert packed"][3] <= dynamic_nodes * 1.25
    assert by_label["STR packed"][3] <= dynamic_nodes * 1.25
