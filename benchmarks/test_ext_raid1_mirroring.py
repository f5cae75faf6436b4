"""Extension A3 — shadowed disks (RAID-1), paper future work §5.

Compares the RAID-0 array of the paper's experiments against a RAID-1
array (each logical disk mirrored; reads served by the less-loaded
replica) under the same CRSS workload at increasing arrival rates.
Expected: at light load the two are close (no queues to shorten); as
contention grows the mirrored array wins and degrades far more slowly.
"""

from repro.datasets import sample_queries
from repro.experiments import (
    build_tree,
    current_scale,
    format_series_table,
    make_factory,
)
from repro.simulation import simulate_workload

PAPER_POPULATION = 40_000
NUM_DISKS = 5
K = 20
LAMBDAS = [2, 6, 10, 14]


def _run():
    scale = current_scale()
    tree = build_tree(
        "long_beach",
        scale.population(PAPER_POPULATION),
        dims=2,
        num_disks=NUM_DISKS,
        page_size=scale.page_size,
    )
    points = [p for p, _ in tree.tree.iter_points()]
    queries = sample_queries(points, scale.queries, seed=5)
    factory = make_factory("CRSS", tree, K)
    lambdas = scale.sweep(LAMBDAS)

    series = {"RAID-0": [], "RAID-1 (shadowed)": []}
    for rate in lambdas:
        raid0 = simulate_workload(
            tree, factory, queries, arrival_rate=float(rate),
            params=scale.system_parameters(), seed=5,
        )
        raid1 = simulate_workload(
            tree, factory, queries, arrival_rate=float(rate),
            params=scale.system_parameters(), seed=5,
            raid="raid1",
        )
        series["RAID-0"].append(raid0.mean_response)
        series["RAID-1 (shadowed)"].append(raid1.mean_response)
    return lambdas, series


def test_ext_raid1_vs_raid0(benchmark):
    lambdas, series = benchmark.pedantic(_run, rounds=1, iterations=1)
    print(
        format_series_table(
            "lambda",
            lambdas,
            series,
            precision=4,
            title=f"Extension A3: CRSS on RAID-0 vs RAID-1 "
            f"(long_beach, disks={NUM_DISKS}, k={K})",
        )
    )
    raid0 = series["RAID-0"]
    raid1 = series["RAID-1 (shadowed)"]
    # Mirrored reads never hurt...
    for i in range(len(lambdas)):
        assert raid1[i] <= raid0[i] * 1.1
    # ...and help clearly at the heaviest load.
    assert raid1[-1] < raid0[-1]
    # Mirroring also degrades more slowly across the sweep.
    assert raid1[-1] / raid1[0] <= raid0[-1] / raid0[0] * 1.1
