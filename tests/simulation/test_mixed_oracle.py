"""``simulate_mixed_workload`` == its old run loop, bit for bit.

The oracle (``tests/simulation/oracle.py::simulate_mixed_oracle``) is
the loop the mixed workload ran before it became a caller of the
serving frontend.  Each shape runs both on fresh, equal R*-trees; every
query record field (floats by ``repr``), every update row, the latch's
grants and the objects the updates leave in the tree must agree.
"""

import dataclasses

import pytest

from repro.core import CRSS
from repro.datasets import sample_queries, uniform
from repro.parallel import build_parallel_tree
from repro.simulation import simulate_mixed_workload
from repro.simulation.parameters import SystemParameters

from tests.simulation.oracle import simulate_mixed_oracle

DATA = uniform(400, 2, seed=81)
QUERIES = sample_queries(DATA, 20, seed=82)
INSERTS = uniform(30, 2, seed=83)
DELETES = [(DATA[oid], oid) for oid in range(0, 75, 3)]

SHAPES = {
    "both-kinds": dict(
        queries=QUERIES, inserts=INSERTS, query_rate=15.0,
        insert_rate=10.0, deletes=DELETES, delete_rate=10.0,
    ),
    # Every delete twice (the second finds nothing) and two objects
    # that never existed, through a buffer pool.
    "buffered-missing-deletes": dict(
        queries=QUERIES, inserts=INSERTS[:15], query_rate=15.0,
        insert_rate=25.0,
        deletes=DELETES[:10] * 2 + [((2.0, 2.0), 7), (DATA[5], 10_000)],
        delete_rate=20.0, params=SystemParameters(buffer_pages=12),
    ),
    "queries-only": dict(
        queries=QUERIES, inserts=[], query_rate=15.0, insert_rate=1.0,
    ),
    "updates-only": dict(
        queries=[], inserts=INSERTS, query_rate=1.0, insert_rate=20.0,
        deletes=DELETES, delete_rate=15.0,
    ),
    # 40 queries/s beside enough updates to keep the write latch busy.
    "saturated-latch": dict(
        queries=sample_queries(DATA, 60, seed=84), inserts=INSERTS * 3,
        query_rate=40.0, insert_rate=80.0, deletes=DELETES,
        delete_rate=40.0,
    ),
}


def _run(simulate, shape):
    tree = build_parallel_tree(DATA, dims=2, num_disks=4, max_entries=8)
    result = simulate(
        tree, lambda q: CRSS(q, 6, num_disks=4), seed=5, **SHAPES[shape]
    )
    return result, {
        "records": [
            repr(dataclasses.asdict(r)) for r in result.queries.records
        ],
        "updates": [repr(dataclasses.asdict(u)) for u in result.updates],
        "grants": (result.reads_granted, result.writes_granted),
        "objects": sorted(tree.tree.iter_points()),
    }


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_simulate_mixed_workload_matches_oracle(shape):
    result, mine = _run(simulate_mixed_workload, shape)
    _, theirs = _run(simulate_mixed_oracle, shape)
    offered = SHAPES[shape]
    assert len(result.queries.records) == len(offered["queries"])
    assert len(result.updates) == (
        len(offered["inserts"]) + len(offered.get("deletes", ()))
    )
    if shape == "saturated-latch":
        waited = [
            r for r in result.queries.records if r.breakdown.admission_wait
        ]
        assert len(waited) >= len(result.queries.records) // 2
    for key in theirs:
        assert mine[key] == theirs[key], key
