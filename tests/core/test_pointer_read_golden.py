"""Golden digests of simulated runs and ``D_k`` on the pointer tree.

Recorded before pointer and SS leaves moved onto the block offer and the
pointer tree's ``D_k`` onto leaf arrays: how a round's leaves are offered
and how the oracle distance is computed may change, what a caller can
observe may not.  The two whole-run mixed digests were re-recorded once,
when a mixed query's read-latch wait started being charged to it (its
record's ``arrival`` became its own arrival, not its latch grant); the
piece-by-piece digests, which leave arrivals out, held through that.

* ``simulate_workload`` on a pointer tree, per algorithm: every record's
  timing, page and round counts, certified radius and answers as
  ``(oid, repr(distance), repr(point))`` — so the answer points' values
  and the signs of their ``-0.0`` coordinates are pinned too.
* one ``simulate_mixed_workload`` run with inserts and deletes, plus the
  answers of counted probes on the tree the updates left behind; and a
  second one through a buffer pool, with deletes whose object is
  missing (``applied`` is pinned, as are the buffer's hits and misses).
* both mixed runs again, one digest per piece — update rows, query
  completions, pages and answers, lock grants, probes and ``D_k`` on
  the tree left behind — with query arrivals left out, so a change that
  may only move arrivals shows which piece it moved if it moves more.
* ``ParallelRStarTree.kth_nearest_distance`` as ``float.hex`` on a
  lattice of tripled sites, for k = 1, k = n and k > n, over a deep tree
  and over a height-1 tree.
"""

import hashlib
import json

import pytest

from repro.core import CountingExecutor
from repro.datasets import sample_queries, uniform
from repro.experiments.setup import make_factory
from repro.parallel import build_parallel_tree
from repro.simulation.parameters import SystemParameters
from repro.simulation.simulator import simulate_workload
from repro.simulation.updates import simulate_mixed_workload


def _points():
    """Uniform points, a few duplicated, a few on ``-0.0`` coordinates."""
    data = uniform(500, 2, seed=31)
    data += data[:12]
    data += [(-0.0, 0.5), (0.0, 0.5), (0.25, -0.0), (-0.0, -0.0)]
    return data


def _lattice(side: int):
    """A side x side lattice in the unit square, every site tripled."""
    sites = [
        (x / (side - 1), y / (side - 1))
        for x in range(side) for y in range(side)
    ]
    return [site for site in sites for _ in range(3)]


def _answers(answers):
    return [
        [neighbor.oid, repr(neighbor.distance), repr(neighbor.point)]
        for neighbor in answers
    ]


def _record(record):
    return [
        repr(record.query), repr(record.arrival), repr(record.completion),
        record.pages_fetched, record.rounds, record.complete,
        repr(record.certified_radius), _answers(record.answers),
    ]


def _digest(rows) -> str:
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


SIMULATE_GOLDEN = {
    "BBSS": (
        "99ebbad522bd687146d408e6aaf1b5d38ab0fbea06aee6fd7d77b5925ec82b3f"
    ),
    "CRSS": (
        "779c2aa51d6b7e67ac15a9e848ca2f75802676bca2d8f4f2b5347c8cfdd60790"
    ),
    "FPSS": (
        "098f28a478217b1d0fd5dc88b15358432405edc954fd5a5e566e5b70ff0a5119"
    ),
    "WOPTSS": (
        "b67642e5bad5ccf93b669b45069e0e398f3089ea6bcb43e65330da5f82441411"
    ),
}

MIXED_GOLDEN = (
    "8484dd40009e65d9adaec901fa0aa83997283e92e048e5b04d2b54a48ad666e0"
)

MIXED_BUFFERED_GOLDEN = (
    "91e14e9fe82066225d0c0be0b25748b18b8c0439f8afc0ae4825a8c75cedddac"
)

#: (height of the tree, k) -> float.hex(D_k) per lattice query.
KTH_GOLDEN = {
    (3, 1): [
        "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p-3", "0x1.0a9700c6e1bf2p-3",
        "0x0.0p+0", "0x1.6a09e667f3bcdp-1",
    ],
    (3, 3): [
        "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p-3", "0x1.0a9700c6e1bf2p-3",
        "0x0.0p+0", "0x1.6a09e667f3bcdp-1",
    ],
    (3, 4): [
        "0x1.0000000000000p-2", "0x1.0000000000000p-2",
        "0x1.0000000000000p-3", "0x1.5f6c96c3a22b3p-3",
        "0x1.0000000000000p-2", "0x1.cd82b446159f3p-1",
    ],
    (3, 10): [
        "0x1.0000000000000p-2", "0x1.6a09e667f3bcdp-2",
        "0x1.1e3779b97f4a8p-2", "0x1.cb378f8ca5e9fp-3",
        "0x1.6a09e667f3bcdp-2", "0x1.0f876ccdf6cd9p+0",
    ],
    (3, 75): [
        "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bcdp+0",
        "0x1.2706821902e9ap+0", "0x1.cb378f8ca5e9fp-1",
        "0x1.6a09e667f3bcdp+0", "0x1.0f876ccdf6cd9p+1",
    ],
    (3, 82): [
        "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bcdp+0",
        "0x1.2706821902e9ap+0", "0x1.cb378f8ca5e9fp-1",
        "0x1.6a09e667f3bcdp+0", "0x1.0f876ccdf6cd9p+1",
    ],
    (1, 1): [
        "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p-3", "0x1.0a9700c6e1bf2p-3",
        "0x0.0p+0", "0x1.6a09e667f3bcdp-1",
    ],
    (1, 3): [
        "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p-3", "0x1.0a9700c6e1bf2p-3",
        "0x0.0p+0", "0x1.6a09e667f3bcdp-1",
    ],
    (1, 4): [
        "0x1.0000000000000p-2", "0x1.0000000000000p-2",
        "0x1.0000000000000p-3", "0x1.5f6c96c3a22b3p-3",
        "0x1.0000000000000p-2", "0x1.cd82b446159f3p-1",
    ],
    (1, 10): [
        "0x1.0000000000000p-2", "0x1.6a09e667f3bcdp-2",
        "0x1.1e3779b97f4a8p-2", "0x1.cb378f8ca5e9fp-3",
        "0x1.6a09e667f3bcdp-2", "0x1.0f876ccdf6cd9p+0",
    ],
    (1, 75): [
        "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bcdp+0",
        "0x1.2706821902e9ap+0", "0x1.cb378f8ca5e9fp-1",
        "0x1.6a09e667f3bcdp+0", "0x1.0f876ccdf6cd9p+1",
    ],
    (1, 82): [
        "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bcdp+0",
        "0x1.2706821902e9ap+0", "0x1.cb378f8ca5e9fp-1",
        "0x1.6a09e667f3bcdp+0", "0x1.0f876ccdf6cd9p+1",
    ],
}

_tree = {}


def _simulate_tree():
    if not _tree:
        data = _points()
        _tree["data"] = data
        _tree["tree"] = build_parallel_tree(
            data, dims=2, num_disks=5, max_entries=8, seed=1
        )
        _tree["queries"] = (
            sample_queries(data, 24, seed=5)
            + [(-0.0, 0.5), (0.5, 0.5), (0.0, 0.0)]
        )
    return _tree["data"], _tree["tree"], _tree["queries"]


@pytest.mark.parametrize("algorithm", sorted(SIMULATE_GOLDEN))
def test_simulated_workload_is_pinned(algorithm):
    _, tree, queries = _simulate_tree()
    result = simulate_workload(
        tree, make_factory(algorithm, tree, 7), queries,
        arrival_rate=40.0, seed=9,
    )
    assert len(result.records) == len(queries)
    rows = [_record(record) for record in result.records]
    assert _digest(rows) == SIMULATE_GOLDEN[algorithm]


#: Each mixed run happens once: the tests below read it, none mutates.
_runs = {}


def _mixed_run():
    """The plain mixed run, and the tree its inserts and deletes left."""
    if "mixed" not in _runs:
        data = _points()
        tree = build_parallel_tree(
            data, dims=2, num_disks=4, max_entries=6, seed=2
        )
        queries = sample_queries(data, 30, seed=6)
        inserts = uniform(60, 2, seed=7) + [(-0.0, 0.75), (0.5, 0.5)]
        deletes = [(data[oid], oid) for oid in range(0, 120, 3)]
        result = simulate_mixed_workload(
            tree, make_factory("CRSS", tree, 6), queries, inserts,
            query_rate=15.0, insert_rate=25.0, seed=4,
            deletes=deletes, delete_rate=10.0,
        )
        assert len(result.updates) == len(inserts) + len(deletes)
        _runs["mixed"] = data, tree, result
    return _runs["mixed"]


def _buffered_mixed_run():
    """The buffered mixed run with missing deletes, and its tree."""
    if "buffered" not in _runs:
        data = _points()
        tree = build_parallel_tree(
            data, dims=2, num_disks=4, max_entries=6, seed=2
        )
        queries = sample_queries(data, 30, seed=6)
        inserts = uniform(40, 2, seed=7)
        # Every third oid twice over (the second delete finds nothing),
        # and two objects that never existed.
        deletes = [(data[oid], oid) for oid in range(0, 90, 3)] * 2
        deletes += [((2.0, 2.0), 7), (data[5], len(data) + 100)]
        result = simulate_mixed_workload(
            tree, make_factory("CRSS", tree, 6), queries, inserts,
            query_rate=15.0, insert_rate=25.0, seed=4,
            params=SystemParameters(buffer_pages=12),
            deletes=deletes, delete_rate=20.0,
        )
        assert len(result.updates) == len(inserts) + len(deletes)
        _runs["buffered"] = data, tree, result
    return _runs["buffered"]


def _update_row(update):
    return [
        repr(update.point), repr(update.arrival), repr(update.completion),
        update.pages_read, update.pages_written, update.pages_created,
        update.kind,
    ]


def _probe_rows(data, tree):
    """Counted CRSS/WOPTSS probes and ``D_k`` on an updated tree."""
    executor = CountingExecutor(tree)
    probes = sample_queries(data, 12, seed=8) + [(-0.0, 0.75)]
    factories = {
        name: make_factory(name, tree, 6) for name in ("CRSS", "WOPTSS")
    }
    return {
        "probes": [
            _answers(executor.execute(factories[name](probe)))
            for name in sorted(factories) for probe in probes
        ],
        "dk": [
            float.hex(tree.kth_nearest_distance(probe, 6))
            for probe in probes
        ],
    }


def test_mixed_workload_is_pinned():
    data, tree, result = _mixed_run()
    rows = {
        "queries": [_record(record) for record in result.queries.records],
        "updates": [_update_row(update) for update in result.updates],
        **_probe_rows(data, tree),
    }
    assert _digest(rows) == MIXED_GOLDEN


def test_buffered_mixed_workload_with_missing_deletes_is_pinned():
    _, _, result = _buffered_mixed_run()
    assert any(not update.applied for update in result.updates)
    records = result.queries.records
    assert sum(record.buffer_hits for record in records) > 0
    rows = {
        "queries": [
            _record(record) + [record.buffer_hits, record.page_requests]
            for record in records
        ],
        "updates": [
            _update_row(update) + [update.applied]
            for update in result.updates
        ],
        "locks": [result.reads_granted, result.writes_granted],
    }
    assert _digest(rows) == MIXED_BUFFERED_GOLDEN


#: Run -> piece -> digest.  Query arrivals are left out on purpose:
#: they are the one thing charging the read-latch wait may move.
MIXED_PIECES_GOLDEN = {
    "buffered": {
        "updates": (
            "31bc842a820ae75c03f289ce8be43af9"
            "99970e54a4063daf03231914d853c2bf"
        ),
        "queries": (
            "0e529c73d35042bcc8220eb2e1b82095"
            "b2fd45bf0b9d0ed520ac195f728097c2"
        ),
        "locks": (
            "4fd1990a96c908ccfbfd42a8ee87ca5b"
            "febbe3938065d206dadb0db6cb6f8e7b"
        ),
        "probes": (
            "3cda548e9b25220f19ff92a1b1960d8d"
            "d4112d8eb966b35eef9f138573d58787"
        ),
        "dk": (
            "7649ffc8ed46772b3670cc7786af95a4"
            "c9cf4461b65ec913305e025b8dc33b28"
        ),
    },
    "plain": {
        "updates": (
            "45688bc7f68dc516f514cc5fbcaa85a8"
            "fa998b1879257e25c90c9ba6d755bce9"
        ),
        "queries": (
            "23e87263da0727694ab0954f5dd65b63"
            "7dca5f1e3a1490c6158c708ec057dd9c"
        ),
        "locks": (
            "4fd1990a96c908ccfbfd42a8ee87ca5b"
            "febbe3938065d206dadb0db6cb6f8e7b"
        ),
        "probes": (
            "f8fff5d8e333afc872a4648d4c2e37c0"
            "8820083aa62c4dfa5508d63b922c7ec2"
        ),
        "dk": (
            "e38c66e17695b4f365fb4d742744925b"
            "015435fb22ac466c291853633467684b"
        ),
    },
}


@pytest.mark.parametrize("run", sorted(MIXED_PIECES_GOLDEN))
def test_mixed_runs_are_pinned_piece_by_piece(run):
    data, tree, result = (
        _mixed_run() if run == "plain" else _buffered_mixed_run()
    )
    pieces = {
        "updates": [
            _update_row(update) + [update.applied]
            for update in result.updates
        ],
        "queries": [
            [repr(record.query), repr(record.completion),
             record.pages_fetched, record.rounds, record.complete,
             repr(record.certified_radius), record.buffer_hits,
             record.page_requests, _answers(record.answers)]
            for record in result.queries.records
        ],
        "locks": [result.reads_granted, result.writes_granted],
        **_probe_rows(data, tree),
    }
    got = {name: _digest(rows) for name, rows in pieces.items()}
    assert got == MIXED_PIECES_GOLDEN[run]


LATTICE_QUERIES = [
    (0.5, 0.5), (0.0, 0.0), (0.125, 0.25), (1.0 / 3.0, 0.6),
    (-0.0, 1.0), (1.5, -0.5),
]


def _lattice_tree(max_entries):
    data = _lattice(5)
    return data, build_parallel_tree(
        data, dims=2, num_disks=3, max_entries=max_entries, seed=3
    )


@pytest.mark.parametrize("max_entries", [6, 100])
def test_kth_nearest_distance_is_pinned(max_entries):
    data, tree = _lattice_tree(max_entries)
    n = len(data)
    for k in (1, 3, 4, 10, n, n + 7):
        got = [
            float.hex(tree.kth_nearest_distance(query, k))
            for query in LATTICE_QUERIES
        ]
        assert got == KTH_GOLDEN[tree.height, k], (tree.height, k)
