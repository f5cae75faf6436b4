"""Golden digests of everything a counted search exposes.

Recorded before the scan layer's unit became the fetch round (one kernel
call per metric over all of a round's nodes instead of one per node) and
never re-recorded for that: how the pages of a round are scored may
change, what any caller can observe may not.  Only the two lattice
digests were re-recorded, when the rect ``Dmm`` took its exact-monotone
form: ties between equal-``Dmin`` pages broke the other way.  Per data set and algorithm, one sha256
covers every query run over the pointer tree *and* over its freeze, with
and without an ``unavailable`` page set and with and without an
:class:`~repro.obs.explain.ExplainRecorder`:

* the answers as ``(oid, repr(distance))``;
* ``nodes_visited``, ``rounds``, ``critical_path``, ``per_disk`` and the
  fetched ``pages`` in fetch order;
* the certified radius and the number of unreachable subtrees;
* the explain artifact (``to_dict()``) plus the raw decision-event log,
  which pins the order of every ``explain.prune`` call.

The three data sets are a 2-d uniform set at k = 10, a 10-d Gaussian
set at k = 100 (the ``counted_highdim`` shape: wide rounds, almost every
page read) and a lattice of duplicated points queried on and between
lattice sites, where distances tie everywhere.
"""

import hashlib
import json

import pytest

from repro.core import CountingExecutor
from repro.datasets import gaussian, sample_queries, uniform
from repro.experiments.setup import make_factory
from repro.obs.explain import ExplainRecorder
from repro.parallel import build_parallel_tree
from repro.rtree import flatten


def _lattice_points():
    """A 7 x 7 lattice, every site holding three identical points."""
    sites = [(x / 6.0, y / 6.0) for x in range(7) for y in range(7)]
    return [site for site in sites for _ in range(3)]


def _lattice_queries():
    """Queries on sites, on edge midpoints and on cell centres."""
    return [
        (0.5, 0.5), (0.0, 0.0), (1.0 / 6.0, 0.25),
        (0.25, 0.25), (5.0 / 12.0, 7.0 / 12.0), (1.0, 0.5),
    ]


#: name -> (points, tree kwargs, queries, k)
DATASETS = {
    "uniform2d": lambda: (
        uniform(400, 2, seed=3), dict(dims=2, num_disks=5, max_entries=8),
        None, 10,
    ),
    "gaussian10d": lambda: (
        gaussian(600, 10, seed=4), dict(dims=10, num_disks=10), None, 100,
    ),
    "lattice": lambda: (
        _lattice_points(), dict(dims=2, num_disks=4, max_entries=6),
        _lattice_queries(), 10,
    ),
}

GOLDEN = {
    ("uniform2d", "BBSS"): (
        "d47c6b0b4e3181b60e4f2e57d17e99482aebb46d707389f90a6f4e661c75dfda"
    ),
    ("uniform2d", "FPSS"): (
        "db0429007b69112571f0829e4852085f1615820f5564204673d073b6a12292b4"
    ),
    ("uniform2d", "CRSS"): (
        "bfdfd4d1a3aa8d39f5403bbf1a21dffe05aa4dca9f6611a4f39fddad785af543"
    ),
    ("uniform2d", "WOPTSS"): (
        "b7917a0704bd5ce982382e7335f0535e72c9f2821bbc279331d909c3657a91b8"
    ),
    ("gaussian10d", "BBSS"): (
        "3af00c90073c8dd11df8bf2495b1d99a704f6210a94d46bef94652eababa2849"
    ),
    ("gaussian10d", "FPSS"): (
        "eac26def76ae82ee365e9d6bce3c0bdc66793e33469f94b1affa887d23ff0c9a"
    ),
    ("gaussian10d", "CRSS"): (
        "215c387f690dfda27a166ec3d6fa491fe7b2db9caf89c56d0fad76047799424b"
    ),
    ("gaussian10d", "WOPTSS"): (
        "22b6e9902c779375208fe4a1bbf2559c232e9f8507e7b02654027856dc03c0e4"
    ),
    # Re-recorded with the exact-monotone rect Dmm (no clamp): query
    # (0.25, 0.25) visits the Dmin-tied leaves 6 and 7 as 7, 6, their
    # Dmm (BBSS's second sort key) now rounding the other way.
    ("lattice", "BBSS"): (
        "152ddc4f561e803ab2544592c0c9b5881893c3c0f22546562b5b4a747f5249cd"
    ),
    ("lattice", "FPSS"): (
        "8bbafbe036a6ba257873c4899924fcb57f44362d5edc37586fb31454cfd356cc"
    ),
    # Re-recorded with the same Dmm: query (0.5, 0.5) fetches pages
    # 29, 27 before 28, 24 (the Dmm of 29 and 27 dropped one ulp); same
    # answers, page count and rounds.
    ("lattice", "CRSS"): (
        "7a53a18a5a07c7d4adb726b6d694f986cf1d5250cf3b696846cb068c0c01faa5"
    ),
    ("lattice", "WOPTSS"): (
        "80a6b094df616daf2871244164a423d4b58affc98a4c77ffad19444dbbd84494"
    ),
}

_trees = {}


def _setup(name):
    """(pointer tree, its freeze, queries, k, unavailable), built once."""
    if name not in _trees:
        points, kwargs, queries, k = DATASETS[name]()
        pointer = build_parallel_tree(points, seed=1, **kwargs)
        if queries is None:
            queries = sample_queries(points, 6, seed=2)
        # Every fifth non-root page, so subtrees at every level go missing.
        pages = sorted(pointer.tree.pages)
        pages.remove(pointer.root_page_id)
        unavailable = frozenset(pages[::5])
        _trees[name] = (pointer, flatten(pointer), queries, k, unavailable)
    return _trees[name]


def _record(tree, algorithm, queries, k, unavailable):
    """Every observable of every run, as a JSON-ready list."""
    factory = make_factory(algorithm, tree, k)
    rows = []
    for withheld in (None, unavailable):
        executor = CountingExecutor(tree, unavailable=withheld)
        for explained in (False, True):
            for query in queries:
                search = factory(query)
                if explained:
                    search.explain = ExplainRecorder(
                        num_disks=tree.num_disks,
                        level_of=lambda pid: tree.page(pid).level,
                        disk_of=tree.disk_of,
                        label=algorithm,
                    )
                answers = executor.execute(search)
                stats = executor.last_stats
                rows.append({
                    "answers": [
                        [neighbor.oid, repr(neighbor.distance)]
                        for neighbor in answers
                    ],
                    "nodes_visited": stats.nodes_visited,
                    "rounds": stats.rounds,
                    "critical_path": stats.critical_path,
                    "per_disk": sorted(stats.per_disk.items()),
                    "pages": stats.pages,
                    "certified_radius": repr(search.certified_radius),
                    "unreachable": search.unreachable_pages,
                    "explain": (
                        [search.explain.to_dict(),
                         [list(event) for event in search.explain.events]]
                        if explained else None
                    ),
                })
    return rows


def _digest(rows) -> str:
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("form", ["pointer", "frozen"])
@pytest.mark.parametrize("name, algorithm", sorted(GOLDEN))
def test_counted_search_is_pinned(name, algorithm, form):
    pointer, frozen, queries, k, unavailable = _setup(name)
    tree = pointer if form == "pointer" else frozen
    rows = _record(tree, algorithm, queries, k, unavailable)
    # The withheld pages must actually cut something off.
    assert any(row["unreachable"] for row in rows)
    assert _digest(rows) == GOLDEN[(name, algorithm)]
