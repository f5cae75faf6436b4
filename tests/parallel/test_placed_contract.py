"""One placed-tree contract: every declustered tree answers the same
read surface, and the consumers take it without probing.

Each tree below is a :class:`~repro.rtree.placed.PlacedTree`.  The
derived ones (TV views, freezes, loaded files) must answer exactly what
their pointer source answers: the same page ids, disks, cylinders and
page spans — supernodes included.
"""

import pytest

from repro.core import CRSS, CountingExecutor
from repro.datasets import gaussian, sample_queries, uniform
from repro.extensions.srtree import build_parallel_srtree
from repro.extensions.sstree import build_parallel_sstree
from repro.extensions.tvtree import TVTreeView
from repro.extensions.xtree import build_parallel_xtree
from repro.faults.health import pages_per_disk
from repro.parallel import build_parallel_tree
from repro.rtree import flatten, load_flat, save_flat
from repro.rtree.placed import PlacedTree
from repro.serving.batcher import FetchBroker
from repro.simulation.engine import Environment
from repro.simulation.parameters import SystemParameters
from repro.simulation.simulator import simulate_workload
from repro.simulation.system import DiskArraySystem


@pytest.fixture(scope="module")
def sources():
    """The pointer trees every derived tree is checked against."""
    rstar = build_parallel_tree(
        uniform(400, 3, seed=11), dims=3, num_disks=4, max_entries=8
    )
    xtree = build_parallel_xtree(
        gaussian(600, 12, seed=5), 12, num_disks=4, seed=5,
        max_entries=10, max_overlap=0.01,
    )
    assert max(map(xtree.pages_spanned, xtree.page_ids())) > 1
    return {"rstar": rstar, "xtree": xtree}


def _loaded(tree, path):
    save_flat(flatten(tree), str(path))
    return load_flat(str(path))


KINDS = [
    "pointer-rstar", "pointer-xtree", "ss", "sr", "tv-rstar", "tv-xtree",
    "frozen-rstar", "frozen-xtree", "loaded-rstar", "loaded-xtree",
]


def _build(kind, sources, path):
    """``(tree, the pointer tree it must agree with)`` for *kind*."""
    if kind in ("ss", "sr"):
        build = build_parallel_sstree if kind == "ss" else build_parallel_srtree
        tree = build(uniform(300, 3, seed=12), 3, num_disks=3, max_entries=8)
        return tree, tree
    form, base = kind.split("-")
    source = sources[base]
    if form == "tv":
        return TVTreeView(source, active=2 if base == "rstar" else 4), source
    if form == "frozen":
        return flatten(source), source
    if form == "loaded":
        return _loaded(source, path), source
    return source, source


@pytest.mark.parametrize("kind", KINDS)
def test_every_tree_answers_its_sources_pages(kind, sources, tmp_path):
    tree, source = _build(kind, sources, tmp_path / "tree.flat")
    assert isinstance(tree, PlacedTree)
    pages = sorted(tree.page_ids())
    assert pages == sorted(source.tree.pages)
    assert tree.root_page_id == source.root_page_id
    assert (tree.num_disks, tree.num_cylinders, tree.dims, tree.height,
            len(tree)) == (source.num_disks, source.num_cylinders,
                           source.dims, source.height, len(source))
    for page_id in pages:
        assert tree.page(page_id).page_id == page_id
        assert (
            tree.disk_of(page_id), tree.cylinder_of(page_id),
            tree.pages_spanned(page_id),
        ) == (
            source.disk_of(page_id), source.cylinder_of(page_id),
            source.tree.pages_spanned(page_id),
        )
    per_disk = pages_per_disk(tree)
    assert per_disk == pages_per_disk(source)
    assert sum(per_disk) == sum(map(tree.pages_spanned, pages)) > 0


# -- the defects a probe default hid ---------------------------------------------


@pytest.fixture(scope="module")
def supernode_trees(tmp_path_factory):
    """A 12-d X-tree with 9 supernodes (the widest spans 6 pages), its
    freeze and the freeze read back from a file."""
    data = gaussian(3000, 12, seed=5)
    pointer = build_parallel_xtree(
        data, 12, num_disks=4, seed=5, max_entries=10, max_overlap=0.01
    )
    spans = [pointer.pages_spanned(p) for p in pointer.tree.pages]
    assert sum(s > 1 for s in spans) == 9 and max(spans) == 6
    path = tmp_path_factory.mktemp("xtree") / "xtree.flat"
    return data, {"pointer": pointer, "frozen": flatten(pointer),
                  "loaded": _loaded(pointer, path)}


def test_a_freeze_charges_supernodes_their_full_span(supernode_trees):
    """Before the span table, a frozen or loaded X-tree charged every
    supernode one page: 6 258 pages against the pointer tree's 6 918."""
    data, trees = supernode_trees
    queries = sample_queries(data, 20, seed=6)
    visited = {}
    for name, tree in trees.items():
        executor = CountingExecutor(tree)
        visited[name] = []
        for query in queries:
            executor.execute(CRSS(query, 10, num_disks=4))
            visited[name].append(executor.last_stats.nodes_visited)
    assert sum(visited["pointer"]) == 6918
    assert visited["frozen"] == visited["loaded"] == visited["pointer"]


def test_a_freeze_simulates_supernodes_like_the_pointer_tree(supernode_trees):
    """Before the span table: 42.54 s mean response against 42.19 s."""
    data, trees = supernode_trees
    queries = sample_queries(data, 20, seed=6)
    means = {
        name: simulate_workload(
            tree, lambda query: CRSS(query, 10, num_disks=4), queries,
            arrival_rate=10.0, seed=5,
        ).mean_response
        for name, tree in trees.items()
    }
    assert round(means["pointer"], 4) == 42.5442
    assert means["frozen"] == means["loaded"] == means["pointer"]


def test_the_broker_dispatches_a_supernodes_full_span(supernode_trees):
    _, trees = supernode_trees
    pointer = trees["pointer"]
    widest = max(pointer.tree.pages, key=pointer.pages_spanned)
    leaf = next(p for p, node in pointer.tree.pages.items() if node.is_leaf)
    for tree in trees.values():
        env = Environment()
        broker = FetchBroker(env, DiskArraySystem(env, tree.num_disks), tree)
        broker.submit(0, [widest, leaf])
        env.run()
        assert broker.pages_dispatched == 6 + 1


@pytest.fixture
def tv_view():
    """A TV view (2 of 4 active axes) over a 123-page R*-tree."""
    source = build_parallel_tree(
        uniform(600, 4, seed=3), dims=4, num_disks=3, max_entries=8
    )
    assert len(source.tree.pages) == 123
    return TVTreeView(source, active=2), source


def test_a_tv_view_reports_its_pages_to_the_rebuild(tv_view):
    """Before: ``pages_per_disk`` found no pages behind the view."""
    view, source = tv_view
    assert pages_per_disk(view) == pages_per_disk(source) == [40, 41, 42]


def test_a_tv_view_refuses_a_tree_sized_buffer(tv_view):
    """Before: a 133-page pool over the 123-page tree was accepted."""
    view, _ = tv_view
    with pytest.raises(ValueError, match="cache the entire 123-page tree"):
        simulate_workload(
            view, lambda query: CRSS(query, 3, num_disks=3),
            sample_queries(uniform(600, 4, seed=3), 2, seed=1),
            params=SystemParameters(buffer_pages=133),
        )
