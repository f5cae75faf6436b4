"""Round scans and the filtered block offer against the per-node oracle.

``repro.core.scan`` scores a whole fetch round in one kernel call per
metric and offers every leaf of it through one
``NeighborList.offer_block``, which filters the block at a k-th
distance bound before its per-candidate loop.  The replaced loops live
on in ``tests/core/oracle.py``; these tests require the round scan to
return byte for byte the concatenation of the per-node scans and the
block offer to leave the items the loop leaves (``sorted(_heap)``: the
filter skips pushes the loop would later evict, so the heap's array
order may differ, and nothing reads it).  Rounds over SS-tree, SR-tree
and TV-view nodes must give the bytes of the per-region dispatchers
those nodes were scored with before they had kernels, and their leaf
rounds the per-entry loop's items.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BBSS, CountingExecutor, scan
from repro.core.results import NeighborList
from repro.datasets import gaussian, uniform
from repro.extensions.srtree import build_parallel_srtree
from repro.extensions.sstree import build_parallel_sstree
from repro.extensions.tvtree import build_tv_view
from repro.parallel import build_parallel_tree
from repro.rtree import flatten
from repro.rtree.flat import load_flat, save_flat
from tests.core import oracle

_pointer = build_parallel_tree(
    uniform(300, 2, seed=21), dims=2, num_disks=4, max_entries=6
)
_frozen = flatten(_pointer)
TREES = {"pointer": _pointer, "frozen": _frozen}
PAGES = sorted(_pointer.tree.pages)
INTERNAL = [p for p in PAGES if not _pointer.page(p).is_leaf]
LEAVES = [p for p in PAGES if _pointer.page(p).is_leaf]

coordinate = st.floats(-0.25, 1.25, allow_nan=False, width=32)
query = st.tuples(coordinate, coordinate)


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def test_fixture_tree_has_several_internal_levels():
    levels = {_pointer.page(p).level for p in INTERNAL}
    assert len(levels) >= 2


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(TREES)),
    query,
    st.lists(st.sampled_from(INTERNAL), unique=True, max_size=12),
    st.booleans(),
    st.booleans(),
)
def test_round_scan_is_the_concatenated_node_scans(
    form, point, round_pages, want_dmm, want_dmax
):
    """Rounds of 0, 1 and many internal nodes, levels mixed freely."""
    tree = TREES[form]
    nodes = [tree.page(page_id) for page_id in round_pages]
    got = scan.scan_children(
        point, nodes, want_dmm=want_dmm, want_dmax=want_dmax
    )
    parts = [
        oracle.scan_children(point, node, want_dmm=want_dmm,
                             want_dmax=want_dmax)
        for node in nodes
    ]
    assert got.pages == [
        ref.page_id for part in parts for ref in part.refs
    ]
    assert _bytes(got.dmin_sq) == _bytes(
        [d for part in parts for d in part.dmin_sq]
    )
    for field, wanted in (("dmm_sq", want_dmm), ("dmax_sq", want_dmax)):
        values = getattr(got, field)
        if not wanted:
            assert values is None
            continue
        assert _bytes(values) == _bytes(
            [d for part in parts for d in getattr(part, field)]
        )
    if want_dmax:
        expected = oracle.gathered_counts([part.counts for part in parts])
        expected = (
            np.empty(0, dtype=np.int64) if expected is None else expected
        )
        assert got.counts.dtype == np.int64
        assert np.array_equal(got.counts, expected)
    else:
        assert got.counts is None


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(TREES)),
    query,
    st.lists(st.sampled_from(LEAVES), unique=True, max_size=10),
    st.lists(st.sampled_from(LEAVES), unique=True, max_size=3),
    st.integers(1, 40),
)
def test_leaf_round_leaves_the_per_node_heap(
    form, point, round_pages, earlier_pages, k
):
    """Same items as offering leaf after leaf, entry by entry, unfiltered.

    Leaves offered before the round fill the list first, so the round
    starts from a full list as often as from an empty one.
    """
    tree = TREES[form]
    earlier = [tree.page(page_id) for page_id in earlier_pages]
    nodes = [tree.page(page_id) for page_id in round_pages]
    got = NeighborList(point, k)
    expected = NeighborList(point, k)
    for node in earlier:
        scan.offer_leaf(point, [node], got)
        oracle.offer_leaf(point, node, expected)
    assert sorted(got._heap) == sorted(expected._heap)
    scan.offer_leaf(point, nodes, got)
    for node in nodes:
        oracle.offer_leaf(point, node, expected)
    assert sorted(got._heap) == sorted(expected._heap)
    assert got.kth_distance_sq() == expected.kth_distance_sq()
    assert got.as_sorted() == expected.as_sorted()


@settings(max_examples=50, deadline=None)
@given(query, st.lists(st.sampled_from(LEAVES), unique=True, max_size=10),
       st.integers(1, 40))
def test_pointer_answers_are_the_entries_own_points(point, round_pages, k):
    """No answer point is rebuilt from the point matrix: the results
    hold the entries' own tuples, not copies of them."""
    nodes = [_pointer.page(page_id) for page_id in round_pages]
    own = {
        entry.oid: entry.point for node in nodes for entry in node.entries
    }
    got = NeighborList(point, k)
    scan.offer_leaf(point, nodes, got)
    assert all(item[2] is own[-item[1]] for item in got._heap)


#: Every fourth point on the ``x = -0.0`` line, so answers carry the sign.
_signed_data = [
    (-0.0, y) if i % 4 == 0 else (x, y)
    for i, (x, y) in enumerate(uniform(200, 2, seed=23))
]
_signed = flatten(build_parallel_tree(
    _signed_data, dims=2, num_disks=4, max_entries=6
))
SIGNED_LEAVES = sorted(
    p for p, node in _signed.tree.pages.items() if node.is_leaf
)


@pytest.fixture(scope="module")
def stored_forms(tmp_path_factory):
    """The signed freeze as built, loaded from a file and mapped."""
    path = str(tmp_path_factory.mktemp("flat") / "signed.flat")
    save_flat(_signed, path)
    return {"frozen": _signed, "loaded": load_flat(path),
            "mapped": load_flat(path, mmap=True)}


@pytest.mark.parametrize("form", ["frozen", "loaded", "mapped"])
@settings(max_examples=50, deadline=None)
@given(query, query,
       st.lists(st.sampled_from(SIGNED_LEAVES), unique=True, max_size=10),
       st.integers(1, 40))
def test_frozen_answers_are_the_points_the_leaves_store(
    stored_forms, form, first, second, round_pages, k
):
    """A frozen or loaded leaf answers with the tuples it stores: two
    queries hold the same object for the same object id, and its
    value is the packed row's, ``-0.0`` included."""
    tree = stored_forms[form]
    nodes = [tree.page(page_id) for page_id in round_pages]
    stored = {
        oid: point for node in nodes
        for oid, point in zip(node.leaf_data[0].tolist(), node.leaf_data[1])
    }
    flat = tree.tree
    rows = dict(zip(flat.oids.tolist(), flat.points.tolist()))
    answers = []
    for point in (first, second):
        got = NeighborList(point, k)
        scan.offer_leaf(point, nodes, got)
        answers.append({-neg_oid: item for _, neg_oid, item in got._heap})
    for held in answers:
        for oid, point in held.items():
            assert point is stored[oid]
            assert repr(point) == repr(tuple(rows[oid]))
    for oid in answers[0].keys() & answers[1].keys():
        assert answers[0][oid] is answers[1][oid]


@pytest.mark.parametrize("form", ["frozen", "loaded", "mapped"])
def test_frozen_answers_keep_negative_zero(stored_forms, form):
    tree = stored_forms[form]
    executor = CountingExecutor(tree)
    for oid in range(0, 40, 4):
        first = executor.execute(BBSS(_signed_data[oid], 1))
        second = executor.execute(BBSS(_signed_data[oid], 1))
        assert [n.oid for n in first] == [oid]
        assert repr(first[0].point) == repr(_signed_data[oid])
        assert repr(first[0].point).startswith("(-0.0, ")
        assert first[0].point is second[0].point


def test_only_the_leaves_a_query_reads_build_point_tuples(tmp_path):
    """Freezing, saving and loading build no tuple list; a query builds
    the lists of the leaves it reads and no other."""
    frozen = flatten(build_parallel_tree(
        _signed_data, dims=2, num_disks=4, max_entries=6
    ))
    path = str(tmp_path / "lazy.flat")
    save_flat(frozen, path)
    loaded = load_flat(path)
    for tree in (frozen, loaded):
        assert all(
            node._leaf is None for node in tree.tree.pages.values()
        )
    executor = CountingExecutor(loaded)
    executor.execute(BBSS((0.5, 0.5), 5))
    read = {
        page for page in executor.last_stats.pages
        if loaded.page(page).is_leaf
    }
    holding = {
        page for page, node in loaded.tree.pages.items()
        if node._leaf is not None
    }
    assert read and holding == read
    assert len(read) < len(SIGNED_LEAVES)


# -- the extension access methods --------------------------------------------

_data_6d = gaussian(400, 6, seed=22)
_data_6d = _data_6d + _data_6d[:15]  # duplicate centres
EXTENSION_TREES = {
    "sstree": build_parallel_sstree(
        _data_6d, dims=6, num_disks=3, max_entries=6
    ),
    "srtree": build_parallel_srtree(
        _data_6d, dims=6, num_disks=3, max_entries=6
    ),
    "tv": build_tv_view(
        _data_6d, dims=6, num_disks=3, active=2, page_size=512
    ),
    "tv_full": build_tv_view(
        _data_6d, dims=6, num_disks=3, active=6, page_size=512
    ),
}


def _pages(name):
    tree = EXTENSION_TREES[name]
    inner = getattr(tree, "_tree", tree).tree
    pages = sorted(inner.pages)
    return (
        [p for p in pages if not tree.page(p).is_leaf],
        [p for p in pages if tree.page(p).is_leaf],
    )


EXTENSION_PAGES = {name: _pages(name) for name in EXTENSION_TREES}
coordinate_6d = st.tuples(*[coordinate] * 6)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(EXTENSION_TREES)), st.data(),
       st.booleans(), st.booleans())
def test_extension_round_scan_is_the_per_region_oracle(
    name, data, want_dmm, want_dmax
):
    """Sphere, SR and TV rounds: bytes of the per-region dispatchers."""
    tree = EXTENSION_TREES[name]
    internal, _ = EXTENSION_PAGES[name]
    point = data.draw(st.one_of(coordinate_6d, st.sampled_from(_data_6d)))
    round_pages = data.draw(
        st.lists(st.sampled_from(internal), unique=True, max_size=8)
    )
    nodes = [tree.page(page_id) for page_id in round_pages]
    got = scan.scan_children(
        point, nodes, want_dmm=want_dmm, want_dmax=want_dmax
    )
    parts = [
        oracle.scan_children(point, node, want_dmm=want_dmm,
                             want_dmax=want_dmax)
        for node in nodes
    ]
    assert got.pages == [
        ref.page_id for part in parts for ref in part.refs
    ]
    for field, wanted in (("dmin_sq", True), ("dmm_sq", want_dmm),
                          ("dmax_sq", want_dmax)):
        values = getattr(got, field)
        if not wanted:
            assert values is None
            continue
        assert _bytes(values) == _bytes(
            [d for part in parts for d in getattr(part, field)]
        )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["sstree", "srtree"]), st.data(), st.integers(1, 40))
def test_extension_leaf_round_is_the_per_entry_loop(name, data, k):
    tree = EXTENSION_TREES[name]
    _, leaves = EXTENSION_PAGES[name]
    point = data.draw(st.one_of(coordinate_6d, st.sampled_from(_data_6d)))
    nodes = [
        tree.page(page_id) for page_id in data.draw(
            st.lists(st.sampled_from(leaves), unique=True, max_size=8)
        )
    ]
    got = NeighborList(point, k)
    expected = NeighborList(point, k)
    scan.offer_leaf(point, nodes, got)
    for node in nodes:
        oracle.offer_leaf(point, node, expected)
    assert sorted(got._heap) == sorted(expected._heap)


def test_empty_round_scans_nothing():
    empty = scan.scan_children((0.5, 0.5), [], want_dmm=True, want_dmax=True)
    assert empty.pages == [] and empty.dmin_sq == []
    assert empty.dmm_sq == [] and empty.dmax_sq == []
    assert empty.counts.dtype == np.int64 and len(empty.counts) == 0
    neighbors = NeighborList((0.5, 0.5), 3)
    scan.offer_leaf((0.5, 0.5), [], neighbors)
    assert len(neighbors) == 0


# -- the block offer -------------------------------------------------------

#: Few distinct distances, so ties — also at the k-th distance — abound.
tied_distance = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0])
block = st.lists(tied_distance, max_size=30)


@settings(max_examples=300, deadline=None)
@given(st.lists(block, min_size=1, max_size=6), st.integers(1, 25),
       st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_offer_block_leaves_the_loops_heap(blocks, k, as_lists, int_valued,
                                           rng):
    """Tie-heavy blocks, empty blocks, k beyond the block, list inputs.

    Int-valued points pin the answer-point contract: the given point
    tuples are kept verbatim, the same objects and no float conversion.
    """
    oids = list(range(sum(len(b) for b in blocks)))
    rng.shuffle(oids)
    got = NeighborList((0.0, 0.0), k)
    expected = NeighborList((0.0, 0.0), k)
    start = 0
    for distances in blocks:
        ids = oids[start:start + len(distances)]
        start += len(distances)
        points = np.array(
            [[float(i), -float(i)] for i in ids], dtype=np.float64
        ).reshape(len(ids), 2)
        given_points = points.astype(np.int64) if int_valued else points
        rows = [tuple(row) for row in given_points.tolist()]
        if as_lists:
            got.offer_block(list(distances), list(ids), rows)
        else:
            got.offer_block(np.array(distances, dtype=np.float64),
                            np.array(ids, dtype=np.int64), rows)
        oracle.offer_block(expected, distances, ids, points)
        assert sorted(got._heap) == sorted(expected._heap)
        assert got.kth_distance_sq() == expected.kth_distance_sq()
        coordinate = int if int_valued else float
        assert all(type(c) is coordinate
                   for _, _, point in got._heap for c in point)
        by_oid = dict(zip(ids, rows))
        assert all(point is by_oid[-neg_oid]
                   for _, neg_oid, point in got._heap
                   if -neg_oid in by_oid)


#: Held items near the block's distances and far beyond all of them.
held_distance = st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5, 50.0, 1e300])


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(1, 25), block,
       st.randoms(use_true_random=False))
def test_offer_block_on_a_partly_filled_list_is_the_loop(data, k, distances,
                                                         rng):
    """The in-block k-th bound counts the held items, near and far.

    The list holds fewer than k items when the block arrives, so the
    block is filtered at the k-th smallest distance over the held items
    and the block together.  A bound from the block alone (its
    ``k - held``-th value) would drop block items that evict far-away
    held ones.
    """
    held = data.draw(st.lists(held_distance, max_size=k - 1))
    oids = list(range(len(held) + len(distances)))
    rng.shuffle(oids)
    got = NeighborList((0.0, 0.0), k)
    expected = NeighborList((0.0, 0.0), k)
    for dist, oid in zip(held, oids):
        for neighbors in (got, expected):
            oracle.offer_computed(neighbors, dist, (float(oid), 0.0), oid)
    ids = oids[len(held):]
    points = np.array(
        [[float(i), -0.0] for i in ids], dtype=np.float64
    ).reshape(len(ids), 2)
    got.offer_block(np.array(distances, dtype=np.float64),
                    np.array(ids, dtype=np.int64),
                    [tuple(row) for row in points.tolist()])
    for dist, oid, row in zip(distances, ids, points):
        oracle.offer_computed(expected, dist, tuple(row.tolist()), oid)
    assert sorted(got._heap) == sorted(expected._heap)
    assert got.kth_distance_sq() == expected.kth_distance_sq()
    assert got.as_sorted() == expected.as_sorted()


def test_offer_block_keeps_a_tie_at_the_kth_distance():
    """A candidate equal to the k-th distance with a smaller oid enters."""
    neighbors = NeighborList((0.0, 0.0), 2)
    points = [(0.0, 0.0)] * 3
    neighbors.offer_block([1.0, 2.0], [5, 9], points[:2])
    neighbors.offer_block([2.0, 3.0], [7, 1], points[:2])
    assert [n.oid for n in neighbors.as_sorted()] == [5, 7]


@pytest.mark.parametrize("k", [1, 4])
def test_offer_block_takes_an_empty_block(k):
    neighbors = NeighborList((0.0, 0.0), k)
    neighbors.offer_block([3.0, 1.0, 2.0, 0.5], [0, 1, 2, 3], [(1.0, 1.0)] * 4)
    before = list(neighbors._heap)
    neighbors.offer_block([], [], [])
    neighbors.offer_block(np.empty(0), np.empty(0, dtype=np.int64), [])
    assert neighbors._heap == before
