"""The row contract: what every node a scan can be handed must answer.

A directory page stores one ``(R, count, child_ptr)`` row per branch
(paper §2.1), and :mod:`repro.core.scan` reads those rows as columns:
``entry_bounds()`` (the regions), ``child_pages()`` (the child page ids
as ints) and ``child_counts()`` (the subtree object counts as int64),
with ``len()`` rows; a leaf's rows are its ``leaf_data``.  For every
node family — R*-tree nodes (X-tree supernodes included), SS- and
SR-tree nodes, frozen nodes and the TV view's internal wrapper — these
columns must equal the children's own ``page_id`` / ``object_count`` /
region, row for row.  Pointer trees are also checked under insert and
delete churn, which patches the cached bounds rows in place.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import gaussian, uniform
from repro.extensions.srtree import build_parallel_srtree
from repro.extensions.sstree import build_parallel_sstree
from repro.extensions.tvtree import TVTreeView
from repro.extensions.xtree import build_parallel_xtree
from repro.parallel import build_parallel_tree
from repro.rtree import flatten


def _rect_rows(children):
    return (
        np.array([child.mbr.low for child in children]),
        np.array([child.mbr.high for child in children]),
    )


def _sphere_rows(children):
    return (
        np.array([child.mbr.center for child in children]),
        np.array([child.mbr.radius for child in children]),
    )


def _sr_rows(children):
    return (
        np.array([child.mbr.rect.low for child in children]),
        np.array([child.mbr.rect.high for child in children]),
        np.array([child.mbr.sphere.center for child in children]),
        np.array([child.mbr.sphere.radius for child in children]),
    )


ROWS = {"rect": _rect_rows, "sphere": _sphere_rows, "sr": _sr_rows}


def assert_rows(node, children, bounds):
    """*node*'s columns equal its *children*'s own values, row for row."""
    assert len(node) == len(children)
    pages = node.child_pages()
    assert all(type(page) is int for page in pages)
    assert list(pages) == [child.page_id for child in children]
    counts = node.child_counts()
    assert counts.dtype == np.int64
    assert counts.tolist() == [child.object_count for child in children]
    got = node.entry_bounds()
    assert len(got) == len(bounds)
    for column, expected in zip(got, bounds):
        assert column.shape[0] == len(node)
        assert np.array_equal(column, expected)
    assert node.leaf_data is None


def assert_leaf_rows(node, entries):
    """A leaf's ``leaf_data`` and point rows equal its entries'."""
    assert len(node) == len(entries)
    oids, points = node.leaf_data
    assert oids.dtype == np.int64
    assert oids.tolist() == [entry.oid for entry in entries]
    expected = np.array([entry.point for entry in entries])
    assert np.array_equal(np.asarray(points, dtype=np.float64), expected)
    assert np.array_equal(node.entry_bounds()[0], expected)


def check_tree(tree):
    """Every page of a pointer-node tree (R*, X, SS or SR)."""
    for page_id in sorted(tree.tree.pages):
        node = tree.page(page_id)
        if not len(node):
            continue  # an empty root; scans skip it
        if node.is_leaf:
            assert_leaf_rows(node, node.entries)
        else:
            assert_rows(
                node, node.entries, ROWS[node.region_family](node.entries)
            )


def check_frozen(pointer):
    """The freeze's rows equal the source tree's children, page by page."""
    frozen = flatten(pointer)
    for page_id in sorted(pointer.tree.pages):
        source = pointer.page(page_id)
        node = frozen.page(page_id)
        if not len(source):
            continue
        if source.is_leaf:
            assert_leaf_rows(node, source.entries)
        else:
            assert_rows(node, source.entries, _rect_rows(source.entries))


def check_tv(pointer, active):
    """A TV view's rows: the wrapped node's pages and counts, its
    children's MBRs cut to the active axes, the global box on the tail."""
    view = TVTreeView(pointer, active)
    root = pointer.tree.root.mbr
    for page_id in sorted(pointer.tree.pages):
        source = pointer.page(page_id)
        node = view.page(page_id)
        if source.is_leaf:
            assert node is source
            continue
        lows, highs = _rect_rows(source.entries)
        rows = len(source.entries)
        tail = (rows, pointer.dims - active)
        assert_rows(node, source.entries, (
            lows[:, :active], highs[:, :active],
            np.broadcast_to(np.array(root.low[active:]), tail),
            np.broadcast_to(np.array(root.high[active:]), tail),
        ))


# -- static trees of every family ----------------------------------------------

_data_4d = gaussian(300, 4, seed=61)


def test_rtree_rows():
    tree = build_parallel_tree(
        uniform(400, 2, seed=60), dims=2, num_disks=4, max_entries=5
    )
    assert tree.height >= 3
    check_tree(tree)


def test_xtree_supernode_rows():
    tree = build_parallel_xtree(
        gaussian(500, 6, seed=43), dims=6, num_disks=3, max_entries=8,
        max_overlap=0.0,
    )
    supernodes = [
        page_id for page_id in tree.tree.pages
        if tree.tree.is_supernode(page_id)
    ]
    assert supernodes
    assert any(len(tree.page(p)) > tree.tree.max_entries for p in supernodes)
    check_tree(tree)


def test_sstree_and_srtree_rows():
    for build in (build_parallel_sstree, build_parallel_srtree):
        check_tree(build(_data_4d, dims=4, num_disks=3, max_entries=6))


def test_frozen_and_tv_rows():
    pointer = build_parallel_tree(_data_4d, dims=4, num_disks=3, max_entries=6)
    check_frozen(pointer)
    for active in (1, 2, 4):
        check_tv(pointer, active)


# -- pointer trees under churn -------------------------------------------------

coordinate = st.floats(-0.5, 1.5, allow_nan=False, width=32)
point_2d = st.tuples(coordinate, coordinate)
operation = st.one_of(
    st.tuples(st.just("insert"), point_2d),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(operation, min_size=1, max_size=40),
       st.sampled_from(["rtree", "xtree"]))
def test_rows_hold_under_churn(operations, kind):
    """Rows are checked after every insert and delete, so each mutation
    starts from warm bounds caches and must patch them in place."""
    data = uniform(60, 2, seed=62)
    if kind == "rtree":
        tree = build_parallel_tree(data, dims=2, num_disks=3, max_entries=4)
    else:
        tree = build_parallel_xtree(
            data, dims=2, num_disks=3, max_entries=4, max_overlap=0.0
        )
    live = list(enumerate(data))
    next_oid = len(data)
    check_tree(tree)
    for op, arg in operations:
        if op == "insert":
            tree.insert(arg, next_oid)
            live.append((next_oid, arg))
            next_oid += 1
        elif live:
            oid, point = live.pop(arg % len(live))
            assert tree.delete(point, oid)
        check_tree(tree)
    check_frozen(tree)
    check_tv(tree, 1)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate, coordinate, coordinate),
                min_size=1, max_size=30),
       st.sampled_from([build_parallel_sstree, build_parallel_srtree]))
def test_sphere_tree_rows_hold_under_inserts(points, build):
    """SS- and SR-trees take no deletes; their inserts drop the cached
    rows of every refreshed node's parent."""
    tree = build(_data_4d[:40], dims=4, num_disks=3, max_entries=4)
    check_tree(tree)
    for oid, point in enumerate(points, start=40):
        tree.insert(point, oid)
        check_tree(tree)
