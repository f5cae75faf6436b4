"""Differential tests: the kernel insert path vs the scalar oracle.

Every comparison is exact (``==`` on floats, ``is`` on the chosen
objects), never a tolerance: the kernels in :mod:`repro.perf.kernels`
repeat the IEEE-754 operations of the :class:`Rect` methods in the same
order, and the glue in ``rtree/tree.py`` / ``rtree/split.py`` repeats
the tie-breaking order of the loops now kept in ``tests/rtree/oracle.py``.
The generated boxes are chosen to tie: lattices, duplicates, nested,
degenerate and edge-touching boxes make equal enlargements, areas,
overlaps and margins the common case rather than the rare one.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.xtree import build_parallel_xtree
from repro.geometry.rect import Rect
from repro.obs.metrics import MetricsRegistry
from repro.parallel import build_parallel_tree
from repro.perf import kernels
from repro.rtree import RStarTree, check_invariants
from repro.rtree.flat import FlatTree
from repro.rtree.node import LeafEntry, Node
from repro.rtree.split import RStarSplit
from repro.rtree.tree import _entry_rect
from tests.rtree import oracle
from tests.rtree.test_structure_golden import structure_digest

FAMILIES = (
    "uniform", "lattice", "duplicate", "nested", "degenerate", "touching",
)


def make_boxes(family, dims, count, rng):
    """*count* boxes of one tie-prone *family*, as a list of Rects."""
    def lattice_corner():
        return [rng.randrange(-4, 9) * 0.5 for _ in range(dims)]

    boxes = []
    if family == "uniform":
        for _ in range(count):
            low = [rng.random() for _ in range(dims)]
            boxes.append((low, [c + rng.random() * 0.3 for c in low]))
    elif family == "lattice":
        for _ in range(count):
            low = lattice_corner()
            boxes.append((low, [c + rng.randrange(0, 4) * 0.5 for c in low]))
    elif family == "duplicate":
        pool = []
        for _ in range(max(1, count // 4)):
            low = lattice_corner()
            pool.append((low, [c + rng.randrange(0, 3) * 0.5 for c in low]))
        boxes = [rng.choice(pool) for _ in range(count)]
    elif family == "nested":
        for _ in range(count):
            shrink = rng.randrange(0, 8) * 0.25
            boxes.append(([shrink] * dims, [4.0 - shrink] * dims))
    elif family == "degenerate":
        for _ in range(count):
            low = lattice_corner()
            flat_axes = {a for a in range(dims) if rng.random() < 0.6}
            boxes.append((
                low,
                [c if a in flat_axes else c + 1.0 for a, c in enumerate(low)],
            ))
    elif family == "touching":
        # Unit tiles of a grid: neighbours share a face, overlap zero.
        for _ in range(count):
            low = [float(rng.randrange(0, 4)) for _ in range(dims)]
            boxes.append((low, [c + 1.0 for c in low]))
    return [Rect(low, high) for low, high in boxes]


@st.composite
def box_sets(draw, max_count=140, max_dims=12):
    """(rects, probe boxes, rng) for one generated family/dims/size."""
    family = draw(st.sampled_from(FAMILIES))
    dims = draw(st.integers(1, max_dims))
    count = draw(st.integers(2, max_count))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rects = make_boxes(family, dims, count, rng)
    probes = make_boxes(family, dims, 3, rng)
    # A point inside a box, a corner, and a box of the set itself.
    some = rng.choice(rects)
    probes.append(Rect.from_point(some.center))
    probes.append(Rect.from_point(some.low))
    probes.append(some)
    return rects, probes, rng


def corner_matrices(rects):
    lows = np.array([r.low for r in rects], dtype=np.float64)
    highs = np.array([r.high for r in rects], dtype=np.float64)
    return lows, highs


def identity(rect):
    return rect


def assert_same_groups(got, expected):
    """The same entry *objects*, in the same order, in both groups."""
    assert len(got) == len(expected) == 2
    for got_group, expected_group in zip(got, expected):
        assert [id(e) for e in got_group] == [id(e) for e in expected_group]


def corners(rect):
    """*rect*'s corners as arrays, as the descent hands them down."""
    return np.array(rect.low), np.array(rect.high)


def directory_node(rects):
    """A level-1 node whose children carry *rects* as their MBRs."""
    parent = Node(0, 1)
    for page_id, rect in enumerate(rects, start=1):
        child = Node(page_id, 0)
        child.mbr = rect
        child.object_count = 1
        parent.add(child)
    return parent


# -- kernels == Rect arithmetic -------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(box_sets())
def test_enlargement_kernel_equals_rect_arithmetic(case):
    rects, probes, _ = case
    lows, highs = corner_matrices(rects)
    for probe in probes:
        enlargement, area = kernels.batch_enlargement(
            probe.low, probe.high, lows, highs
        )
        assert enlargement.tolist() == [r.enlargement(probe) for r in rects]
        assert area.tolist() == [r.area() for r in rects]


@settings(max_examples=80, deadline=None)
@given(box_sets(max_count=60))
def test_intersection_kernel_equals_rect_arithmetic(case):
    rects, probes, rng = case
    some = rng.sample(rects, min(len(rects), 12)) + probes
    a_lows, a_highs = corner_matrices(some)
    b_lows, b_highs = corner_matrices(rects)
    got = kernels.batch_intersection_area(
        np.ascontiguousarray(a_lows.T), np.ascontiguousarray(a_highs.T),
        np.ascontiguousarray(b_lows.T), np.ascontiguousarray(b_highs.T),
    )
    assert got.tolist() == [
        [a.intersection_area(b) for b in rects] for a in some
    ]


@settings(max_examples=60, deadline=None)
@given(box_sets(max_count=40, max_dims=6), st.data())
def test_split_scores_kernel_equals_rect_arithmetic(case, data):
    rects, _, rng = case
    min_fill = data.draw(st.integers(1, len(rects) // 2))
    orders = [rng.sample(range(len(rects)), len(rects)) for _ in range(3)]
    lows, highs = corner_matrices(rects)
    margin, overlap, area = kernels.batch_split_scores(
        lows[np.array(orders)], highs[np.array(orders)], min_fill
    )
    for row, order in enumerate(orders):
        ordered = [rects[i] for i in order]
        expected = []
        for split_at in range(min_fill, len(rects) - min_fill + 1):
            bb1 = Rect.union_of(ordered[:split_at])
            bb2 = Rect.union_of(ordered[split_at:])
            expected.append((
                bb1.margin() + bb2.margin(),
                bb1.intersection_area(bb2),
                bb1.area() + bb2.area(),
            ))
        got = list(zip(
            margin[row].tolist(), overlap[row].tolist(), area[row].tolist()
        ))
        assert got == expected


def test_split_scores_rejects_an_impossible_min_fill():
    lows, highs = corner_matrices(make_boxes("uniform", 2, 5, random.Random(0)))
    for min_fill in (0, 3):
        with pytest.raises(ValueError):
            kernels.batch_split_scores(lows[None], highs[None], min_fill)


# -- ChooseSubtree: the same child object ----------------------------------------


@settings(max_examples=150, deadline=None)
@given(box_sets())
def test_choose_subtree_picks_the_oracles_child(case):
    """Full overlap sums vs the scalar early ``break``: same object."""
    rects, probes, _ = case
    node = directory_node(rects)
    for probe in probes:
        assert RStarTree._pick_leaf_child(node, probe, *corners(probe)) is (
            oracle.pick_leaf_child(node, probe)
        )
        assert RStarTree._pick_internal_child(
            node, probe, *corners(probe)
        ) is oracle.pick_internal_child(node, probe)


@settings(max_examples=120, deadline=None)
@given(box_sets())
def test_the_least_child_is_the_first_of_the_full_ranking(case):
    """The cached area order's first enlargement minimum is what the
    stable (enlargement, area) sort puts first, ties included."""
    rects, probes, _ = case
    node = directory_node(rects)
    for probe in probes:
        bounds, enlargement = RStarTree._score_children(
            node, *corners(probe)
        )
        assert RStarTree._least_child(bounds, enlargement) == (
            np.lexsort((bounds.areas, enlargement))[0]
        )


def test_enlargement_rounding_to_zero_does_not_take_the_containment_exit():
    """A 1-ulp growth lost to rounding is still a growth.

    The first candidate's side along x is ``1e17 + 1``; pushing its high
    edge out by one ulp of ``1.0`` changes nothing in that sum, so its
    enlargement is exactly ``0.0`` although it does not contain the
    point — and its overlap with the sibling it now reaches into grows.
    Only the sibling, which really contains the point, scores zero.
    """
    above_one = float(np.nextafter(1.0, 2.0))
    huge = Rect((-1e17, 0.0), (1.0, 1e-17))
    sibling = Rect((1.0, 0.0), (3.0, 1.0))
    far = Rect((10.0, 10.0), (11.0, 11.0))
    probe = Rect.from_point((above_one, 5e-18))
    node = directory_node([huge, sibling, far])
    first, second, _ = node.entries

    assert huge.enlargement(probe) == 0.0 and not huge.contains_rect(probe)
    assert sibling.contains_rect(probe)
    assert huge.area() < sibling.area()  # so `huge` sorts first
    chosen = RStarTree._pick_leaf_child(node, probe, *corners(probe))
    assert chosen is second
    assert chosen is oracle.pick_leaf_child(node, probe)


def test_sibling_overlap_sum_runs_in_entry_order():
    """A tie that only a strictly sequential sum keeps.

    Candidates ``a`` and ``b`` mirror each other about the probe and
    each gains an overlap of exactly 16 with one wide sibling.  ``a``
    also gains ``2**-50`` with each of sixteen boxes that already cover
    it; added one at a time after the 16 each is rounded away, so both
    sums are 16 and ``a``, first in entry order, wins.  A pairwise
    ``sum`` adds the small terms to each other first and hands ``b`` the
    node.  The 32-candidate cut keeps the wide siblings, whose own
    overlap enlargement is zero, out of the contest.
    """
    just_below_one = 1.0 - 2.0 ** -52
    a = Rect((1.0, 0.0), (2.0, 4.0))
    b = Rect((-14.0, 0.0), (-13.0, 4.0))
    wide_a = Rect((-5.0, -100.0), (-1.0, 100.0))
    wide_b = Rect((-11.0, -100.0), (-7.0, 100.0))
    cover_a = Rect((just_below_one, 0.0), (2.0, 6.0))
    cover_b = Rect((-14.0, 0.0), (-13.0, 6.0))
    probe = Rect.from_point((-6.0, 2.0))
    node = directory_node(
        [a, b, wide_a, wide_b] + [cover_a] * 16 + [cover_b] * 16
    )
    grown = a.union(probe)
    gains = [
        grown.intersection_area(other) - a.intersection_area(other)
        for other in [wide_a] + [cover_a] * 16
    ]
    assert gains == [16.0] + [2.0 ** -50] * 16

    chosen = RStarTree._pick_leaf_child(node, probe, *corners(probe))
    assert chosen is node.entries[0]
    assert chosen is oracle.pick_leaf_child(node, probe)


# -- split: the same two groups in the same order --------------------------------


@settings(max_examples=150, deadline=None)
@given(box_sets(max_count=110), st.data())
def test_rstar_split_returns_the_oracles_groups(case, data):
    rects, _, _ = case
    min_fill = data.draw(st.integers(1, len(rects) // 2))
    assert_same_groups(
        RStarSplit().split(rects, min_fill, identity),
        oracle.ScalarRStarSplit().split(rects, min_fill, identity),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.data())
def test_split_axis_ties_follow_the_oracles_summation_order(seed, half, data):
    """Boxes closed under ``(x, y) -> (-y, -x)``: the axes tie on paper.

    Along y such a set reads as its x view backwards, so the two margin
    totals add the same numbers in different orders and which axis wins
    comes down to the rounding of each partial sum — reproduced only by
    adding in the oracle's order, low sort first, group 1 growing.
    """
    rng = random.Random(seed)
    rects = []
    for _ in range(half):
        x, y = rng.random() * 4.0 - 2.0, rng.random() * 4.0 - 2.0
        w, h = rng.random(), rng.random()
        rects.append(Rect((x, y), (x + w, y + h)))
        rects.append(Rect((-y - h, -x - w), (-y, -x)))
    rng.shuffle(rects)
    min_fill = data.draw(st.integers(1, len(rects) // 2))
    assert_same_groups(
        RStarSplit().split(rects, min_fill, identity),
        oracle.ScalarRStarSplit().split(rects, min_fill, identity),
    )


def test_rstar_split_of_leaf_entries_keeps_entry_objects():
    rng = random.Random(3)
    entries = [
        LeafEntry((rng.randrange(6) * 1.0, rng.randrange(6) * 1.0), oid)
        for oid in range(41)
    ]
    assert_same_groups(
        RStarSplit().split(entries, 16, _entry_rect),
        oracle.ScalarRStarSplit().split(entries, 16, _entry_rect),
    )


# -- whole trees: bit for bit ----------------------------------------------------


class OracleTree(RStarTree):
    """An R*-tree running the scalar loops the kernels replaced."""

    def __init__(self, dims, **kwargs):
        super().__init__(
            dims, split_policy=oracle.ScalarRStarSplit(), **kwargs
        )

    @staticmethod
    def _pick_leaf_child(node, rect, low, high):
        return oracle.pick_leaf_child(node, rect)

    @staticmethod
    def _pick_internal_child(node, rect, low, high):
        return oracle.pick_internal_child(node, rect)


lattice_coord = st.integers(0, 12).map(lambda step: step * 0.25)
free_coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda dims: st.lists(
            st.tuples(*[st.one_of(lattice_coord, free_coord)] * dims),
            min_size=1, max_size=150,
        )
    ),
    st.integers(4, 9),
    st.data(),
)
def test_generated_insert_delete_runs_build_the_oracles_tree(
    points, max_entries, data
):
    dims = len(points[0])
    trees = (
        RStarTree(dims, max_entries=max_entries),
        OracleTree(dims, max_entries=max_entries),
    )
    live = {}
    for oid, point in enumerate(points):
        for tree in trees:
            tree.insert(point, oid)
        live[oid] = point
        if len(live) > 3 and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(sorted(live)))
            for tree in trees:
                assert tree.delete(live[victim], victim)
            del live[victim]
    check_invariants(trees[0])
    assert structure_digest(trees[0]) == structure_digest(trees[1])


@pytest.mark.parametrize(
    "dims,max_entries,count,height", [(2, 40, 2500, 3), (5, 60, 2000, 2)]
)
def test_wide_nodes_build_the_oracles_tree(dims, max_entries, count, height):
    """Fan-outs past the 32-candidate cut."""
    rng = random.Random(dims)
    trees = (
        RStarTree(dims, max_entries=max_entries),
        OracleTree(dims, max_entries=max_entries),
    )
    for oid in range(count):
        point = tuple(rng.random() for _ in range(dims))
        for tree in trees:
            tree.insert(point, oid)
    assert trees[0].height == height
    assert max(
        len(n.entries) for n in trees[0].pages.values() if n.level == 1
    ) > 32
    check_invariants(trees[0])
    assert structure_digest(trees[0]) == structure_digest(trees[1])


# -- the matrices the kernels read ----------------------------------------------


def test_a_growing_child_rewrites_its_row_and_keeps_the_cache_warm():
    tree = RStarTree(2, max_entries=8)
    rng = random.Random(1)
    for oid in range(300):
        tree.insert((rng.random(), rng.random()), oid)
    directory = [n for n in tree.pages.values() if n.level == 1]
    warm = {id(n): n.entry_bounds() for n in directory}
    # A far-away point grows one leaf and every ancestor, splits nothing.
    before_pages = len(tree.pages)
    tree.insert((7.0, 7.0), 1000)
    assert len(tree.pages) == before_pages
    grown = [n for n in directory if n.mbr.high == (7.0, 7.0)]
    assert len(grown) == 1
    for node in directory:
        assert node._bounds is warm[id(node)]  # never dropped
    lows, highs = grown[0]._bounds
    assert (7.0, 7.0) in [tuple(row) for row in highs.tolist()]
    check_invariants(tree)  # incl. every cached matrix == a fresh rebuild


def test_a_freeze_never_aliases_its_warm_source():
    """In-place row writes must not reach an earlier freeze."""
    tree = RStarTree(2, max_entries=8)
    rng = random.Random(2)
    for oid in range(600):
        tree.insert((rng.random(), rng.random()), oid)
    for node in tree.pages.values():
        node.entry_bounds()  # warm every cache, leaves included
    frozen = FlatTree.from_tree(tree)
    arrays = (
        frozen.level_lows + frozen.level_highs + frozen.level_page_ids
        + frozen.level_object_counts + [frozen.points, frozen.oids]
    )
    snapshot = [array.copy() for array in arrays]
    cached = [m for n in tree.pages.values() for m in n._bounds]
    assert not any(
        np.shares_memory(array, matrix)
        for array in arrays for matrix in cached
    )
    for oid in range(600, 1100):
        tree.insert((rng.random() * 3.0, rng.random() * 3.0), oid)
    check_invariants(tree)
    for array, before in zip(arrays, snapshot):
        assert array.dtype == before.dtype and np.array_equal(array, before)


# -- accounting -------------------------------------------------------------------


def test_build_kernels_are_counted_and_called_through_the_module(monkeypatch):
    calls = []
    original = kernels.batch_enlargement

    def spy(*args):
        calls.append(len(args[2]))
        return original(*args)

    monkeypatch.setattr(kernels, "batch_enlargement", spy)
    registry = MetricsRegistry()
    previous = kernels.instrument_kernels(registry)
    try:
        tree = RStarTree(2, max_entries=6)
        rng = random.Random(4)
        for oid in range(200):
            tree.insert((rng.random(), rng.random()), oid)
    finally:
        kernels.instrument_kernels(previous)
    assert calls  # the wall ledger patches the module attribute, too
    for metric in ("enlargement", "overlap", "split"):
        assert registry.counter(f"kernels.{metric}.vector_batches").value > 0
        assert registry.counter(f"kernels.{metric}.vector_entries").value > 0


def test_a_fixed_build_makes_the_same_kernel_calls():
    """Cached areas and arrays make each call cheaper; none is skipped.

    The counts were recorded on the code before the areas were cached.
    """
    registry = MetricsRegistry()
    previous = kernels.instrument_kernels(registry)
    try:
        build_parallel_tree(
            np.random.default_rng(3).random((3000, 2)).tolist(), 2, 10
        )
        build_parallel_xtree(
            np.random.default_rng(4).normal(size=(600, 8)).tolist(), 8, 5,
            max_entries=10, max_overlap=0.05,
        )
    finally:
        kernels.instrument_kernels(previous)
    assert {
        f"{metric}.{kind}": registry.counter(
            f"kernels.{metric}.vector_{kind}"
        ).value
        for metric in ("enlargement", "overlap", "split")
        for kind in ("batches", "entries")
    } == {
        "enlargement.batches": 7079, "enlargement.entries": 125824,
        "overlap.batches": 2135, "overlap.entries": 1726696,
        "split.batches": 132, "split.entries": 10160,
    }
