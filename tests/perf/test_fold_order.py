"""The scalar twins fold left to right, whatever ``sum()`` does.

The kernels fold their per-axis terms strictly left to right from axis
0.  Their scalar twins must too — and the builtin ``sum()`` is no left
fold from Python 3.12 on: it compensates float rounding (Neumaier), so
it differs from the kernels on thousands of 8-d and 10-d squared
distances in 20 000.  Each test here swaps ``math.fsum`` — a correctly
rounded sum, so at least as different from a left fold — in as the
module's global ``sum`` for float terms (integer sums, such as subtree
object counts, stay exact integers, as they do on 3.12) and still
requires the kernels' bits, which holds only if the scalar code never
calls ``sum()`` on floats.

The kernels' own fold has two paths, a loop of ``op`` calls and one
``op.accumulate`` call, picked by block size; both must give the same
bytes on every input, ``-0.0``, subnormals, infinities and NaNs
included, and the fused rect pass the single kernels' bytes.

The same goes for the means the run reports and bench documents print
(``disk_mean``, the explain fanout ratios and threshold tightness,
``response_mean_s``): with ``fsum`` as their modules' ``sum`` the CLI
and bench goldens of ``tests/test_cli_golden.py`` must still hold.
"""

import builtins
import json
import math

import numpy as np
import pytest

from repro.core import distances
from repro.extensions import srtree, sstree
from repro.geometry import point, rect
from repro.geometry.rect import Rect
from repro.obs import explain, report
from repro.perf import bench, kernels, sched_bench, sweep
from repro.perf.bench import canonical_bytes
from repro.rtree import tree as rtree_tree
from tests import test_cli_golden as cli_golden
from tests.extensions import test_access_method_golden as access_golden
from tests.rtree import test_structure_golden as structure_golden


def compensated_sum(iterable, start=0):
    """``math.fsum`` over float terms, the builtin ``sum`` otherwise."""
    items = list(iterable)
    if any(isinstance(item, float) for item in items):
        return math.fsum([start, *items])
    return builtins.sum(items, start)


@pytest.fixture
def fsum_everywhere(monkeypatch):
    """:func:`compensated_sum` as ``sum`` in every module with a twin."""
    for module in (point, distances, rect, rtree_tree, sstree, srtree):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


@pytest.fixture
def fsum_in_reports(monkeypatch):
    """:func:`compensated_sum` as ``sum`` where reports take means."""
    for module in (report, explain, bench, sched_bench, sweep):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def _rows(dims, n, seed):
    rng = np.random.default_rng(seed)
    lows = rng.normal(0.0, 3.0, (n, dims))
    highs = lows + rng.uniform(0.0, 2.0, (n, dims))
    return lows, highs, rng.normal(0.0, 3.0, dims)


@pytest.mark.parametrize("dims", [8, 10])
def test_point_distance_is_the_kernels_fold(fsum_everywhere, dims):
    lows, _, query = _rows(dims, 2000, seed=dims)
    got = [point.squared_euclidean(tuple(query), tuple(p)) for p in lows]
    assert got == kernels.batch_point_distance_sq(query, lows).tolist()


@pytest.mark.parametrize("dims", [8, 10])
def test_minmax_distance_is_the_kernels_fold(fsum_everywhere, dims):
    lows, highs, query = _rows(dims, 2000, seed=20 + dims)
    got = [
        distances.minmax_distance_sq(tuple(query), Rect(tuple(lo), tuple(hi)))
        for lo, hi in zip(lows, highs)
    ]
    assert got == kernels.batch_minmax_distance_sq(query, lows, highs).tolist()


@pytest.mark.parametrize("dims", [8, 10])
def test_margin_is_the_split_kernels_fold(fsum_everywhere, dims):
    """Two-entry splits: the kernel's margin is ``bb1.margin() +
    bb2.margin()`` with each group one box."""
    lows, highs, _ = _rows(dims, 400, seed=40 + dims)
    for i in range(0, 400, 2):
        margin, _, _ = kernels.batch_split_scores(
            lows[None, i:i + 2], highs[None, i:i + 2], 1
        )
        boxes = [Rect(tuple(lows[j]), tuple(highs[j])) for j in (i, i + 1)]
        assert margin[0, 0] == boxes[0].margin() + boxes[1].margin()


def test_split_variance_is_a_left_fold(fsum_everywhere):
    """Values whose left-fold mean and spread differ from ``fsum``'s."""
    rng = np.random.default_rng(60)
    for _ in range(200):
        scales = 10.0 ** rng.integers(-8, 8, 9)
        values = (rng.normal(0.0, 1.0, 9) * scales).tolist()
        total = 0.0
        for v in values:
            total += v
        mean = total / len(values)
        spread = 0.0
        for v in values:
            spread += (v - mean) ** 2
        assert sstree._variance(values) == spread / len(values)


@pytest.mark.parametrize("name", ["three_d", "ledger_10d"])
def test_rstar_builds_are_unchanged(fsum_everywhere, name):
    """Forced reinsertion ranks entries by a left-fold squared distance."""
    build, expected = structure_golden.GOLDEN[name]
    assert structure_golden.structure_digest(build()) == expected


@pytest.mark.parametrize("name", ["ss8d", "sr8d"])
def test_sphere_tree_builds_are_unchanged(fsum_everywhere, name):
    build, points, _, _ = access_golden.TREES[name]
    assert (
        access_golden.structure_digest(build(points()))
        == access_golden.STRUCTURE_GOLDEN[name]
    )


def _loop_fold(op, sides):
    """The fold as a plain loop from term 0: the reference for both of
    :func:`repro.perf.kernels._fold`'s paths."""
    result = sides[0]
    for axis in range(1, sides.shape[0]):
        result = op(result, sides[axis])
    return result


SPECIALS = [-0.0, 0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan]

#: Term shapes on both sides of ``_ACCUMULATE_MAX_TERM`` (64), among
#: them ``(a, b)`` slabs like the overlap kernel's.
TERM_SHAPES = [(1,), (17,), (64,), (65,), (2000,), (4, 16), (4, 17), (17, 55)]


def _terms(terms, shape, seed):
    rng = np.random.default_rng(seed)
    sides = rng.normal(0.0, 3.0, (terms, *shape))
    sides *= 10.0 ** rng.integers(-200, 200, sides.shape)
    specials = rng.random(sides.shape) < 0.1
    sides[specials] = rng.choice(SPECIALS, int(specials.sum()))
    return sides


@pytest.mark.parametrize("op", [np.add, np.multiply], ids=["add", "multiply"])
@pytest.mark.parametrize("shape", TERM_SHAPES, ids=str)
@np.errstate(all="ignore")
def test_both_fold_paths_give_the_same_bytes(op, shape):
    for terms in range(1, 17):
        sides = _terms(terms, shape, seed=terms * 31 + len(shape))
        expected = _loop_fold(op, sides).tobytes()
        assert kernels._fold(op, sides).tobytes() == expected, terms
        assert op.accumulate(sides, axis=0)[-1].tobytes() == expected, terms
        # The kernels fold transposed (dims, n) views of (n, dims) rows.
        rows = np.ascontiguousarray(np.moveaxis(sides, 0, -1))
        view = np.moveaxis(rows, -1, 0)
        assert kernels._fold(op, view).tobytes() == expected, terms


def test_the_fold_switch_sits_on_both_sides_of_the_ledger():
    """10-d nodes of 17 boxes take ``accumulate``; 2-d folds and
    2 000-row rounds take the loop (a patched ``accumulate`` is never
    reached)."""
    calls = []

    class Spy:
        def __init__(self, op):
            self.op = op

        def __call__(self, *args, **kwargs):
            return self.op(*args, **kwargs)

        def accumulate(self, *args, **kwargs):
            calls.append(args[0].shape)
            return self.op.accumulate(*args, **kwargs)

    spy = Spy(np.add)
    for shape in [(10, 17), (2, 136), (10, 2000), (2, 17)]:
        kernels._fold(spy, np.ones(shape))
    assert calls == [(10, 17)]


@pytest.mark.parametrize("dims", [1, 2, 3, 10])
@pytest.mark.parametrize("n", [1, 6, 17, 95, 300])
def test_the_fused_pass_returns_the_single_kernels_bytes(dims, n):
    lows, highs, query = _rows(dims, n, seed=70 + dims + n)
    # Degenerate rows: zero extent, the query on a face, -0.0 corners.
    highs[::3] = lows[::3]
    lows[1::4, 0] = query[0]
    lows[2::5] = -0.0
    highs[2::5] = np.maximum(highs[2::5], 0.0)
    dmin, dmm = kernels.batch_minimum_minmax_distance_sq(query, lows, highs)
    assert dmin.tobytes() == (
        kernels.batch_minimum_distance_sq(query, lows, highs).tobytes()
    )
    assert dmm.tobytes() == (
        kernels.batch_minmax_distance_sq(query, lows, highs).tobytes()
    )


def test_the_data_sets_exercise_the_difference():
    """``fsum`` and the left fold disagree on these inputs, so the
    tests above would catch a ``sum()`` coming back."""
    lows, _, query = _rows(10, 2000, seed=10)
    folds = kernels.batch_point_distance_sq(query, lows).tolist()
    exact = [math.fsum((query - p) * (query - p)) for p in lows]
    assert sum(a != b for a, b in zip(folds, exact)) > 100


@pytest.mark.parametrize(
    "case", ["simulate", "serve", "chaos", "serve_faulty", "chaos_control"]
)
def test_run_reports_are_unchanged(fsum_in_reports, case):
    """Every case that writes a RunReport (``disk_mean``), two of them
    with the explain section (fanout ratio, tightness)."""
    hashes, stdout = cli_golden.run_case.__wrapped__(case)
    assert hashes == cli_golden.GOLDEN[case][1]
    assert stdout == cli_golden.GOLDEN_STDOUT[case]


def test_bench_smoke_is_unchanged(fsum_in_reports):
    doc, run_report = cli_golden.bench_smoke.__wrapped__()
    assert cli_golden.sha256(canonical_bytes(json.loads(doc))) == (
        cli_golden.GOLDEN_BENCH_SMOKE
    )
    assert cli_golden.sha256(run_report) == (
        cli_golden.GOLDEN_BENCH_SMOKE_REPORT
    )


def test_scheduler_bench_is_unchanged(fsum_in_reports, tmp_path):
    cli_golden.test_simulated_time_bench_smoke_is_pinned(
        "bench-schedulers", tmp_path
    )
