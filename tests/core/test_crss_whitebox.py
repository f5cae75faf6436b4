"""White-box tests of CRSS's batch/mode machinery.

These drive the coroutine by hand and inspect the *sequence* of fetch
requests — the observable trace of the paper's ADAPTIVE → UPDATE →
NORMAL → TERMINATE mode machine.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import CRSS, CountingExecutor
from repro.core.protocol import FetchRequest
from repro.parallel import build_parallel_tree
from tests.core import oracle


def trace_batches(tree, algorithm):
    """Run *algorithm* by hand, returning the list of fetched batches."""
    batches = []
    coroutine = algorithm.run(tree.root_page_id)
    try:
        request = next(coroutine)
        while True:
            assert isinstance(request, FetchRequest)
            batches.append(list(request.pages))
            fetched = {pid: tree.page(pid) for pid in request.pages}
            request = coroutine.send(fetched)
    except StopIteration as stop:
        return batches, stop.value


@pytest.fixture(scope="module")
def tree():
    rng = random.Random(77)
    points = [(rng.random(), rng.random()) for _ in range(500)]
    return build_parallel_tree(points, dims=2, num_disks=4, max_entries=5)


class TestBatchTrace:
    def test_first_batch_is_the_root(self, tree):
        batches, _ = trace_batches(tree, CRSS((0.5, 0.5), 5, num_disks=4))
        assert batches[0] == [tree.root_page_id]

    def test_no_page_fetched_twice(self, tree):
        """CRSS never re-reads a page: each candidate is fetched at most
        once across all batches."""
        for seed in range(5):
            rng = random.Random(seed)
            q = (rng.random(), rng.random())
            batches, _ = trace_batches(tree, CRSS(q, 12, num_disks=4))
            flat = [pid for batch in batches for pid in batch]
            assert len(flat) == len(set(flat))

    def test_batches_respect_bound_u(self, tree):
        batches, _ = trace_batches(tree, CRSS((0.3, 0.7), 20, num_disks=4))
        assert all(len(batch) <= 4 for batch in batches)

    def test_levels_descend_before_stack_resumes(self, tree):
        """Until the leaf level is first reached (ADAPTIVE phase), each
        batch is strictly one level deeper than the previous."""
        batches, _ = trace_batches(tree, CRSS((0.5, 0.5), 8, num_disks=4))
        levels = [
            {tree.page(pid).level for pid in batch} for batch in batches
        ]
        # Phase 1: single-level batches walking down from the root.
        height = tree.height
        for depth, level_set in enumerate(levels[:height]):
            assert level_set == {height - 1 - depth}

    def test_answers_returned_via_stop_iteration(self, tree):
        _, answers = trace_batches(tree, CRSS((0.5, 0.5), 5, num_disks=4))
        assert len(answers) == 5
        reference = [n.oid for n in tree.knn((0.5, 0.5), 5)]
        assert [n.oid for n in answers] == reference

    def test_stack_is_exercised_for_large_k(self, tree):
        """For a k big enough that the first descent can't guarantee the
        answer, CRSS must come back to stacked candidates: some batch
        after the first leaf batch hits an *internal* level again, or
        more leaf batches follow the first one."""
        batches, _ = trace_batches(tree, CRSS((0.5, 0.5), 60, num_disks=4))
        leaf_batches = [
            i
            for i, batch in enumerate(batches)
            if any(tree.page(pid).is_leaf for pid in batch)
        ]
        assert len(leaf_batches) >= 2  # the stack fed further rounds


class PruneLog:
    """The one recorder hook the reduction calls, as a list."""

    def __init__(self):
        self.calls = []

    def prune(self, page_id, reason):
        self.calls.append((page_id, reason))


#: Few distinct values, so Dmin/Dmm tie with each other and sit exactly
#: on the radius all the time — where stable-sort order and the strict
#: vs. non-strict comparisons decide.
distance = st.sampled_from([0.0, 0.25, 0.5, 0.5000000000000001, 1.0, 2.0])
radius = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, math.inf])


@st.composite
def reductions(draw, min_size=0, max_size=14):
    """A frontier with its distances plus radius and the l..u bounds."""
    pairs = draw(
        st.lists(st.tuples(distance, distance), min_size=min_size,
                 max_size=max_size)
    )
    frontier = [100 + i for i in range(len(pairs))]
    return (
        frontier,
        [dmin for dmin, _ in pairs],
        [dmm for _, dmm in pairs],
        draw(radius),
        draw(st.integers(min_value=0, max_value=len(pairs) + 2)),
        draw(st.integers(min_value=1, max_value=len(pairs) + 2)),
        draw(st.sampled_from(["lemma1", "kth"])),
    )


class TestReductionOracle:
    """``CRSS._reduce`` against the entry-by-entry loop it replaced.

    Same active run, same saved run, same order inside each, and the
    same ``explain.prune`` calls in the same order — for every frontier
    length (0, 1, 2, many), with ``max_active`` and ``lower_bound``
    below, at and beyond the number of qualifying branches.
    """

    @staticmethod
    def both(frontier, dmin, dmm, radius_sq, lower, upper, reason):
        search = CRSS((0.0, 0.0), 3, num_disks=upper)
        search.explain = got_log = PruneLog()
        got = search._reduce(frontier, dmin, dmm, radius_sq, lower, reason)
        want_log = PruneLog()
        want = oracle.reduce_candidates(
            frontier, dmin, dmm, radius_sq, lower, upper, reason, want_log
        )
        assert got == want
        assert got_log.calls == want_log.calls
        # Without a recorder the answer is the same one.
        search.explain = None
        assert search._reduce(
            frontier, dmin, dmm, radius_sq, lower, reason
        ) == want
        return got

    @given(reductions())
    def test_generated_frontiers(self, case):
        self.both(*case)

    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_short_frontiers_at_every_bound(self, size):
        frontier = list(range(size))
        for dmin in ([0.5] * size, [1.0, 0.25][:size]):
            for dmm in ([0.5] * size, [0.25, 2.0][:size]):
                for radius_sq in (0.25, 0.5, math.inf):
                    for lower in range(size + 2):
                        for upper in range(1, size + 2):
                            self.both(
                                frontier, dmin, dmm, radius_sq,
                                lower, upper, "lemma1",
                            )

    def test_overflow_and_qualified_interleave_by_dmin(self):
        """``u`` cuts the preferred run; its tail merges into the saved
        run by Dmin, ahead of a qualified branch at the same Dmin."""
        frontier = list(range(6))
        dmin = [0.5, 0.25, 0.5, 0.25, 0.5, 0.0]
        dmm = [0.75, 0.75, 2.0, 2.0, 0.75, 0.75]  # 2.0: not preferred
        active, saved = self.both(
            frontier, dmin, dmm, 1.0, 0, 2, "lemma1"
        )
        assert [c.page_id for c in active] == [5, 1]
        assert [c.page_id for c in saved] == [3, 0, 4, 2]

    def test_lower_bound_promotes_from_the_saved_run(self):
        frontier = list(range(4))
        dmin = [0.5, 0.25, 1.0, 3.0]
        dmm = [2.0] * 4  # nothing preferred
        active, saved = self.both(
            frontier, dmin, dmm, 1.0, 2, 4, "kth"
        )
        assert [c.page_id for c in active] == [1, 0]
        assert [c.page_id for c in saved] == [2]


class TestBusBottleneck:
    def test_huge_bus_time_erases_parallel_advantage(self):
        """With the shared bus dominating, CRSS's intra-query
        parallelism stops paying: every page serializes on the bus, so
        CRSS's response approaches frugal BBSS's."""
        from repro.core import BBSS
        from repro.datasets import sample_queries, uniform
        from repro.simulation import simulate_workload
        from repro.simulation.parameters import SystemParameters

        points = uniform(600, 2, seed=78)
        tree = build_parallel_tree(points, dims=2, num_disks=8,
                                   max_entries=8)
        queries = sample_queries(points, 10, seed=79)
        slow_bus = SystemParameters(bus_time=0.25)  # 250 ms per page!

        def mean(cls):
            return simulate_workload(
                tree,
                lambda q: cls(q, 8, num_disks=8),
                queries,
                arrival_rate=None,
                params=slow_bus,
                seed=80,
            ).mean_response

        bbss = mean(BBSS)
        crss = mean(CRSS)
        # CRSS fetches >= as many pages as BBSS, each paying the bus:
        # with the bus dominating, BBSS is at least as fast.
        assert bbss <= crss * 1.05
