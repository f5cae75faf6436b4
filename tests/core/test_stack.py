"""Tests for the CRSS candidate stack (runs + guards)."""

from repro.core.stack import Candidate, CandidateStack


def candidate(dmin_sq, page_id=0):
    return Candidate(dmin_sq, page_id)


class TestCandidateStack:
    def test_empty(self):
        stack = CandidateStack()
        assert stack.empty
        assert len(stack) == 0
        assert stack.run_count == 0
        assert stack.pop_run() is None

    def test_push_empty_run_is_noop(self):
        stack = CandidateStack()
        stack.push_run([])
        assert stack.empty

    def test_lifo_over_runs(self):
        stack = CandidateStack()
        stack.push_run([candidate(1.0, page_id=1)])
        stack.push_run([candidate(2.0, page_id=2)])
        assert stack.run_count == 2
        assert len(stack) == 2
        first = stack.pop_run()
        assert [c.page_id for c in first] == [2]
        second = stack.pop_run()
        assert [c.page_id for c in second] == [1]
        assert stack.empty

    def test_runs_sorted_by_ascending_dmin(self):
        stack = CandidateStack()
        stack.push_run(
            [candidate(9.0, 1), candidate(1.0, 2), candidate(4.0, 3)]
        )
        run = stack.pop_run()
        assert [c.dmin_sq for c in run] == [1.0, 4.0, 9.0]

    def test_filter_popped_cuts_at_first_failure(self):
        stack = CandidateStack()
        run = [candidate(1.0, 1), candidate(4.0, 2), candidate(9.0, 3)]
        stack.push_run(run)
        popped = stack.pop_run()
        survivors = stack.filter_popped(popped, radius_sq=5.0)
        assert [c.page_id for c in survivors] == [1, 2]

    def test_filter_popped_all_survive(self):
        stack = CandidateStack()
        stack.push_run([candidate(1.0, 1), candidate(2.0, 2)])
        popped = stack.pop_run()
        assert len(stack.filter_popped(popped, radius_sq=100.0)) == 2

    def test_filter_popped_none_survive(self):
        stack = CandidateStack()
        stack.push_run([candidate(10.0, 1)])
        popped = stack.pop_run()
        assert stack.filter_popped(popped, radius_sq=5.0) == []
