"""The CRSS candidate stack (paper §3.3).

Candidate MBRs that have neither been activated nor rejected are pushed
onto a stack organized in *candidate runs* — one run per processing step,
separated by guard entries in the paper's description.  The stack captures
the paper's key structural insight: MBRs near the leaf level carry more
precise information than MBRs near the root, so candidates from deeper
levels must be inspected before returning to shallower ones — exactly a
LIFO discipline over runs.

Within a run, candidates are ordered by ascending ``Dmin`` from the query
point (the paper pushes them in decreasing order, which is the same thing
read from the top).  When a popped run is scanned and a candidate fails
the intersection test against the current query sphere, every later
candidate in that run fails too and the whole remainder is rejected at
once — the computational saving the guard/run organization buys.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, NamedTuple, Optional


class Candidate(NamedTuple):
    """A saved branch: its squared ``Dmin`` and its child page id."""

    dmin_sq: float
    page_id: int


_by_dmin = attrgetter("dmin_sq")


class CandidateStack:
    """A stack of candidate runs with guard-entry semantics."""

    def __init__(self):
        self._runs: List[List[Candidate]] = []

    @property
    def empty(self) -> bool:
        """True when no candidate remains on the stack."""
        return not self._runs

    def __len__(self) -> int:
        """Total candidates across all runs."""
        return sum(len(run) for run in self._runs)

    @property
    def run_count(self) -> int:
        """Number of runs (guard-separated groups) on the stack."""
        return len(self._runs)

    def push_run(self, candidates: List[Candidate]) -> None:
        """Push one run; empty runs are dropped (no guard needed).

        The run is stored sorted by ascending ``Dmin`` so a scan can stop
        at the first candidate outside the query sphere.
        """
        if candidates:
            self._runs.append(sorted(candidates, key=_by_dmin))

    def pop_run(self) -> Optional[List[Candidate]]:
        """Pop the most recent run (``None`` when the stack is empty)."""
        if not self._runs:
            return None
        return self._runs.pop()

    def filter_popped(
        self, run: List[Candidate], radius_sq: float
    ) -> List[Candidate]:
        """Survivors of *run* against the current query sphere.

        Scans in ascending ``Dmin`` order and cuts at the first failure —
        the run-wise rejection the guards enable.
        """
        survivors: List[Candidate] = []
        for candidate in run:
            if candidate.dmin_sq > radius_sq:
                break
            survivors.append(candidate)
        return survivors
