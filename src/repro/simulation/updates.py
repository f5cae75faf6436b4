"""Mixed read/write workloads: queries intermixed with insertions.

The paper's setting is explicitly dynamic (§1: "insertions, deletions
and updates can be intermixed with read-only operations"), and its
trees are built incrementally for exactly that reason — but its
experiments measure read-only workloads.  This module closes the loop:
it serves Poisson streams of k-NN queries *and* insertions and deletions
against the same declustered tree through the serving frontend, whose
index latch (:class:`~repro.simulation.locks.ReadWriteLock`) serializes
structural changes against searches.

An insertion's I/O cost is charged from the real tree operation: the
root-to-leaf path is read sequentially (each level's page must arrive
before the child pointer is known), the modified path pages are written
back, and every page a split creates is written too.  Each page moves
through :meth:`~repro.simulation.system.DiskArraySystem.transfer`, the
path query rounds take, so an X-tree supernode costs its full span.
The in-memory mutation itself is atomic under the write latch, so
concurrent queries never observe a half-built tree.

One deliberate simplification: when an insertion triggers the R*-tree's
forced reinsertion, the entries it relocates may dirty pages off the
original descent path; those writes are charged only insofar as they
create pages.  Reinsertion fires for a small minority of insertions, so
update costs here are a slight *under*-estimate — conservative in the
right direction for the query-latency measurements, which contend with
update traffic.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.simulation.locks import ReadWriteLock
from repro.simulation.parameters import SystemParameters
from repro.simulation.simulator import AlgorithmFactory, WorkloadResult
from repro.simulation.system import DiskArraySystem


@dataclass
class UpdateRecord:
    """Outcome of one simulated structural update (insert or delete)."""

    point: Point
    arrival: float
    completion: float
    #: Pages the descent was charged (a supernode counts its span).
    pages_read: int
    #: Pages the write-back was charged, span by span.
    pages_written: int
    pages_created: int
    #: "insert" or "delete".
    kind: str = "insert"
    #: For deletes: whether the object was found and removed.
    applied: bool = True

    @property
    def response_time(self) -> float:
        """Seconds from arrival to durable completion."""
        return self.completion - self.arrival


@dataclass
class MixedWorkloadResult:
    """Aggregate outcome of a mixed query/update workload, a view of the
    served run: ``queries.makespan`` is the last query's completion."""

    queries: WorkloadResult = field(default_factory=WorkloadResult)
    updates: List[UpdateRecord] = field(default_factory=list)
    #: Lock statistics: grants observed.
    reads_granted: int = 0
    writes_granted: int = 0

    @property
    def mean_update_response(self) -> float:
        """Mean update response time, inserts and deletes alike."""
        return statistics.fmean(u.response_time for u in self.updates)


def update_process(
    kind: str,
    system: DiskArraySystem,
    tree,
    lock: ReadWriteLock,
    point: Point,
    oid: int,
    updates: List[UpdateRecord],
) -> Generator:
    """Process body performing one *kind* (``"insert"`` / ``"delete"``)
    of ``(point, oid)`` under the write latch; its record is appended
    to *updates* when it finishes.

    The root-to-leaf path is read root first — each page must arrive
    before the next child pointer is known.  The mutation itself is
    instantaneous under the latch; the surviving path pages, leaf
    first, and every page it created are then written back in
    parallel.  Freed pages cost nothing (their blocks are simply
    released).
    """
    env = system.env
    arrival = env.now
    grant = lock.acquire_write()
    yield grant
    try:
        inner = tree.tree
        if kind == "insert":
            leaf = inner._choose_subtree(Rect.from_point(point), 0)
        else:
            found = inner._find_leaf(inner.root, point, oid)
            leaf = found[0] if found is not None else None
        if leaf is None:
            # A delete whose object is missing: charge the failed
            # descent, one path's worth of reads, and change nothing.
            path = [tree.root_page_id] * inner.height
        else:
            path = []
            node = leaf
            while node is not None:
                path.append(node.page_id)
                node = node.parent
        spanned = tree.pages_spanned
        pages_read = sum(spanned(page_id) for page_id in path)
        for page_id in reversed(path):  # root first
            yield system.transfer(tree, tree.disk_of(page_id), (page_id,))

        dirty: List[int] = []
        created = 0
        if leaf is not None:
            created_before = inner._next_page_id
            if kind == "insert":
                tree.insert(point, oid)
            else:
                assert tree.delete(point, oid)
            created = inner._next_page_id - created_before
            dirty = [pid for pid in path if pid in inner.pages]
            dirty += [
                pid
                for pid in range(created_before, inner._next_page_id)
                if pid in inner.pages
            ]
            # Page ids are never reused, so the new pages hold no
            # buffered copy; the path's pages (freed ones included) do.
            if system.buffer is not None:
                for page_id in path:
                    system.buffer.invalidate(page_id)
            yield env.all_of([
                system.transfer(tree, tree.disk_of(page_id), (page_id,))
                for page_id in dirty
            ])
        pages_written = sum(spanned(page_id) for page_id in dirty)
    finally:
        lock.release_write()

    updates.append(
        UpdateRecord(
            point=point,
            arrival=arrival,
            completion=env.now,
            pages_read=pages_read,
            pages_written=pages_written,
            pages_created=created,
            kind=kind,
            applied=leaf is not None,
        )
    )


def simulate_mixed_workload(
    tree,
    factory: AlgorithmFactory,
    queries: Sequence[Point],
    inserts: Sequence[Point],
    query_rate: float,
    insert_rate: float,
    params: Optional[SystemParameters] = None,
    seed: int = 0,
    first_insert_oid: Optional[int] = None,
    deletes: Sequence[Tuple[Point, int]] = (),
    delete_rate: float = 0.0,
) -> MixedWorkloadResult:
    """Simulate concurrent Poisson streams of queries and updates.

    :param tree: a placed tree.  With inserts or deletes it must be a
        :class:`~repro.parallel.tree.ParallelRStarTree` (the X-tree is
        one) — **mutated** by the updates, so build a fresh one per run;
        a queries-only run takes any placed tree.
    :param factory: algorithm factory for the queries.
    :param queries: query points.
    :param inserts: points to insert.
    :param query_rate: Poisson λ for query arrivals (queries/second).
    :param insert_rate: Poisson λ for insertion arrivals.
    :param params: system parameters.
    :param seed: seeds the three arrival streams and the disk model.
    :param first_insert_oid: oid assigned to the first inserted point
        (default: ``len(tree)``).
    :param deletes: ``(point, oid)`` pairs to delete (the paper's §1
        names deletions alongside insertions).
    :param delete_rate: Poisson λ for deletion arrivals.
    """
    if not queries and not inserts and not deletes:
        raise ValueError("a mixed workload needs queries or updates")
    if queries and query_rate <= 0:
        raise ValueError(f"query_rate must be positive, got {query_rate}")
    if inserts and insert_rate <= 0:
        raise ValueError(f"insert_rate must be positive, got {insert_rate}")
    if deletes and delete_rate <= 0:
        raise ValueError(f"delete_rate must be positive, got {delete_rate}")

    # Imported here: the serving layer builds on this module.
    from repro.serving import no_admission_policy, serve_scenario
    from repro.serving.traffic import TrafficScenario

    def poisson(rate: float, items: Sequence, salt: int) -> Tuple[float, ...]:
        rng = random.Random(seed ^ salt)
        return tuple(rng.expovariate(rate) for _ in items)

    first = first_insert_oid if first_insert_oid is not None else len(tree)
    inserted = tuple((tuple(p), oid) for oid, p in enumerate(inserts, first))
    deleted = tuple((tuple(point), oid) for point, oid in deletes)
    scenario = TrafficScenario(
        name="mixed",
        queries=tuple(queries),
        interarrivals=poisson(query_rate, queries, 0x0DDBA11),
        seed=seed,
        updates=(
            ("insert", inserted, poisson(insert_rate, inserted, 0x145E27)),
            ("delete", deleted, poisson(delete_rate, deleted, 0xDE1E7E)),
        ),
    )
    served = serve_scenario(
        tree, factory, scenario, policy=no_admission_policy(),
        params=params, seed=seed,
    )
    latch = served.latch
    return MixedWorkloadResult(
        queries=served.result,
        updates=served.updates,
        # Without updates the frontend builds no latch: each query
        # would have had its shared hold granted at once.
        reads_granted=latch.reads_granted if latch else len(queries),
        writes_granted=latch.writes_granted if latch else 0,
    )
