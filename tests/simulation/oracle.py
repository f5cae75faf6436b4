"""The run loops the serving frontend replaced, kept as oracles.

Before :func:`repro.simulation.simulator.simulate_workload` became a
thin caller of :func:`repro.serving.frontend.serve_scenario`, it ran its
own loop: a Poisson arrival process (or one serial process), an
executor of its own and its own result tail.  That body is moved here
verbatim, except that the executor-wide deadline
(``SimulatedExecutor(deadline=)``, measured from the query's arrival)
became ``deadline_at=env.now + deadline`` in ``run_one`` /
``closed_serial`` — the same instant as the executor's ``arrival``, so
the floats are the same.  The differential test in
``tests/simulation/test_workload_oracle.py`` requires
``simulate_workload`` to return these records, trace records, metrics
and timeline samples, always.

:func:`simulate_mixed_oracle` is, the same way, the loop
:func:`repro.simulation.updates.simulate_mixed_workload` ran before it
became a caller of the frontend: its own environment, array, executor
and index latch, one arrival process per stream and a ``guarded_query``
holding the shared latch.  Its update process is the library's as it
was then, so update rows here count nodes; they equal the library's
charged pages on R*-trees, where every node spans one page.
``tests/simulation/test_mixed_oracle.py`` requires the library to
return these query records, update rows and latch grants.
"""

import random
from typing import Generator, List, Optional, Sequence, Tuple

from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs.trace import NULL_TRACER
from repro.parallel.tree import ParallelRStarTree
from repro.simulation.engine import Environment
from repro.simulation.locks import ReadWriteLock
from repro.simulation.parameters import SystemParameters
from repro.simulation.simulator import (
    AlgorithmFactory,
    SimulatedExecutor,
    WorkloadResult,
    build_disk_array,
    collect_system_stats,
    record_workload_metrics,
)
from repro.simulation.system import DiskArraySystem
from repro.simulation.updates import MixedWorkloadResult, UpdateRecord


def oracle_simulate_workload(
    tree,
    factory: AlgorithmFactory,
    queries: Sequence[Point],
    arrival_rate: Optional[float] = None,
    params: Optional[SystemParameters] = None,
    seed: int = 0,
    tracer=None,
    metrics=None,
    timeline=None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    deadline: Optional[float] = None,
    health: Optional[HealthPolicy] = None,
    raid: str = "raid0",
    hedge: Optional[HedgePolicy] = None,
    rebuild: Optional[RebuildPolicy] = None,
) -> WorkloadResult:
    if not queries:
        raise ValueError("a workload needs at least one query")
    if arrival_rate is not None and arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")

    tracer = NULL_TRACER if tracer is None else tracer
    env = Environment()
    system = build_disk_array(
        env, tree, raid, health=health, hedge=hedge, rebuild=rebuild,
        timeline=timeline, params=params, seed=seed, tracer=tracer,
        metrics=metrics, fault_plan=fault_plan, retry_policy=retry_policy,
    )
    executor = SimulatedExecutor(
        env, system, tree, tracer=tracer, metrics=metrics,
        timeline=timeline,
    )
    result = WorkloadResult()
    arrival_rng = random.Random(seed ^ 0xA5A5A5)

    def deadline_at() -> Optional[float]:
        return None if deadline is None else env.now + deadline

    def run_one(query: Point, qid: int) -> Generator:
        record = yield env.process(
            executor.query_process(
                factory(query), qid=qid, deadline_at=deadline_at()
            )
        )
        result.records.append(record)

    def open_arrivals() -> Generator:
        """Poisson arrivals: exponential interarrival times at rate λ."""
        for qid, query in enumerate(queries):
            yield env.timeout(arrival_rng.expovariate(arrival_rate))
            if tracer.enabled:
                tracer.instant(
                    f"query{qid}", "arrival", "query", env.now, flow=qid
                )
            env.process(run_one(query, qid))

    def closed_serial() -> Generator:
        """Single-user mode: one query in the system at a time."""
        for qid, query in enumerate(queries):
            record = yield env.process(
                executor.query_process(
                    factory(query), qid=qid, deadline_at=deadline_at()
                )
            )
            result.records.append(record)

    if arrival_rate is None:
        env.process(closed_serial())
    else:
        env.process(open_arrivals())
    env.run()

    collect_system_stats(result, system, env)
    if metrics is not None:
        record_workload_metrics(metrics, result, system)
    result.system = system
    return result


def _update_process(
    kind: str,
    env: Environment,
    system: DiskArraySystem,
    tree,
    lock: ReadWriteLock,
    point: Point,
    oid: int,
    result: MixedWorkloadResult,
) -> Generator:
    """Process body performing one *kind* (``"insert"`` / ``"delete"``)
    of ``(point, oid)`` under the write latch.

    The root-to-leaf path is read root first — each page must arrive
    before the next child pointer is known.  The mutation itself is
    instantaneous under the latch; the surviving path pages, leaf
    first, and every page it created are then written back in
    parallel.  Freed pages cost nothing (their blocks are simply
    released).
    """
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
    finally:
        lock.release_write()

    result.updates.append(
        UpdateRecord(
            point=point,
            arrival=arrival,
            completion=env.now,
            pages_read=len(path),
            pages_written=len(dirty),
            pages_created=created,
            kind=kind,
            applied=leaf is not None,
        )
    )


def simulate_mixed_oracle(
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
    if not queries and not inserts and not deletes:
        raise ValueError("a mixed workload needs queries or updates")
    if queries and query_rate <= 0:
        raise ValueError(f"query_rate must be positive, got {query_rate}")
    if inserts and insert_rate <= 0:
        raise ValueError(f"insert_rate must be positive, got {insert_rate}")
    if deletes and delete_rate <= 0:
        raise ValueError(f"delete_rate must be positive, got {delete_rate}")
    if (inserts or deletes) and not isinstance(tree, ParallelRStarTree):
        raise TypeError(
            f"a {type(tree).__name__} cannot take inserts or deletes; "
            f"updates need a ParallelRStarTree (an X-tree is one)"
        )

    env = Environment()
    system = DiskArraySystem(env, tree.num_disks, params=params, seed=seed)
    executor = SimulatedExecutor(env, system, tree)
    lock = ReadWriteLock(env)
    result = MixedWorkloadResult()
    next_oid = first_insert_oid if first_insert_oid is not None else len(tree)

    def guarded_query(query: Point) -> Generator:
        arrival = env.now
        yield lock.acquire_read()
        wait = env.now - arrival
        try:
            record = yield env.process(executor.query_process(factory(query)))
        finally:
            lock.release_read()
        if wait > 0.0:
            # Charged as the serving frontend charges its admission
            # queue, so the breakdown still telescopes.
            record.arrival = arrival
            record.breakdown.admission_wait = wait
        result.queries.records.append(record)

    def query_arrivals() -> Generator:
        rng = random.Random(seed ^ 0x0DDBA11)
        for query in queries:
            yield env.timeout(rng.expovariate(query_rate))
            env.process(guarded_query(query))

    def insert_arrivals() -> Generator:
        nonlocal next_oid
        rng = random.Random(seed ^ 0x145E27)
        for point in inserts:
            yield env.timeout(rng.expovariate(insert_rate))
            env.process(
                _update_process(
                    "insert", env, system, tree, lock, tuple(point),
                    next_oid, result,
                )
            )
            next_oid += 1

    def delete_arrivals() -> Generator:
        rng = random.Random(seed ^ 0xDE1E7E)
        for point, oid in deletes:
            yield env.timeout(rng.expovariate(delete_rate))
            env.process(
                _update_process(
                    "delete", env, system, tree, lock, tuple(point), oid,
                    result,
                )
            )

    if queries:
        env.process(query_arrivals())
    if inserts:
        env.process(insert_arrivals())
    if deletes:
        env.process(delete_arrivals())
    env.run()

    result.queries.makespan = env.now
    result.queries.disk_utilizations = system.disk_utilizations(env.now)
    result.reads_granted = lock.reads_granted
    result.writes_granted = lock.writes_granted
    return result
