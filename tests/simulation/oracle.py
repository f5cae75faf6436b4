"""``simulate_workload``'s own run loop, kept as the oracle.

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
"""

import random
from typing import Generator, Optional, Sequence

from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.geometry.point import Point
from repro.obs.trace import NULL_TRACER
from repro.simulation.engine import Environment
from repro.simulation.parameters import SystemParameters
from repro.simulation.simulator import (
    AlgorithmFactory,
    SimulatedExecutor,
    WorkloadResult,
    build_disk_array,
    collect_system_stats,
    record_workload_metrics,
)


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
