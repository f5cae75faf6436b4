"""``simulate_workload`` == its old run loop, bit for bit.

The oracle (``tests/simulation/oracle.py``) is the loop
``simulate_workload`` ran before it became a caller of the serving
frontend.  Both modes (Poisson arrivals and serial single-user) are
run on a fault-free stripe, a degraded stripe and a mirrored array with
every tail-tolerance policy, each with a tracer, a metrics registry and
a timeline attached; records (floats by ``repr``), trace records,
metrics and timeline samples must all agree.
"""

import dataclasses

import pytest

from repro.core import CRSS
from repro.datasets import sample_queries
from repro.faults import CrashWindow, FaultPlan, RetryPolicy, SlowWindow
from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TimelineSampler
from repro.obs.trace import Tracer
from repro.simulation import simulate_workload

from tests.simulation.oracle import oracle_simulate_workload

CONFIGS = {
    "raid0-fault-free": {},
    "raid0-degraded": dict(
        fault_plan=FaultPlan(
            seed=4,
            default_transient_prob=0.03,
            crashes=(CrashWindow(1, 0.05),),
        ),
        retry_policy=RetryPolicy(),
        deadline=0.1,
    ),
    "raid1-tail-tolerant": dict(
        raid="raid1",
        health=HealthPolicy(),
        hedge=HedgePolicy(),
        rebuild=RebuildPolicy(rate=400.0, batch_pages=4),
        fault_plan=FaultPlan(
            seed=6,
            default_transient_prob=0.03,
            crashes=(CrashWindow(2, 0.05, 0.2),),
            slow_windows=(SlowWindow(5, 0.0, 1.0, 8.0),),
        ),
        retry_policy=RetryPolicy(),
        deadline=0.1,
    ),
}


def observed_run(run, tree, queries, arrival_rate, config):
    tracer, metrics, timeline = Tracer(), MetricsRegistry(), TimelineSampler()
    result = run(
        tree,
        lambda q: CRSS(q, 8, num_disks=tree.num_disks),
        queries,
        arrival_rate=arrival_rate,
        seed=3,
        tracer=tracer,
        metrics=metrics,
        timeline=timeline,
        **config,
    )
    return result, {
        "records": [repr(dataclasses.asdict(r)) for r in result.records],
        "aggregates": repr(
            [
                result.makespan,
                result.disk_utilizations,
                result.mean_queue_lengths,
                result.max_queue_lengths,
                result.seek_distances,
                result.disk_requests,
                result.coalesced_fetches,
                result.bus_utilization,
                result.cpu_utilization,
            ]
        ),
        "trace": repr(tracer.records),
        "metrics": repr(metrics.snapshot()),
        "timeline": repr([(t.name, t.samples) for t in timeline]),
    }


@pytest.mark.parametrize("arrival_rate", [30.0, None], ids=["open", "serial"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_simulate_workload_matches_oracle(
    parallel_tree, small_points, arrival_rate, config
):
    queries = sample_queries(small_points, 15, seed=16)
    result, mine = observed_run(
        simulate_workload, parallel_tree, queries, arrival_rate,
        CONFIGS[config],
    )
    _, theirs = observed_run(
        oracle_simulate_workload, parallel_tree, queries, arrival_rate,
        CONFIGS[config],
    )
    assert len(result.records) == len(queries)
    if "deadline" in CONFIGS[config]:
        # The deadline cuts some queries, not all, in both modes.
        assert 0 < result.deadline_exceeded_queries < len(queries)
    for key in theirs:
        assert mine[key] == theirs[key], key
