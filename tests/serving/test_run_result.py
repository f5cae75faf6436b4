"""One run result: everything a served run produced is a declared field.

``ServingResult`` carries the simulated array, the finished updates and
the index latch; ``WorkloadResult`` carries the array and ``ChaosReport``
the workload result.  Being fields, they survive ``dataclasses.replace``
and stay out of every serialised section; a chaos report is the served
run distilled, whichever entry point ran it.
"""

import dataclasses

import pytest

from repro.datasets import sample_queries, uniform
from repro.experiments.setup import build_tree, dataset, make_factory
from repro.faults.chaos import ChaosReport, run_chaos
from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.faults.plan import CrashWindow, FaultPlan, SlowWindow
from repro.faults.policy import RetryPolicy
from repro.parallel import build_parallel_tree
from repro.serving import (
    TrafficScenario,
    no_admission_policy,
    serve_scenario,
    workload_interarrivals,
)
from repro.simulation.system import DiskArraySystem

RIDE_ALONGS = ("system", "updates", "latch", "result")


@pytest.fixture(scope="module")
def mixed_run():
    """A served run with queries, inserts and deletes on a fresh tree."""
    data = uniform(300, 2, seed=5)
    tree = build_parallel_tree(data, dims=2, num_disks=4, max_entries=8)
    queries = sample_queries(data, 12, seed=6)
    inserts = tuple((tuple(p), len(data) + i) for i, p in enumerate(data[:8]))
    deletes = tuple((data[oid], oid) for oid in range(0, 20, 4))
    scenario = TrafficScenario(
        name="mixed",
        queries=tuple(queries),
        interarrivals=tuple(workload_interarrivals(20.0, len(queries), 1)),
        updates=(
            ("insert", inserts, tuple(workload_interarrivals(10.0, 8, 2))),
            ("delete", deletes, tuple(workload_interarrivals(10.0, 5, 3))),
        ),
        seed=1,
    )
    return serve_scenario(
        tree, make_factory("CRSS", tree, 5), scenario,
        policy=no_admission_policy(), seed=1,
    )


@pytest.fixture(scope="module")
def chaos_inputs():
    data = dataset("gaussian", 800, 2, seed=7)
    tree = build_tree("gaussian", 800, 2, 4, seed=7)
    plan = FaultPlan(
        seed=3,
        default_transient_prob=0.02,
        crashes=(CrashWindow(4, 0.0, 2.0),),
        slow_windows=(SlowWindow(3, 0.0, 5.0, 4.0),),
    )
    return dict(
        tree=tree,
        queries=data[:12],
        k=5,
        raid="raid1",
        arrival_rate=20.0,
        seed=7,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, attempt_timeout=0.05),
        deadline=0.5,
        health=HealthPolicy(),
        hedge=HedgePolicy(),
        rebuild=RebuildPolicy(),
    )


def test_replace_keeps_the_served_run(mixed_run):
    copy = dataclasses.replace(mixed_run)
    assert isinstance(mixed_run.system, DiskArraySystem)
    assert copy.system is mixed_run.system
    assert copy.updates is mixed_run.updates and len(copy.updates) == 13
    assert copy.latch is mixed_run.latch is not None
    assert copy.latch.writes_granted == 13
    assert dataclasses.replace(mixed_run.result).system is mixed_run.system


def test_replace_keeps_the_chaos_run(chaos_inputs):
    inputs = dict(chaos_inputs)
    report = run_chaos(inputs.pop("tree"), "FPSS", inputs.pop("queries"),
                       **inputs)
    assert report.result is not None
    assert dataclasses.replace(report).result is report.result


def test_ride_alongs_are_never_serialised(mixed_run, chaos_inputs):
    inputs = dict(chaos_inputs)
    report = run_chaos(inputs.pop("tree"), "FPSS", inputs.pop("queries"),
                       **inputs)
    for section in (report.as_dict(), mixed_run.serving_section()):
        assert not set(RIDE_ALONGS) & set(section)


def test_run_chaos_is_the_served_run_distilled(chaos_inputs):
    """A RAID-1 chaos run with breakers, hedging and rebuild: the report
    ``run_chaos`` writes is the report of a plain ``serve_scenario`` run
    of the same inputs."""
    from repro.serving.traffic import workload_scenario

    inputs = dict(chaos_inputs)
    tree, queries = inputs.pop("tree"), inputs.pop("queries")
    expected = run_chaos(tree, "fpss", queries, **inputs).to_json()

    served = serve_scenario(
        tree,
        make_factory("FPSS", tree, inputs["k"]),
        workload_scenario(queries, inputs["arrival_rate"], inputs["seed"]),
        policy=no_admission_policy(inputs["deadline"]),
        seed=inputs["seed"],
        fault_plan=inputs["fault_plan"],
        retry_policy=inputs["retry_policy"],
        raid="raid1",
        health=inputs["health"],
        hedge=inputs["hedge"],
        rebuild=inputs["rebuild"],
    )
    report = ChaosReport.from_served(
        served,
        algorithm="FPSS",
        raid="raid1",
        k=inputs["k"],
        seed=inputs["seed"],
        deadline=inputs["deadline"],
        plan=inputs["fault_plan"],
    )
    assert report.result is served.result
    assert report.to_json() == expected
    assert report.failovers > 0 and report.hedge["issued"] > 0
