"""Online RAID-1 rebuild: pacing, exclusion, progress, validation."""

import math

import pytest

from repro.core import CRSS
from repro.datasets import sample_queries, uniform
from repro.extensions.raid1 import MirroredDiskArraySystem
from repro.faults import CrashWindow, FaultPlan, RetryPolicy
from repro.faults.health import RebuildPolicy, pages_per_disk
from repro.obs.timeline import TimelineSampler
from repro.parallel import build_parallel_tree
from repro.simulation import simulate_workload
from repro.simulation.engine import Environment
from repro.simulation.parameters import SystemParameters


@pytest.fixture(scope="module")
def workload():
    points = uniform(600, 2, seed=15)
    tree = build_parallel_tree(points, dims=2, num_disks=4, max_entries=8)
    queries = sample_queries(points, 15, seed=16)
    factory = lambda q: CRSS(q, 8, num_disks=tree.num_disks)
    return tree, queries, factory


def _crash_plan(phys=0, start=0.05, repair=0.2):
    return FaultPlan(seed=2, crashes=(CrashWindow(phys, start, repair),))


def _run(tree, queries, factory, plan, rebuild, timeline=None, rate=30.0):
    return simulate_workload(
        tree, factory, queries,
        arrival_rate=rate, seed=3,
        fault_plan=plan, retry_policy=RetryPolicy(),
        rebuild=rebuild, timeline=timeline, raid="raid1",
    )


class TestRebuildValidation:
    def test_rebuild_without_fault_plan_rejected(self):
        with pytest.raises(ValueError, match="fault plan"):
            MirroredDiskArraySystem(
                Environment(), 2, rebuild=RebuildPolicy(),
            )

    def test_repairable_crash_needs_page_counts(self):
        with pytest.raises(ValueError, match="rebuild_pages"):
            MirroredDiskArraySystem(
                Environment(), 2,
                fault_plan=_crash_plan(),
                retry_policy=RetryPolicy(),
                rebuild=RebuildPolicy(),
            )

    def test_rebuild_none_stays_passive(self, workload):
        # A finite-repair window without a rebuild policy is the PR3
        # behaviour: the drive silently returns at the repair instant.
        tree, queries, factory = workload
        result = simulate_workload(
            tree, factory, queries, arrival_rate=30.0, seed=3,
            fault_plan=_crash_plan(), retry_policy=RetryPolicy(),
            raid="raid1",
        )
        assert len(result.records) == len(queries)


class TestRebuildRun:
    def test_rebuild_completes_with_stats(self, workload):
        tree, queries, factory = workload
        result = _run(tree, queries, factory, _crash_plan(),
                      RebuildPolicy(rate=400.0, batch_pages=4))
        section = result.system.rebuild_section()
        assert section["completed"] == 1
        assert section["pending"] == 0
        assert section["duration"] > 0.0
        assert section["pages_streamed"] == pages_per_disk(tree)[0]
        # Unavailability spans crash → rebuilt: strictly more than the
        # repair delay alone, and past the rebuild's own duration.
        assert section["time_to_healthy"] > 0.2 - 0.05
        assert section["time_to_healthy"] >= section["duration"]
        drive_stats = section["drives"]["0"]
        assert drive_stats["started"] == pytest.approx(0.2)
        assert drive_stats["finished"] > drive_stats["started"]

    def test_pacing_bounds_duration_below(self, workload):
        # The rebuild cannot stream faster than policy.rate even on an
        # idle array.
        tree, queries, factory = workload
        policy = RebuildPolicy(rate=100.0, batch_pages=2)
        result = _run(tree, queries[:2], factory, _crash_plan(),
                      policy, rate=2.0)
        section = result.system.rebuild_section()
        ideal = section["pages_streamed"] / policy.rate
        assert section["duration"] >= ideal - 1e-9

    def test_slower_rate_takes_longer(self, workload):
        tree, queries, factory = workload
        fast = _run(tree, queries, factory, _crash_plan(),
                    RebuildPolicy(rate=800.0, batch_pages=4))
        slow = _run(tree, queries, factory, _crash_plan(),
                    RebuildPolicy(rate=50.0, batch_pages=4))
        assert (
            slow.system.rebuild_section()["duration"]
            > fast.system.rebuild_section()["duration"]
        )

    def test_progress_track_monotone_zero_to_one(self, workload):
        tree, queries, factory = workload
        sampler = TimelineSampler()
        result = _run(tree, queries, factory, _crash_plan(),
                      RebuildPolicy(rate=200.0, batch_pages=2),
                      timeline=sampler)
        assert result.system.rebuild_section()["completed"] == 1
        track = sampler.track("disk0r0.rebuild")
        values = [value for _, value in track.samples]
        assert values[-1] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert track.samples[0][0] >= 0.2  # nothing before the repair

    def test_replica_excluded_until_rebuilt(self, workload):
        tree, queries, factory = workload
        sampler = TimelineSampler()
        result = _run(tree, queries, factory, _crash_plan(),
                      RebuildPolicy(rate=100.0, batch_pages=2),
                      timeline=sampler)
        system = result.system
        finished = system.rebuild_stats[0]["finished"]
        # While pending-rebuild the drive serves no foreground reads:
        # its only activity is the rebuild writes, so the mirror took
        # every foreground request for the pair.
        rebuilt_model = system.disk_models[0]
        mirror_model = system.disk_models[1]
        assert finished > 0.2
        assert mirror_model.requests_served > rebuilt_model.requests_served

    def test_answers_unchanged_by_rebuild(self, workload):
        tree, queries, factory = workload
        plain = simulate_workload(
            tree, factory, queries, arrival_rate=30.0, seed=3,
            fault_plan=_crash_plan(), retry_policy=RetryPolicy(),
            raid="raid1",
        )
        rebuilt = _run(tree, queries, factory, _crash_plan(),
                       RebuildPolicy(rate=200.0, batch_pages=4))
        by_arrival = lambda res: [
            [n.oid for n in r.answers]
            for r in sorted(res.records, key=lambda r: r.arrival)
        ]
        assert by_arrival(rebuilt) == by_arrival(plain)

    def test_infinite_repair_never_rebuilds(self, workload):
        tree, queries, factory = workload
        plan = FaultPlan(
            seed=2, crashes=(CrashWindow(0, 0.05, math.inf),)
        )
        result = _run(tree, queries, factory, plan, RebuildPolicy())
        section = result.system.rebuild_section()
        assert section["completed"] == 0
        assert section["pages_streamed"] == 0

    def test_determinism(self, workload):
        tree, queries, factory = workload

        def run():
            result = _run(tree, queries, factory, _crash_plan(),
                          RebuildPolicy(rate=200.0, batch_pages=4))
            return result.makespan, result.system.rebuild_section()

        assert run() == run()
