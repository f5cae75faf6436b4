"""Tests for simulated-time series telemetry (TimelineSampler).

The load-bearing property: attaching a sampler is *purely passive* —
it schedules nothing and draws no randomness, so every simulated
response time is bit-identical with and without one.
"""

import pytest

from repro.datasets import sample_queries
from repro.experiments.setup import make_factory
from repro.obs import Tracer
from repro.obs.trace import CounterRecord
from repro.obs.timeline import TimelineSampler, TimelineTrack, sparkline
from repro.simulation import simulate_workload
from repro.simulation.parameters import SystemParameters


class TestTimelineTrack:
    def test_samples_and_stats(self):
        track = TimelineTrack("q")
        track.set(0.0, 1.0)
        track.set(2.0, 3.0)
        assert track.samples == ((0.0, 1.0), (2.0, 3.0))
        assert len(track) == 2
        assert track.last == 3.0
        assert track.max == 3.0
        # value 1 over [0,2], then horizon extension at value 3
        assert track.mean(until=4.0) == pytest.approx((2.0 + 6.0) / 4.0)

    def test_duplicate_ts_last_write_wins(self):
        track = TimelineTrack("q")
        track.set(1.0, 5.0)
        track.set(1.0, 2.0)
        assert track.samples == ((1.0, 2.0),)
        assert track.last == 2.0
        # The superseded value held for zero width: no weight in the mean.
        assert track.mean(until=2.0) == pytest.approx(2.0)

    def test_empty_track(self):
        track = TimelineTrack("q")
        assert track.samples == ()
        assert track.last == 0.0
        assert track.max == 0.0
        assert track.mean() == 0.0
        assert track.integral(0.0, 10.0) == 0.0
        assert track.downsample(4) == [0.0, 0.0, 0.0, 0.0]

    def test_integral_is_exact(self):
        track = TimelineTrack("q")
        track.set(1.0, 2.0)
        track.set(3.0, 0.0)
        track.set(5.0, 4.0)
        # 0 over [0,1], 2 over [1,3], 0 over [3,5], 4 over [5,∞)
        assert track.integral(0.0, 6.0) == pytest.approx(2 * 2 + 4 * 1)
        assert track.integral(2.0, 4.0) == pytest.approx(2.0)
        assert track.integral(0.0, 0.5) == 0.0
        assert track.integral(6.0, 6.0) == 0.0

    def test_downsample_bucket_means(self):
        track = TimelineTrack("q")
        track.set(0.0, 2.0)
        track.set(2.0, 6.0)
        values = track.downsample(4, 0.0, 4.0)
        assert values == pytest.approx([2.0, 2.0, 6.0, 6.0])
        with pytest.raises(ValueError, match="positive"):
            track.downsample(0)

    def test_end_is_last_sample_ts(self):
        track = TimelineTrack("q")
        assert track.end == 0.0
        track.set(0.5, 1.0)
        track.set(2.5, 0.0)
        assert track.end == 2.5

    def test_summary_shape(self):
        track = TimelineTrack("q")
        track.set(0.0, 1.0)
        summary = track.summary(until=2.0, buckets=3)
        assert summary["samples"] == 1
        assert summary["last"] == 1.0
        assert summary["max"] == 1.0
        assert summary["mean"] == pytest.approx(1.0)
        assert len(summary["values"]) == 3


class TestSparkline:
    def test_scales_to_peak(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_all_zero_renders_floor(self):
        assert sparkline([0.0, 0.0]) == "▁▁"
        assert sparkline([]) == ""

    def test_explicit_peak(self):
        # Against peak 100, a value of 1 rounds to the floor glyph.
        assert sparkline([1.0], peak=100.0) == "▁"

    def test_constant_nonzero_renders_flat_mid_bar(self):
        # Scaled to its own max, a constant series would read as a
        # saturated one; the degenerate case renders flat instead.
        assert sparkline([5.0, 5.0, 5.0]) == "▄▄▄"

    def test_single_sample_renders_flat_mid_bar(self):
        assert sparkline([3.0]) == "▄"

    def test_explicit_peak_overrides_degenerate_flattening(self):
        # A constant series against an external scale is meaningful.
        assert sparkline([100.0, 100.0], peak=100.0) == "██"

    def test_constant_series_matching_peak_zero_is_floor(self):
        assert sparkline([0.0], peak=0.0) == "▁"


class TestTimelineSampler:
    def test_track_get_or_create_and_record(self):
        sampler = TimelineSampler()
        track = sampler.track("a")
        assert sampler.track("a") is track
        sampler.record("a", 1.0, 2.0)
        sampler.record("b", 1.0, 3.0)
        assert sampler.names == ("a", "b")
        assert "a" in sampler and "c" not in sampler
        assert len(sampler) == 2
        assert {t.name for t in sampler} == {"a", "b"}

    def test_end_spans_all_tracks(self):
        sampler = TimelineSampler()
        assert sampler.end == 0.0
        sampler.record("a", 0.0, 1.0)
        sampler.record("b", 3.0, 2.0)
        assert sampler.end == 3.0
        # A horizon clamped up to `end` renders cleanly even when a
        # background track outlives the foreground makespan.
        assert "b" in sampler.render(until=max(1.0, sampler.end))

    def test_snapshot_sorted_by_name(self):
        sampler = TimelineSampler()
        sampler.record("z", 0.0, 1.0)
        sampler.record("a", 0.0, 2.0)
        snapshot = sampler.snapshot(until=1.0, buckets=2)
        assert list(snapshot) == ["a", "z"]
        assert snapshot["a"]["values"] == pytest.approx([2.0, 2.0])

    def test_render_has_one_line_per_track(self):
        sampler = TimelineSampler()
        sampler.record("a", 0.0, 1.0)
        sampler.record("b", 0.0, 2.0)
        lines = sampler.render(until=1.0, width=10).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a")
        assert "max" in lines[0] and "mean" in lines[0]
        assert TimelineSampler().render() == "(no timeline samples recorded)"

    def test_flush_to_tracer_emits_counters(self):
        sampler = TimelineSampler()
        sampler.record("disk0.busy", 0.0, 1.0)
        sampler.record("disk0.busy", 0.5, 0.0)
        sampler.record("bus.busy", 0.25, 1.0)
        tracer = Tracer()
        assert sampler.flush_to_tracer(tracer) == 3
        counters = [
            r for r in tracer.records if isinstance(r, CounterRecord)
        ]
        assert len(counters) == 3
        assert {c.name for c in counters} == {"disk0.busy", "bus.busy"}
        assert all(c.track == "timeline" for c in counters)


class TestSimulationWiring:
    """The simulator populates the documented track names."""

    @pytest.fixture(scope="class")
    def timed_run(self, parallel_tree):
        points = [p for p, _ in parallel_tree.tree.iter_points()]
        queries = sample_queries(points, 8, seed=9)
        timeline = TimelineSampler()
        result = simulate_workload(
            parallel_tree,
            make_factory("CRSS", parallel_tree, 5),
            queries,
            arrival_rate=12.0,
            params=SystemParameters(buffer_pages=4),
            seed=2,
            timeline=timeline,
        )
        return result, timeline

    def test_standard_tracks_present(self, timed_run, parallel_tree):
        _, timeline = timed_run
        for disk in range(parallel_tree.num_disks):
            assert f"disk{disk}.queue_depth" in timeline
        assert "bus.queue_depth" in timeline
        assert "bus.busy" in timeline
        assert "buffer.hit_rate" in timeline
        assert "queries.in_flight" in timeline
        assert "crss.stack_depth" in timeline

    def test_busy_mean_is_utilization(self, timed_run):
        """The time-weighted mean of disk<N>.busy over the makespan IS
        the WorkloadResult's reported utilization for that disk."""
        result, timeline = timed_run
        for disk, utilization in enumerate(result.disk_utilizations):
            track = timeline.track(f"disk{disk}.busy")
            if len(track) == 0:
                assert utilization == 0.0
                continue
            assert track.integral(0.0, result.makespan) / result.makespan \
                == pytest.approx(utilization, rel=1e-9)

    def test_in_flight_starts_and_ends_at_zero(self, timed_run):
        result, timeline = timed_run
        track = timeline.track("queries.in_flight")
        assert track.last == 0.0
        assert track.max >= 1.0

    def test_stack_depth_only_for_crss(self, parallel_tree):
        points = [p for p, _ in parallel_tree.tree.iter_points()]
        queries = sample_queries(points, 4, seed=9)
        timeline = TimelineSampler()
        simulate_workload(
            parallel_tree,
            make_factory("FPSS", parallel_tree, 5),
            queries,
            arrival_rate=12.0,
            seed=2,
            timeline=timeline,
        )
        assert "crss.stack_depth" not in timeline

    @pytest.mark.parametrize("name", ("BBSS", "FPSS", "CRSS", "WOPTSS"))
    def test_sampler_does_not_perturb_the_simulation(
        self, parallel_tree, name
    ):
        """Bit-identity: telemetry is event-driven and consumes no
        randomness, so responses match to the last float bit."""
        points = [p for p, _ in parallel_tree.tree.iter_points()]
        queries = sample_queries(points, 6, seed=5)

        def run(timeline):
            result = simulate_workload(
                parallel_tree,
                make_factory(name, parallel_tree, 4),
                queries,
                arrival_rate=10.0,
                seed=7,
                timeline=timeline,
            )
            return [
                (r.arrival.hex(), r.response_time.hex())
                for r in result.records
            ]

        assert run(None) == run(TimelineSampler())


class TestTailToleranceTracks:
    """PR8: breaker-state and rebuild-progress tracks (satellite 6)."""

    @staticmethod
    def _mirrored_run(parallel_tree, timeline):
        from repro.faults import CrashWindow, FaultPlan, RetryPolicy
        from repro.faults.health import HealthPolicy, RebuildPolicy

        points = [p for p, _ in parallel_tree.tree.iter_points()]
        queries = sample_queries(points, 8, seed=5)
        # The monitor is attached either way; only the sampler varies,
        # so the neutrality test isolates the telemetry itself.
        result = simulate_workload(
            parallel_tree,
            make_factory("CRSS", parallel_tree, 4),
            queries,
            arrival_rate=20.0,
            seed=7,
            fault_plan=FaultPlan(
                seed=2, crashes=(CrashWindow(0, 0.01, 0.1),)
            ),
            retry_policy=RetryPolicy(),
            timeline=timeline,
            health=HealthPolicy(min_samples=2, error_threshold=0.5),
            rebuild=RebuildPolicy(rate=200.0, batch_pages=2),
            raid="raid1",
        )
        return result

    def test_health_and_rebuild_tracks_render(self, parallel_tree):
        timeline = TimelineSampler()
        result = self._mirrored_run(parallel_tree, timeline)
        assert "disk0r0.health" in timeline
        assert "disk0r0.rebuild" in timeline
        # Health tracks hold breaker states only (0/1/2); the rebuild
        # gauge climbs monotonically to 1.
        for name in timeline.names:
            if name.endswith(".health"):
                values = {v for _, v in timeline.track(name).samples}
                assert values <= {0.0, 1.0, 2.0}
        rebuild = timeline.track("disk0r0.rebuild")
        assert rebuild.last == pytest.approx(1.0)
        rendering = timeline.render(until=result.makespan)
        assert "disk0r0.health" in rendering
        assert "disk0r0.rebuild" in rendering

    def test_sampler_neutral_for_tail_tolerance_run(self, parallel_tree):
        def run(timeline):
            result = self._mirrored_run(parallel_tree, timeline)
            return [
                (r.arrival.hex(), r.response_time.hex())
                for r in result.records
            ]

        assert run(None) == run(TimelineSampler())


class TestValueAt:
    """The step-function read-back the SLO window arithmetic rides on."""

    def test_zero_before_first_sample(self):
        track = TimelineTrack("q")
        track.set(1.0, 5.0)
        assert track.value_at(0.0) == 0.0
        assert track.value_at(0.999) == 0.0

    def test_inclusive_at_sample_and_held_after(self):
        track = TimelineTrack("q")
        track.set(1.0, 5.0)
        track.set(2.0, 7.0)
        assert track.value_at(1.0) == 5.0
        assert track.value_at(1.5) == 5.0
        assert track.value_at(2.0) == 7.0
        assert track.value_at(100.0) == 7.0  # held past the last sample

    def test_empty_track_reads_zero_everywhere(self):
        track = TimelineTrack("q")
        assert track.value_at(-1.0) == 0.0
        assert track.value_at(123.0) == 0.0

    def test_duplicate_ts_reads_last_write(self):
        track = TimelineTrack("q")
        track.set(1.0, 5.0)
        track.set(1.0, 2.0)
        assert track.value_at(1.0) == 2.0

    def test_window_difference_on_cumulative_track(self):
        # The exact idiom SLOTracker._window_counts uses.
        track = TimelineTrack("slo.default.total")
        for i in range(1, 6):
            track.set(float(i), i)
        end = 5.0
        assert track.value_at(end) - track.value_at(end - 2.0) == 2
        # A window straddling the run start clamps to "nothing yet".
        assert track.value_at(end) - track.value_at(end - 100.0) == 5


class TestEndEdgeCases:
    """`end` must survive background samples past the makespan."""

    def test_track_end_advances_with_samples(self):
        track = TimelineTrack("q")
        assert track.end == 0.0
        track.set(1.0, 1.0)
        track.set(3.0, 1.0)
        assert track.end == 3.0

    def test_set_before_end_is_rejected(self):
        # Simulated time is monotone; a sample landing before the
        # track's end would corrupt the step function silently.
        track = TimelineTrack("q")
        track.set(3.0, 1.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            track.set(1.0, 2.0)
        assert track.end == 3.0  # the failed set mutated nothing

    def test_double_set_at_end_keeps_single_sample(self):
        track = TimelineTrack("q")
        track.set(2.0, 1.0)
        track.set(2.0, 9.0)
        assert track.end == 2.0
        assert len(track) == 1

    def test_sampler_end_spans_all_tracks(self):
        sampler = TimelineSampler()
        assert sampler.end == 0.0
        sampler.record("foreground", 1.0, 1.0)
        sampler.record("rebuild.pages", 7.5, 4.0)  # past the makespan
        assert sampler.end == 7.5

    def test_sampling_after_makespan_extends_snapshot_horizon(self):
        # A rebuild streaming after the last response must not be cut
        # off: snapshot(until=max(makespan, end)) sees the tail.
        sampler = TimelineSampler()
        sampler.record("rebuild.pages", 0.0, 0.0)
        sampler.record("rebuild.pages", 5.0, 100.0)
        makespan = 2.0
        horizon = max(makespan, sampler.end)
        assert horizon == 5.0
        snapshot = sampler.snapshot(until=horizon, buckets=4)
        assert snapshot["rebuild.pages"]["last"] == 100.0
        assert snapshot["rebuild.pages"]["max"] == 100.0
