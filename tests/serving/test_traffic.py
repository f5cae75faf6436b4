"""Metamorphic tests for the traffic-scenario generators.

Satellite 2: same seed → byte-identical arrival traces; scaling λ
scales the mean arrival count proportionally; an MMPP whose two states
share one rate degenerates *exactly* to the Poisson trace of the same
seed (the thinning acceptance draw is skipped at probability 1).
"""

import random

import pytest

from repro.serving.traffic import (
    SCENARIO_KINDS,
    TrafficScenario,
    assign_classes,
    diurnal_trace,
    make_scenario,
    mmpp_trace,
    poisson_trace,
    scenario_from_arrivals,
    workload_interarrivals,
)

GENERATORS = {
    "poisson": lambda seed: poisson_trace(40.0, 2.0, seed=seed),
    "mmpp": lambda seed: mmpp_trace(80.0, 20.0, 2.0, seed=seed),
    "diurnal": lambda seed: diurnal_trace(10.0, 60.0, 2.0, seed=seed),
}


class TestDeterminism:
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_same_seed_byte_identical(self, kind):
        make = GENERATORS[kind]
        assert repr(make(5)) == repr(make(5))

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_different_seeds_differ(self, kind):
        make = GENERATORS[kind]
        assert make(1) != make(2)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_sorted_inside_window(self, kind):
        times = GENERATORS[kind](3)
        assert times == sorted(times)
        assert all(0.0 <= t < 2.0 for t in times)


class TestMetamorphic:
    def test_scaling_lambda_scales_mean_count(self):
        """Tripling λ triples the mean arrival count (law of the
        Poisson process; averaged over seeds so one unlucky draw cannot
        flip the verdict)."""
        seeds = range(40)
        base = [len(poisson_trace(20.0, 4.0, seed=s)) for s in seeds]
        scaled = [len(poisson_trace(60.0, 4.0, seed=s + 1000)) for s in seeds]
        ratio = (sum(scaled) / len(scaled)) / (sum(base) / len(base))
        assert 2.6 < ratio < 3.4

    def test_mmpp_equal_rates_is_exactly_poisson(self):
        assert mmpp_trace(50.0, 50.0, 3.0, seed=9) == poisson_trace(
            50.0, 3.0, seed=9
        )

    def test_flat_diurnal_is_exactly_poisson(self):
        assert diurnal_trace(50.0, 50.0, 3.0, seed=9) == poisson_trace(
            50.0, 3.0, seed=9
        )

    def test_mmpp_bursts_thin_the_candidate_stream(self):
        """With a low base rate most of the horizon runs below the
        envelope, so the trace must shrink — but never to nothing."""
        full = len(poisson_trace(50.0, 3.0, seed=9))
        bursty = len(mmpp_trace(50.0, 10.0, 3.0, seed=9))
        assert 0 < bursty < full

    def test_workload_interarrivals_reproduce_simulate_workload(self):
        """The exact RNG stream ``simulate_workload`` draws for its
        Poisson arrivals — the foundation of the no-op golden test."""
        rng = random.Random(7 ^ 0xA5A5A5)
        expected = [rng.expovariate(30.0) for _ in range(25)]
        assert workload_interarrivals(30.0, 25, seed=7) == expected


class TestValidation:
    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            poisson_trace(0.0, 1.0)
        with pytest.raises(ValueError):
            mmpp_trace(10.0, -1.0, 1.0)

    def test_mmpp_base_cannot_exceed_peak(self):
        with pytest.raises(ValueError, match="envelope"):
            mmpp_trace(10.0, 20.0, 1.0)

    def test_scenario_needs_one_delta_per_query(self, serving_points):
        with pytest.raises(ValueError, match="interarrival"):
            TrafficScenario(
                name="bad",
                queries=tuple(serving_points[:3]),
                interarrivals=(0.1,),
            )

    def test_classes_must_be_per_query(self, serving_points):
        with pytest.raises(ValueError, match="classes"):
            TrafficScenario(
                name="bad",
                queries=tuple(serving_points[:2]),
                interarrivals=(0.1, 0.1),
                classes=("gold",),
            )

    def test_update_streams_are_checked(self, serving_points):
        items = ((serving_points[0], 0), (serving_points[1], 1))
        with pytest.raises(ValueError, match="got 'upsert', 2 deltas"):
            TrafficScenario(
                name="bad", queries=(), updates=(("upsert", items, (1, 1)),)
            )
        with pytest.raises(ValueError, match="got 'delete', 1 deltas for 2"):
            TrafficScenario(
                name="bad", queries=(), updates=(("delete", items, (1,)),)
            )
        with pytest.raises(ValueError, match="at least one query or update"):
            TrafficScenario(
                name="bad", queries=(), updates=(("insert", (), ()),)
            )
        updates_only = TrafficScenario(
            name="ok", queries=(), updates=(("insert", items, (0.1, 0.2)),)
        )
        assert updates_only.arrival_times == []


class TestScenarios:
    def test_arrival_times_accumulate_deltas(self, serving_points):
        scenario = scenario_from_arrivals(
            "t", serving_points[:3], [0.5, 0.7, 1.1]
        )
        assert scenario.arrival_times == pytest.approx([0.5, 0.7, 1.1])

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_every_kind_builds(self, serving_points, kind):
        scenario = make_scenario(
            kind, serving_points, rate=40.0, horizon=1.0, seed=3,
            clients=3, queries_per_client=4,
        )
        assert scenario.name == kind
        if kind == "closed":
            assert scenario.closed_loop
            assert len(scenario.queries) == 12
            assert scenario.interarrivals == ()
        else:
            assert not scenario.closed_loop
            assert len(scenario.interarrivals) == len(scenario.queries)

    def test_unknown_kind_rejected(self, serving_points):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("storm", serving_points, rate=1.0, horizon=1.0)

    def test_hotspot_skews_query_points(self, serving_points):
        plain = make_scenario(
            "poisson", serving_points, rate=40.0, horizon=1.0, seed=3
        )
        hot = make_scenario(
            "hotspot", serving_points, rate=40.0, horizon=1.0, seed=3
        )
        # Same arrivals (both Poisson at the seed), different points.
        assert hot.interarrivals == plain.interarrivals
        assert hot.queries != plain.queries

    def test_same_seed_scenarios_identical(self, serving_points):
        a = make_scenario(
            "bursty", serving_points, rate=60.0, horizon=1.0, seed=5
        )
        b = make_scenario(
            "bursty", serving_points, rate=60.0, horizon=1.0, seed=5
        )
        assert a == b

    def test_assign_classes_deterministic_and_weighted(self):
        classes = assign_classes(
            200, [("gold", 1.0), ("batch", 3.0)], seed=2
        )
        assert classes == assign_classes(
            200, [("gold", 1.0), ("batch", 3.0)], seed=2
        )
        assert classes.count("batch") > classes.count("gold")

    def test_class_of_defaults_to_empty(self, serving_points):
        scenario = scenario_from_arrivals("t", serving_points[:2], [0.1, 0.2])
        assert scenario.class_of(0) == ""
        assert scenario.class_of(1) == ""
