"""Tests for the fault-aware serving benchmark (BENCH_PR8)."""

import json

import pytest

from repro.obs.diff import diff_reports
from repro.obs.report import load_report
from repro.serving import chaos_bench
from repro.serving.chaos_bench import (
    CHAOS_SERVING_BENCH_SCHEMA,
    REBUILD_ARMS,
    STACK_NAMES,
    canonical_bytes,
    format_summary,
    run_chaos_serving_bench,
    to_run_report,
)


@pytest.fixture(scope="module")
def smoke_doc():
    return run_chaos_serving_bench(smoke=True, seed=0)


class TestDocument:
    def test_schema_and_shape(self, smoke_doc):
        assert smoke_doc["schema"] == CHAOS_SERVING_BENCH_SCHEMA
        assert smoke_doc["stacks"] == list(STACK_NAMES)
        loads = smoke_doc["config"]["loads"]
        assert len(smoke_doc["points"]) == len(loads) * len(STACK_NAMES)
        assert set(smoke_doc["rebuild_arms"]) == set(REBUILD_ARMS)

    def test_every_point_accounts_all_offered(self, smoke_doc):
        for point in smoke_doc["points"]:
            assert (
                point["complete"] + point["degraded"] + point["shed"]
                + point["rejected"]
                == point["offered"]
            )

    def test_hedged_points_carry_tail_counters(self, smoke_doc):
        hedged = [
            p for p in smoke_doc["points"] if p["stack"] == "hedged+breakers"
        ]
        assert hedged
        for point in hedged:
            assert "hedges_issued" in point
            assert "breaker_opens" in point
        assert any(p["hedges_issued"] > 0 for p in hedged)

    def test_dominance_recorded_and_strict(self, smoke_doc):
        dom = smoke_doc["dominance_at_top_load"]
        assert dom["p99_ratio"] < 1.0
        assert dom["time_to_healthy_ratio"] < 1.0

    def test_rebuild_arm_streams_pages(self, smoke_doc):
        rebuilt = smoke_doc["rebuild_arms"]["rebuild"]
        assert rebuilt["rebuild_completed"] == 1
        assert rebuilt["rebuild_pages"] > 0
        assert (
            rebuilt["time_to_healthy_s"]
            < smoke_doc["rebuild_arms"]["no-repair"]["time_to_healthy_s"]
        )

    def test_smoke_is_deterministic(self, smoke_doc):
        again = run_chaos_serving_bench(smoke=True, seed=0)
        assert canonical_bytes(again) == canonical_bytes(smoke_doc)

    def test_format_summary_renders(self, smoke_doc):
        text = format_summary(smoke_doc)
        assert "hedged+breakers" in text
        assert "time-to-healthy" in text


class TestRunReport:
    def test_round_trips_through_diff(self, smoke_doc, tmp_path):
        report = to_run_report(smoke_doc)
        path = tmp_path / "pr8.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True))
        loaded = load_report(str(path))
        result = diff_reports(loaded, loaded)
        assert not result.regressions

    def test_metrics_flatten_the_dominance(self, smoke_doc):
        report = to_run_report(smoke_doc)
        metrics = report["metrics"]
        assert any(
            key.endswith("foreground_p99_inflation") for key in metrics
        )
        assert any(
            key.endswith("time_to_healthy_ratio") for key in metrics
        )


class TestCommittedBench:
    def test_bench_pr8_matches_schema_and_dominates(self):
        with open("BENCH_PR8.json", "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["schema"] == CHAOS_SERVING_BENCH_SCHEMA
        assert doc["smoke"] is False
        dom = doc["dominance_at_top_load"]
        assert dom["p99_ratio"] < 1.0
        assert dom["time_to_healthy_ratio"] < 1.0



class TestGates:
    """Each gate refuses an arm that only ties its baseline, naming the
    claim, the metric and both values."""

    @pytest.mark.parametrize(
        "arm, stand_in, metric, claim",
        [
            ("hedged+breakers", "full-serving", "latency_p99_s",
             "hedged+breakers beats full-serving"),
            ("rebuild", "no-repair", "time_to_healthy_s",
             "online rebuild beats no-repair"),
        ],
    )
    def test_a_tie_raises(self, monkeypatch, arm, stand_in, metric, claim):
        """The candidate arm runs as its baseline, so the two tie."""
        serve, gate = chaos_bench._serve, chaos_bench.strictly_below
        compared = []

        def tied_serve(tree, scenario, config, seed, name):
            name = stand_in if name == arm else name
            return serve(tree, scenario, config, seed, name)

        def watched_gate(candidate, baseline, gated, text):
            compared.append((gated, candidate[gated], baseline[gated]))
            return gate(candidate, baseline, gated, text)

        monkeypatch.setattr(chaos_bench, "_serve", tied_serve)
        monkeypatch.setattr(chaos_bench, "strictly_below", watched_gate)
        with pytest.raises(RuntimeError) as raised:
            run_chaos_serving_bench(smoke=True, seed=0)
        gated, value, base = compared[-1]
        assert gated == metric and value == base
        message = str(raised.value)
        assert claim in message
        assert f"{metric} {value:.4f} >= {base:.4f}" in message
