"""Serving-bench document tests: determinism, dominance, report glue."""

import json

import pytest

from repro.serving import bench as serving_bench
from repro.serving.bench import (
    POLICY_NAMES,
    SERVING_BENCH_SCHEMA,
    canonical_bytes,
    format_summary,
    run_serving_bench,
    to_run_report,
)


@pytest.fixture(scope="module")
def smoke_doc():
    return run_serving_bench(smoke=True, seed=0)


class TestDocument:
    def test_schema_and_grid(self, smoke_doc):
        assert smoke_doc["schema"] == SERVING_BENCH_SCHEMA
        assert smoke_doc["smoke"] is True
        assert smoke_doc["policies"] == list(POLICY_NAMES)
        loads = smoke_doc["config"]["loads"]
        assert len(smoke_doc["points"]) == len(loads) * len(POLICY_NAMES)

    def test_frontier_has_one_curve_per_policy(self, smoke_doc):
        frontier = smoke_doc["frontier_p99_vs_load"]
        loads = list(smoke_doc["config"]["loads"])
        for name in POLICY_NAMES:
            curve = frontier[name]
            assert [point[0] for point in curve] == loads
            assert all(point[1] > 0 for point in curve)

    def test_full_stack_dominates_at_top_load(self, smoke_doc):
        """The acceptance criterion: admission+batching+shedding beats
        no-admission on p99 AND transactions/page at the highest λ
        (run_serving_bench raises otherwise — this pins the recorded
        ratios too)."""
        dominance = smoke_doc["dominance_at_top_load"]
        assert dominance["p99_ratio"] < 1.0
        assert dominance["transactions_per_page_ratio"] < 1.0
        assert dominance["offered_load"] == max(smoke_doc["config"]["loads"])

    def test_shedding_produces_certified_answers_under_overload(
        self, smoke_doc
    ):
        top = max(smoke_doc["config"]["loads"])
        full = next(
            p for p in smoke_doc["points"]
            if p["policy"] == POLICY_NAMES[2] and p["offered_load"] == top
        )
        assert full["shed"] + full["degraded"] > 0
        assert full["certificates"] == full["shed"] + full["degraded"]

    def test_same_seed_byte_identical(self, smoke_doc):
        again = run_serving_bench(smoke=True, seed=0)
        assert canonical_bytes(again) == canonical_bytes(smoke_doc)

    def test_json_round_trip(self, smoke_doc):
        assert json.loads(canonical_bytes(smoke_doc)) == smoke_doc


class TestReportGlue:
    def test_run_report_envelope_flattens_the_points(self, smoke_doc):
        report = to_run_report(smoke_doc)
        assert report["kind"] == "bench-serving"
        assert "config_digest" in report
        metrics = report["metrics"]
        assert any("latency_p99_s" in name for name in metrics)
        assert any("transactions_per_page" in name for name in metrics)

    def test_summary_mentions_every_policy(self, smoke_doc):
        text = format_summary(smoke_doc)
        for name in POLICY_NAMES:
            assert name in text
        assert "p99" in text


class TestGates:
    """Each dominance gate refuses a candidate that only ties its
    baseline, naming the claim, the metric and both values."""

    @pytest.mark.parametrize(
        "metric, claim",
        [
            ("latency_p99_s",
             "admission+batching+shedding beats no-admission"),
            ("transactions_per_page",
             "cross-query batching saves transactions"),
        ],
    )
    def test_a_tie_raises(self, monkeypatch, metric, claim):
        original = serving_bench._run_point
        tied = {}

        def run_point(name, load, tree, scenario, config, seed):
            row = original(name, load, tree, scenario, config, seed)
            if name == POLICY_NAMES[2]:
                baseline = original(
                    POLICY_NAMES[0], load, tree, scenario, config, seed
                )
                row[metric] = tied[load] = baseline[metric]
            return row

        monkeypatch.setattr(serving_bench, "_run_point", run_point)
        with pytest.raises(RuntimeError) as raised:
            run_serving_bench(smoke=True, seed=0)
        value = tied[max(tied)]
        message = str(raised.value)
        assert claim in message
        assert f"{metric} {value:.4f} >= {value:.4f}" in message
