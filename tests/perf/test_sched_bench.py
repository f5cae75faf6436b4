"""Regression tests for the scheduler-comparison bench.

The document carries no wall-clock values at all — every number is
simulated time derived from the seed — so two runs with the same seed
must serialize byte-identically, and the improvement claims the PR makes
(SSTF/SCAN strictly beat FCFS on seek distance and response time under
contention) are asserted here against the smoke workload.
"""

import json

import pytest

from repro.perf import sched_bench


@pytest.fixture(scope="module")
def smoke_docs():
    """Two independent smoke runs with the same seed (module-cached)."""
    return (
        sched_bench.run_sched_bench(smoke=True, seed=0),
        sched_bench.run_sched_bench(smoke=True, seed=0),
    )


def test_same_seed_runs_are_byte_identical(smoke_docs):
    first, second = smoke_docs
    assert sched_bench.canonical_bytes(first) == sched_bench.canonical_bytes(
        second
    )


def test_document_shape(smoke_docs):
    doc, _ = smoke_docs
    assert doc["schema"] == sched_bench.SCHED_BENCH_SCHEMA
    assert doc["smoke"] is True
    assert [v["name"] for v in doc["variants"]] == [
        name for name, _, _ in sched_bench.VARIANTS
    ]
    for variant in doc["variants"]:
        assert variant["response_mean_s"] > 0
        assert variant["disk_requests"] > 0
        assert variant["mean_seek_distance"] > 0


def test_answers_agree_across_variants(smoke_docs):
    doc, _ = smoke_docs
    digests = {v["answer_digest"] for v in doc["variants"]}
    assert len(digests) == 1


def test_seek_aware_variants_strictly_improve(smoke_docs):
    """The PR's acceptance bar: SSTF and SCAN beat FCFS on both mean
    seek distance and mean response time under the contended multi-user
    workload."""
    doc, _ = smoke_docs
    for name in ("sstf", "scan"):
        row = doc["improvement_vs_fcfs"][name]
        assert row["response_mean_ratio"] < 1.0, name
        assert row["seek_distance_ratio"] < 1.0, name


def test_coalescing_variant_groups_requests(smoke_docs):
    doc, _ = smoke_docs
    by_name = {v["name"]: v for v in doc["variants"]}
    assert by_name["sstf+coalesce"]["coalesced_fetches"] > 0
    assert all(
        v["coalesced_fetches"] == 0
        for name, v in by_name.items()
        if name != "sstf+coalesce"
    )


def test_write_round_trips(tmp_path, smoke_docs):
    doc, _ = smoke_docs
    path = tmp_path / "sched.json"
    sched_bench.write_bench(doc, str(path))
    assert json.loads(path.read_text()) == json.loads(json.dumps(doc))


def test_disagreeing_answers_raise(monkeypatch):
    """The answers-agree gate names the claim, the metric and every
    variant's digest when one variant's answers differ."""
    run_variant = sched_bench._run_variant

    def wrong_sstf(name, *args):
        row = run_variant(name, *args)
        if name == "sstf":
            row["answer_digest"] = "f" * 64
        return row

    monkeypatch.setattr(sched_bench, "_run_variant", wrong_sstf)
    with pytest.raises(RuntimeError) as raised:
        sched_bench.run_sched_bench(smoke=True, seed=0)
    message = str(raised.value)
    assert "scheduling never changes answers" in message
    assert "answer_digest" in message
    assert "sstf=ffffffffffff" in message
    assert "fcfs=" in message and "fcfs=ffffffffffff" not in message
