"""Regression tests for the bench harness's determinism contract.

Two ``repro bench`` runs with the same seed must be byte-identical
modulo the wall-clock fields the document itself lists under
``nondeterministic_keys`` — that is what makes ``BENCH_*.json`` files
comparable across machines and across PRs.
"""

import json

import pytest

from repro.perf import bench, sweep


@pytest.fixture(scope="module")
def smoke_docs():
    """Two independent smoke runs with the same seed (module-cached)."""
    return (
        bench.run_bench(smoke=True, seed=7),
        bench.run_bench(smoke=True, seed=7),
    )


def test_same_seed_runs_are_byte_identical(smoke_docs):
    first, second = smoke_docs
    assert bench.canonical_bytes(first) == bench.canonical_bytes(second)


def test_nondeterministic_keys_are_listed_and_stripped(smoke_docs):
    doc, _ = smoke_docs
    assert doc["nondeterministic_keys"] == list(bench.NONDETERMINISTIC_KEYS)

    def keys_of(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield key
                yield from keys_of(value)
        elif isinstance(obj, list):
            for item in obj:
                yield from keys_of(item)

    # The raw document does contain wall-clock fields ...
    assert set(bench.NONDETERMINISTIC_KEYS) <= set(keys_of(doc))
    # ... and the canonical form contains none of them.
    stripped = sweep.strip_nondeterministic(doc)
    assert not set(bench.NONDETERMINISTIC_KEYS) & set(keys_of(stripped))


def test_wall_clock_fields_do_differ_between_runs(smoke_docs):
    """Sanity: the stripping matters — raw dumps are *not* identical."""
    raw = [json.dumps(doc, sort_keys=True) for doc in smoke_docs]
    # Wall times come from perf_counter at nanosecond resolution; two
    # runs colliding on every one would mean the timer never ticked.
    assert raw[0] != raw[1]


def test_answer_digests_depend_on_the_seed(smoke_docs):
    doc, _ = smoke_docs
    other = bench.run_bench(smoke=True, seed=8)
    ours = [
        row["answer_digest"]
        for config in doc["configs"]
        for row in config["algorithms"].values()
    ]
    theirs = [
        row["answer_digest"]
        for config in other["configs"]
        for row in config["algorithms"].values()
    ]
    assert ours != theirs


def test_microbench_meets_speedup_floor(smoke_docs):
    """Acceptance bar: vectorized node scan >= 3x scalar at dims >= 10."""
    doc, _ = smoke_docs
    for dims, row in doc["microbench"].items():
        assert row["speedup"] > 1.0, dims
        if int(dims) >= 10:
            assert row["speedup"] >= 3.0, dims


def test_document_shape(smoke_docs):
    doc, _ = smoke_docs
    assert doc["schema"] == bench.BENCH_SCHEMA
    assert doc["smoke"] is True
    assert doc["seed"] == 7
    for config in doc["configs"]:
        assert set(config["algorithms"]) == {"BBSS", "CRSS", "FPSS", "WOPTSS"}
        for row in config["algorithms"].values():
            assert row["pages_fetched"] > 0
            assert row["simulate"]["pages_fetched"] > 0
            # The Dmin kernel fired, and kernels are the only path.
            counters = row["kernel_counters"]
            assert counters.get("kernels.dmin.vector_entries", 0) > 0
            assert not any("scalar" in key for key in counters)


def test_write_bench_round_trips(tmp_path, smoke_docs):
    doc, _ = smoke_docs
    path = tmp_path / "bench.json"
    bench.write_bench(doc, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(json.dumps(doc))
