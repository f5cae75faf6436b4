"""Tests of the wall-clock harness itself.  Run explicitly:

    python -m pytest benchmarks/wall/test_harness.py -q

Outside tier-1's ``testpaths``.  Everything runs at ``--scale smoke``,
mostly in-process, inside a 30 s budget for the whole file.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402
from run import WORKLOADS, ledger  # noqa: E402

SEED = 11


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("wall-out"))


@pytest.fixture(scope="module")
def traced(out_dir):
    """One traced smoke run of every workload."""
    return {
        name: measure.measure(name, SEED, 0, True, "smoke", out_dir)
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- metric names ------------------------------------------------------------


def test_benchmark_json_lists_the_harness_metrics(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in benchmark_json["end_to_end"]
    ] == layers.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"])
        for m in benchmark_json["per_layer"]
    ] == layers.PER_LAYER


def test_every_named_metric_is_present_with_a_unit(traced, benchmark_json):
    end_to_end = [m["name"] for m in benchmark_json["end_to_end"]]
    per_layer = [m["name"] for m in benchmark_json["per_layer"]]
    for name, document in traced.items():
        assert list(document["end_to_end"]) == end_to_end, name
        assert list(document["per_layer"]) == per_layer, name
        for group in ("end_to_end", "per_layer"):
            for metric, entry in document[group].items():
                assert entry["unit"], (name, metric)
                assert math.isfinite(entry["value"]), (name, metric)
        assert all(
            document["end_to_end"][metric]["value"] > 0
            for metric in end_to_end
        ), name
        assert set(ledger(document)) == set(layers.LEDGER), name
        assert document["failed"] == 0 and document["correct"], name


def test_layers_report_where_they_work_and_idle_where_they_do_not(traced):
    def value(workload, metric):
        return traced[workload]["per_layer"][metric]["value"]

    assert value("build_insert", "share.rtree") > 0.5
    assert value("build_insert", "simulation.run_s") == 0
    assert value("counted_highdim", "simulation.events") == 0
    assert value("counted_highdim", "perf.kernels_s") > 0
    assert value("sim_paper", "simulation.residual_s") > 0
    assert value("sim_paper", "obs.tracer_s") == 0
    assert value("serve_observed", "share.obs") > 0.3
    assert value("serve_observed", "serving.broker_submits") > 0
    assert value("serve_raid1_chaos", "extensions.raid1_fetch_calls") > 0
    assert value("serve_raid1_chaos", "faults.breaker_opens") >= 1
    assert value("mixed_updates", "rtree.delete_s") > 0
    assert value("mixed_updates", "simulation.lock_grants") > 0
    for name in WORKLOADS:
        assert 0 < value(name, "trace.coverage") <= 1, name


# -- the oracle catches planted errors ---------------------------------------


def _uniform_points(count):
    from repro.datasets import uniform

    return uniform(n=count, dims=2, seed=3)


def test_oracle_accepts_the_truth_and_rejects_a_wrong_neighbour():
    from repro.core.results import Neighbor

    points = _uniform_points(200)
    oracle = Oracle(enumerate(points))
    query = (0.4, 0.6)
    ranked = sorted(
        (math.dist(query, point), oid) for oid, point in enumerate(points)
    )
    truth = [Neighbor(d, points[oid], oid) for d, oid in ranked[:5]]
    assert oracle.check(query, 5, truth)
    far_distance, far_oid = ranked[50]
    planted = truth[:4] + [Neighbor(far_distance, points[far_oid], far_oid)]
    assert not oracle.check(query, 5, planted)
    assert not oracle.check(query, 5, truth[:4])


def test_oracle_rejects_a_certified_radius_that_is_too_large():
    from repro.core.results import Neighbor

    points = _uniform_points(200)
    oracle = Oracle(enumerate(points))
    query = (0.4, 0.6)
    ranked = sorted(
        (math.dist(query, point), oid) for oid, point in enumerate(points)
    )
    truth = [Neighbor(d, points[oid], oid) for d, oid in ranked[:5]]
    partial = truth[:1] + truth[2:]  # the second nearest is missing
    honest = ranked[1][0]  # exact only up to the missing object
    assert oracle.check(query, 5, partial, certified_radius=honest)
    assert not oracle.check(query, 5, partial, certified_radius=honest * 2)


def test_planted_errors_raise_failed_share(out_dir):
    from repro.core.results import Neighbor

    workload = workloads.ServeObserved(
        SEED, "smoke", spans.Recorder(), out_dir
    )
    workload.setup()
    raw = workload.body()
    attempted, failed, _ = workload.check(raw)
    assert failed == 0

    served = raw["serving"].queries
    complete = next(q for q in served if q.outcome == "complete")
    point = raw["serving"].scenario.queries[complete.qid]
    held = {neighbor.oid for neighbor in complete.answers}
    far_oid = max(
        (oid for oid in range(len(workload.data)) if oid not in held),
        key=lambda oid: math.dist(point, workload.data[oid]),
    )
    complete.answers[-1] = Neighbor(
        math.dist(point, workload.data[far_oid]), workload.data[far_oid],
        far_oid,
    )
    assert workload.check(raw)[1] == 1

    degraded = next(q for q in served if q.outcome == "degraded")
    degraded.answers = degraded.answers[1:]
    degraded.certified_radius = 10.0
    assert workload.check(raw)[1] == 2


# -- span arithmetic ---------------------------------------------------------


def test_self_time_on_synthetic_nested_spans():
    #      0 ---------------------------- 100   root
    #        10 ------------- 60                child a
    #           20 --- 30                       grandchild
    #                              70 -- 90     child b
    synthetic = [
        ("root", 0, 100, -1, -1),
        ("a", 10, 60, 0, -1),
        ("a", 20, 30, 1, -1),
        ("b", 70, 90, 0, -1),
    ]
    assert spans.self_times(synthetic) == [30, 40, 10, 20]
    assert sum(spans.self_times(synthetic)) == 100
    assert spans.under(synthetic, "a") == [False, True, True, False]
    by_name = spans.totals(synthetic)
    assert by_name["a"]["calls"] == 2
    assert by_name["a"]["self_s"] == pytest.approx(50e-9)
    assert by_name["a"]["total_s"] == pytest.approx(60e-9)
    inside_a = spans.totals(synthetic, keep=spans.under(synthetic, "a"))
    assert set(inside_a) == {"a"}


def test_recorder_nests_wrapped_calls_under_stages():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda: None)
    with recorder.stage("outer"):
        inner()
        inner()
    names = [(s[0], s[3]) for s in recorder.closed()]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]

    def search():
        reply = yield "first"
        reply = yield reply + 1
        return reply * 2

    proxy = recorder.wrap_coroutine("resume", search())
    assert next(proxy) == "first"
    assert proxy.send(4) == 5
    with pytest.raises(StopIteration) as stop:
        proxy.send(21)
    assert stop.value.value == 42
    assert [s[0] for s in recorder.closed()].count("resume") == 3


def test_traced_pass_restores_every_patched_attribute(out_dir):
    probe = spans.install(spans.Recorder())
    originals = [(owner, key, original) for owner, key, original, _ in probe]
    assert len(originals) > 40
    spans.restore(probe)

    def current(owner, key):
        return owner[key] if isinstance(owner, dict) else vars(owner)[key]

    for owner, key, original in originals:
        assert current(owner, key) is original, (owner, key)
    measure.measure("serve_raid1_chaos", SEED, 0, True, "smoke", out_dir)
    for owner, key, original in originals:
        assert current(owner, key) is original, (owner, key)


# -- determinism -------------------------------------------------------------


def test_same_seed_reproduces_simulated_numbers_counts_and_digest(
    traced, out_dir
):
    for name in WORKLOADS:
        again = measure.measure(name, SEED, 0, False, "smoke", out_dir)
        first = traced[name]
        assert again["sim_digest"] == first["sim_digest"], name
        host = layers.HOST_TIME_FACTS
        assert {
            k: v for k, v in again["facts"].items() if k not in host
        } == {k: v for k, v in first["facts"].items() if k not in host}, name


def test_a_different_seed_runs_clean(traced, out_dir):
    for name in WORKLOADS:
        other = measure.measure(name, SEED + 1, 0, False, "smoke", out_dir)
        assert other["failed"] == 0 and other["correct"], name
        assert other["sim_digest"] != traced[name]["sim_digest"], name


# -- compare.py --------------------------------------------------------------


def test_compare_fails_when_a_bounded_simulated_fact_worsens(
    traced, benchmark_json
):
    import copy

    base = [traced["sim_paper"], traced["serve_raid1_chaos"]]
    rows, _, passed = compare.compare(base, base, benchmark_json)
    assert passed and {row[-1] for row in rows} == {"ok"}
    judged = {(row[0], row[1]) for row in rows}
    assert ("sim_paper", "pages_per_op") in judged
    assert ("sim_paper", "sim_served_share") not in judged
    assert ("serve_raid1_chaos", "sim_served_share") in judged

    for name, factor in (("pages_per_op", 1.03), ("sim_response_p99_s", 2.0),
                         ("sim_served_share", 0.9)):
        change = copy.deepcopy(base)
        change[1]["facts"][name] *= factor
        rows, _, passed = compare.compare(base, change, benchmark_json)
        assert not passed, name
        assert [(row[0], row[1]) for row in rows if row[-1] == "worse"] == [
            ("serve_raid1_chaos", name)
        ]
    better = copy.deepcopy(base)
    better[0]["facts"]["pages_per_op"] *= 0.5
    assert compare.compare(base, better, benchmark_json)[2]


# -- the command line --------------------------------------------------------


def test_run_prints_the_driver_summary_last():
    finished = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "counted_highdim", "--seed", "5", "--seconds", "0", "--trace", "0",
         "--scale", "smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=60,
    )
    assert finished.returncode == 0
    last = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert list(last["metrics"]) == [m[0] for m in layers.END_TO_END]
    for name in layers.LEDGER:
        assert name in finished.stdout


def test_run_fails_without_the_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(
        HERE, bare / "benchmarks" / "wall",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    finished = subprocess.run(
        [sys.executable, "benchmarks/wall/run.py", "--workload",
         "build_insert", "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=bare, timeout=60,
    )
    assert finished.returncode != 0
    assert "{" not in finished.stdout
