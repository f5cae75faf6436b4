"""Metric names, units and the arithmetic from spans to per-layer numbers.

``BENCHMARK.json`` carries the same names; ``test_harness.py`` checks
the two lists agree.  Layer names are ``repro`` module names.

Three sources feed a per-layer metric, and each metric has one:

* **facts** — simulated times and exact counts read off result objects
  (``WorkloadResult``, ``ServingResult``, broker/hedge/health/rebuild
  sections).  They repeat exactly under a fixed seed.
* **stages** — host seconds of the harness's own calls into the library
  (dataset generation, freeze, save, load, traffic generation, each
  export), medians over the *untraced* set-ups and rounds.
* **spans** — self time and call counts of the wrapped layer-boundary
  callables, from the one traced round (and the traced set-up before
  it).  These include the wrappers' own cost; ``trace.overhead_ratio``
  says how much that is.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from spans import Span, self_times, totals, under

#: (name, unit, better, bound) — what ``--trace 0`` prints.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: The issue's ten-metric ledger, printed per workload by ``run.py``
#: (``null`` where undefined).  Only the three above are defined and
#: non-zero on all six workloads, which is what ``BENCHMARK.json``'s
#: ``end_to_end`` list requires; the rest ride in ``per_layer``.
LEDGER = (
    "setup_s", "ops_per_s", "op_ms_p50", "op_ms_p99", "peak_rss_mb",
    "sim_response_mean_s", "sim_response_p99_s", "sim_served_share",
    "pages_per_op", "failed_share",
)

#: (name, unit, better, bound) — the ledger's simulated and counted
#: metrics.  Some workloads do not define them, so ``BENCHMARK.json``
#: cannot bound them; ``compare.py`` applies the issue's bounds on the
#: workloads that do.  ``op_ms_p50`` and ``op_ms_p99`` are absent: host
#: time, and two sets of runs of one commit spread wider than the 10 %
#: and 15 % the issue gave them, so they are reported and not bounded.
LEDGER_BOUNDS: List[Tuple[str, str, str, float]] = [
    ("sim_response_mean_s", "s", "lower", 0.02),
    ("sim_response_p99_s", "s", "lower", 0.02),
    ("sim_served_share", "share", "higher", 0.02),
    ("pages_per_op", "count", "lower", 0.02),
]

#: Facts that are host time; every other fact repeats exactly.
HOST_TIME_FACTS = ("op_ms_p50", "op_ms_p99")

_ALGS = ("bbss", "fpss", "crss", "woptss")

#: (name, unit, better) — what ``--trace 1`` prints.  0 where a layer is
#: idle or a metric does not apply to the workload.
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        # Ledger metrics that are undefined on some workload.
        ("op_ms_p50", "ms", "lower"),
        ("op_ms_p99", "ms", "lower"),
        ("sim_response_mean_s", "s", "lower"),
        ("sim_response_p99_s", "s", "lower"),
        ("sim_served_share", "share", "higher"),
        ("pages_per_op", "count", "lower"),
        ("datasets.gen_s", "s", "lower"),
        ("rtree.insert_s", "s", "lower"),
        ("rtree.split_s", "s", "lower"),
        ("rtree.splits", "count", "lower"),
        ("rtree.delete_s", "s", "lower"),
        ("rtree.nodes", "count", "lower"),
        ("rtree.height", "count", "lower"),
        ("rtree.leaf_fill", "share", "higher"),
        ("parallel.place_s", "s", "lower"),
        ("parallel.placements", "count", "lower"),
        ("parallel.disk_balance", "ratio", "lower"),
        ("flat.freeze_s", "s", "lower"),
        ("flat.save_s", "s", "lower"),
        ("flat.load_s", "s", "lower"),
        ("flat.bytes_per_object", "B", "lower"),
    ]
    + [(f"core.{alg}.run_s", "s", "lower") for alg in _ALGS]
    + [(f"core.{alg}.rounds_per_op", "count", "lower") for alg in _ALGS]
    + [(f"core.{alg}.pages_per_op", "count", "lower") for alg in _ALGS]
    + [
        ("core.scan_s", "s", "lower"),
        ("core.scan_calls", "count", "lower"),
        ("core.executor_s", "s", "lower"),
        ("perf.kernels_s", "s", "lower"),
        ("perf.kernel_batches", "count", "lower"),
        ("perf.kernel_entries", "count", "lower"),
        ("perf.entries_per_batch", "count", "higher"),
        ("disks.service_s", "s", "lower"),
        ("disks.service_calls", "count", "lower"),
        ("disks.seek_distance_per_call", "cyl", "lower"),
        ("simulation.run_s", "s", "lower"),
        ("simulation.events", "count", "lower"),
        ("simulation.events_per_op", "count", "lower"),
        ("simulation.resource_s", "s", "lower"),
        ("simulation.resource_requests", "count", "lower"),
        ("simulation.buffer_s", "s", "lower"),
        ("simulation.buffer_hit_rate", "share", "higher"),
        ("simulation.lock_grants", "count", "lower"),
        ("simulation.residual_s", "s", "lower"),
        ("simulation.us_per_event", "us", "lower"),
        ("serving.traffic_s", "s", "lower"),
        ("serving.admission_s", "s", "lower"),
        ("serving.offers", "count", "higher"),
        ("serving.rejected_share", "share", "lower"),
        ("serving.shed_share", "share", "lower"),
        ("serving.broker_s", "s", "lower"),
        ("serving.broker_submits", "count", "lower"),
        ("serving.tx_per_page", "ratio", "lower"),
        ("serving.dedup_share", "share", "higher"),
        ("faults.health_s", "s", "lower"),
        ("faults.retries", "count", "lower"),
        ("faults.failovers", "count", "lower"),
        ("faults.hedges_issued", "count", "lower"),
        ("faults.hedges_won_share", "share", "higher"),
        ("faults.breaker_opens", "count", "lower"),
        ("faults.rebuild_pages", "count", "lower"),
        ("extensions.raid1_fetch_calls", "count", "lower"),
        ("extensions.degraded_share", "share", "lower"),
        ("obs.tracer_s", "s", "lower"),
        ("obs.tracer_spans", "count", "lower"),
        ("obs.metrics_s", "s", "lower"),
        ("obs.timeline_s", "s", "lower"),
        ("obs.timeline_samples", "count", "lower"),
        ("obs.lifecycle_s", "s", "lower"),
        ("obs.slo_s", "s", "lower"),
        ("obs.observe_share", "share", "lower"),
        ("obs.report_s", "s", "lower"),
        ("obs.lifecycle_write_s", "s", "lower"),
        ("obs.openmetrics_s", "s", "lower"),
        ("obs.trace_flush_s", "s", "lower"),
        ("obs.trace_write_s", "s", "lower"),
        ("obs.export_bytes", "B", "lower"),
    ]
    # Share of the traced round's host time whose innermost span belongs
    # to the layer.  share.simulation is the DES residual plus resources
    # and buffer; share.harness is round time under no library span.
    + [
        (f"share.{layer}", "share", "lower")
        for layer in ("rtree", "parallel", "flat", "core", "perf", "disks",
                      "simulation", "serving", "faults", "obs", "harness")
    ]
    + [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage", "share", "higher"),
        ("calib_s", "s", "lower"),
    ]
)

#: Span name -> the `_s` metric its self time feeds and, optionally, the
#: count metric its calls feed.
_SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "rtree.insert": ("rtree.insert_s", ""),
    "rtree.split": ("rtree.split_s", "rtree.splits"),
    "rtree.delete": ("rtree.delete_s", ""),
    "parallel.place": ("parallel.place_s", "parallel.placements"),
    "core.scan": ("core.scan_s", "core.scan_calls"),
    "core.executor": ("core.executor_s", ""),
    "perf.kernels": ("perf.kernels_s", ""),
    "disks.service": ("disks.service_s", "disks.service_calls"),
    "simulation.resource": ("simulation.resource_s", ""),
    "simulation.buffer": ("simulation.buffer_s", ""),
    "simulation.run": ("simulation.residual_s", ""),
    "serving.admission": ("serving.admission_s", ""),
    "serving.broker": ("serving.broker_s", ""),
    "faults.health": ("faults.health_s", ""),
    "extensions.raid1_fetch": ("", "extensions.raid1_fetch_calls"),
    **{f"core.{alg}.run": (f"core.{alg}.run_s", "") for alg in _ALGS},
}

#: In-run observer span name -> its `_s` metric.  Observer calls made by
#: the export stages (the timeline and lifecycle flush through the
#: tracer) are excluded: those belong to the export metrics.
_OBSERVER_METRICS = {
    "obs.tracer": "obs.tracer_s",
    "obs.metrics": "obs.metrics_s",
    "obs.timeline": "obs.timeline_s",
    "obs.lifecycle": "obs.lifecycle_s",
    "obs.slo": "obs.slo_s",
}

#: Stage name -> its metric (inclusive seconds, untraced median).
STAGE_METRICS = {
    "datasets.gen": "datasets.gen_s",
    "flat.freeze": "flat.freeze_s",
    "flat.save": "flat.save_s",
    "flat.load": "flat.load_s",
    "serving.traffic": "serving.traffic_s",
    "obs.report": "obs.report_s",
    "obs.lifecycle_write": "obs.lifecycle_write_s",
    "obs.openmetrics": "obs.openmetrics_s",
    "obs.trace_flush": "obs.trace_flush_s",
    "obs.trace_write": "obs.trace_write_s",
}

#: Stages that are harness scaffolding, not library time.
_HARNESS_SPANS = ("round", "setup", "setup.build", "body.serve")


def layer_of(span_name: str) -> str:
    """The share bucket a span's self time falls in."""
    if span_name in _HARNESS_SPANS:
        return "harness"
    head = span_name.split(".", 1)[0]
    if head == "extensions":
        return "faults"
    if head == "datasets":
        return "harness"
    return head


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus numpy loop.

    Divide a host-time metric by this to compare ratios across machines.
    """
    start = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    matrix = np.arange(250_000, dtype=float).reshape(500, 500)
    for _ in range(10):
        matrix = np.sqrt(matrix * matrix + 1.0)
    float(matrix.sum()) + total
    return time.perf_counter() - start


def stage_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Inclusive seconds per stage name over *spans*."""
    return {name: row["total_s"] for name, row in totals(spans).items()}


def median_stages(samples: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per stage name, the median over the samples that recorded it."""
    names = {name for sample in samples for name in sample}
    return {
        name: statistics.median(
            sample[name] for sample in samples if name in sample
        )
        for name in names
    }


def per_layer_metrics(
    facts: Mapping[str, float],
    stages: Mapping[str, float],
    traced_spans: Sequence[Span],
    traced_run_s: float,
    untraced_run_s: float,
    ops: int,
    events: int,
    kernel_batches: int,
    kernel_entries: int,
    calib_s: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric for one workload; see module docstring."""
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    def put(name: str, value: float) -> None:
        if name not in values:
            raise KeyError(f"{name} is not a PER_LAYER metric")
        values[name] = value

    for name, value in facts.items():
        if name in values:
            put(name, value)
    for stage, metric in STAGE_METRICS.items():
        put(metric, stages.get(stage, 0.0))

    by_name = totals(traced_spans)
    for span_name, (seconds_metric, count_metric) in _SPAN_METRICS.items():
        row = by_name.get(span_name)
        if row is None:
            continue
        if seconds_metric:
            put(seconds_metric, row["self_s"])
        if count_metric:
            put(count_metric, row["calls"])
    run_row = by_name.get("simulation.run")
    if run_row is not None:
        put("simulation.run_s", run_row["total_s"])
    resource_row = by_name.get("simulation.resource")
    if resource_row is not None:
        # request and release are both wrapped; one request per pair.
        put("simulation.resource_requests", resource_row["calls"] // 2)

    in_run = totals(traced_spans, keep=under(traced_spans, "simulation.run"))
    observed = 0.0
    for span_name, metric in _OBSERVER_METRICS.items():
        row = in_run.get(span_name)
        if row is not None:
            put(metric, row["self_s"])
            observed += row["self_s"]

    put("simulation.events", events)
    put("simulation.events_per_op", events / ops)
    if events:
        put("simulation.us_per_event",
            values["simulation.residual_s"] / events * 1e6)
    put("perf.kernel_batches", kernel_batches)
    put("perf.kernel_entries", kernel_entries)
    if kernel_batches:
        put("perf.entries_per_batch", kernel_entries / kernel_batches)

    in_round = under(traced_spans, "round")
    own = self_times(traced_spans)
    shares: Dict[str, float] = {}
    for index, span in enumerate(traced_spans):
        if in_round[index]:
            layer = layer_of(span[0])
            shares[layer] = shares.get(layer, 0.0) + own[index] / 1e9
    for layer, seconds in shares.items():
        put(f"share.{layer}", seconds / traced_run_s)
    put("obs.observe_share", observed / traced_run_s)
    uncovered = shares.get("harness", 0.0) + values["simulation.residual_s"]
    put("trace.coverage", 1.0 - uncovered / traced_run_s)
    put("trace.overhead_ratio", traced_run_s / untraced_run_s)
    put("calib_s", calib_s)
    return values
