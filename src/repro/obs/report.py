"""Versioned, deterministic RunReport artifacts.

A :data:`RunReport <REPORT_SCHEMA>` is the machine-comparable record of
one run: the configuration that produced it (plus a digest of it), the
answers' digest, latency percentiles, the mean per-query breakdown,
aggregate counters, resource utilizations, and downsampled timeline
tracks.  Two runs with the same seed produce **byte-identical** report
files — every value is simulated time or a count derived from the
seed; there are no wall-clock fields — which is what lets
``repro diff`` (:mod:`repro.obs.diff`) compare runs mechanically and
CI gate on the comparison.

The module is part of the leaf ``obs`` package: builders take the
workload result and config as duck-typed values and never import the
simulation or algorithm layers.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, IO, Iterable, Mapping, Optional, Sequence, Union

#: Bumped when the report layout changes incompatibly.
REPORT_SCHEMA = "repro-run-report/1"

#: How many equal-width buckets each timeline track is downsampled to.
TIMELINE_BUCKETS = 60

#: Latency percentiles recorded in every report.
PERCENTILES = (0.50, 0.90, 0.95, 0.99)


def fold_mean(values: Sequence[float]) -> float:
    """Mean of *values* (0.0 for none) by an explicit left fold.

    Not the builtin ``sum()``: from Python 3.12 on it compensates float
    rounding, which would move the bytes of every report, explain
    section and bench document that carries a mean.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile of *values*, which must not be empty.

    Every quantile the repo reports or acts on (latency percentiles,
    SLO objectives, hedge delays) is this one; callers check inputs.
    """
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def canonical_report_bytes(doc: Mapping) -> bytes:
    """The report's deterministic serialization (sorted, minified)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def config_digest(config: Mapping) -> str:
    """SHA-256 over the canonical serialization of *config*.

    Two reports are comparable like-for-like exactly when their config
    digests match; ``repro diff`` warns when they differ.
    """
    return hashlib.sha256(canonical_report_bytes(config)).hexdigest()


def answer_digest(records: Iterable) -> str:
    """A stable hash over per-query answers, in arrival order.

    Records append in completion order, which legitimately differs
    between scheduling disciplines; arrival order is invariant.  Each
    record needs ``arrival`` and ``answers`` (of ``oid``/``distance``
    neighbors) — the same digest the benchmark harnesses use.
    """
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: r.arrival):
        for neighbor in record.answers:
            digest.update(f"{neighbor.oid}:{neighbor.distance!r};".encode())
        digest.update(b"|")
    return digest.hexdigest()


def build_run_report(
    kind: str,
    config: Mapping,
    result,
    metrics=None,
    timeline=None,
    label: str = "",
    timeline_buckets: int = TIMELINE_BUCKETS,
    explain=None,
    serving=None,
    health=None,
    hedge=None,
    rebuild=None,
    slo=None,
) -> Dict[str, object]:
    """Distil one workload run into a JSON-ready RunReport document.

    :param kind: what produced the run (``"simulate"``, ``"chaos"``,
        ``"bench"``, …) — recorded, and checked loosely by ``diff``.
    :param config: the full run configuration (dataset, tree, system
        and workload parameters).  Must be JSON-serialisable and free
        of wall-clock values; its digest keys the comparison.
    :param result: a :class:`~repro.simulation.simulator.WorkloadResult`
        (duck-typed — anything with the same aggregate surface).
    :param metrics: optional
        :class:`~repro.obs.metrics.MetricsRegistry`; its snapshot is
        embedded under ``"metrics"``.
    :param timeline: optional :class:`~repro.obs.timeline
        .TimelineSampler`; its tracks are downsampled over the run's
        makespan and embedded under ``"timelines"``.
    :param label: free-form run label (e.g. the algorithm name).
    :param explain: optional
        :class:`~repro.obs.explain.WorkloadExplain` collector; its
        aggregate (pruning efficiency, threshold tightness, the
        declustering heatmap) is embedded under ``"explain"``.  The
        flag is deliberately **not** part of the config digest: an
        explain run stays comparable like-for-like with a plain one.
    :param serving: optional JSON-ready serving-layer section (see
        :meth:`repro.serving.frontend.ServingResult.serving_section`) —
        admission/shedding counts, full-latency percentiles including
        admission wait, and cross-query batching counters.  Embedded
        under ``"serving"`` so ``repro diff`` gates the
        p99-vs-throughput frontier across PRs.
    :param health / hedge / rebuild: optional JSON-ready
        tail-tolerance sections (breaker/EWMA state from
        :meth:`repro.faults.health.DiskHealthMonitor.describe`, hedged
        read counters, online-rebuild progress).  Embedded top-level so
        ``repro diff`` gates ``health.*`` / ``hedge.*`` / ``rebuild.*``
        paths; absent keys keep pre-PR8 reports byte-identical.
    :param slo: optional JSON-ready SLO section (see
        :meth:`repro.obs.slo.SLOTracker.section`) — per-class error
        budgets and multi-window burn rates.  Embedded under ``"slo"``
        so ``repro diff`` gates burn-rate (up-bad) and
        budget-remaining / goodput-margin (down-bad); like ``explain``,
        the flag is not part of the config digest, so an SLO-tracked
        run stays comparable like-for-like with a plain one.
    """
    records = result.records
    report: Dict[str, object] = {
        "schema": REPORT_SCHEMA,
        "kind": kind,
        "label": label,
        "config": dict(config),
        "config_digest": config_digest(config),
        "answer_digest": answer_digest(records),
        "latency": {
            "mean": result.mean_response,
            "max": result.max_response,
            "makespan": result.makespan,
            **{
                f"p{int(fraction * 100)}": result.percentile(fraction)
                for fraction in PERCENTILES
            },
        },
        "breakdown": result.breakdown.as_dict(),
        "counts": {
            "queries": len(records),
            "rounds": sum(r.rounds for r in records),
            "pages_fetched": sum(r.pages_fetched for r in records),
            "buffer_hits": result.total_buffer_hits,
            "coalesced_fetches": result.coalesced_fetches,
            "mean_seek_distance": result.mean_seek_distance,
            "throughput": result.throughput,
            "retries": result.total_retries,
            "fetch_failures": result.total_fetch_failures,
            "failovers": result.total_failovers,
            "partial_queries": result.partial_queries,
            "aborted_queries": result.aborted_queries,
            "deadline_exceeded_queries": result.deadline_exceeded_queries,
        },
        "utilization": {
            "disk": list(result.disk_utilizations),
            "disk_max": (
                max(result.disk_utilizations)
                if result.disk_utilizations
                else 0.0
            ),
            "disk_mean": fold_mean(result.disk_utilizations),
            "bus": result.bus_utilization,
            "cpu": result.cpu_utilization,
        },
    }
    if metrics is not None:
        report["metrics"] = metrics.snapshot()
    if timeline is not None:
        report["timelines"] = timeline.snapshot(
            until=max(result.makespan, timeline.end),
            buckets=timeline_buckets,
        )
    if explain is not None:
        report["explain"] = explain.aggregate()
    if serving is not None:
        report["serving"] = dict(serving)
    if health is not None:
        report["health"] = dict(health)
    if hedge is not None:
        report["hedge"] = dict(hedge)
    if rebuild is not None:
        report["rebuild"] = dict(rebuild)
    if slo is not None:
        report["slo"] = dict(slo)
    return report


def bench_run_report(
    kind: str,
    doc: Mapping,
    metrics: Mapping[str, float],
    config: Mapping,
) -> Dict[str, object]:
    """Wrap a benchmark document's deterministic scalars as a RunReport.

    Each bench module has its own document shape; for ``repro diff``
    :func:`repro.perf.sweep.run_report_envelope` flattens its
    seed-reproducible numeric leaves into *metrics* and calls this.
    """
    return {
        "schema": REPORT_SCHEMA,
        "kind": kind,
        "label": str(doc.get("label", "")),
        "config": dict(config),
        "config_digest": config_digest(config),
        "metrics": dict(metrics),
    }


def write_report(doc: Mapping, path: str) -> None:
    """Write *doc* as stable, diff-friendly JSON (byte-deterministic)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(source: Union[str, IO, Mapping]) -> Dict[str, object]:
    """Load and schema-check a RunReport from a path, file, or dict."""
    if isinstance(source, Mapping):
        doc = dict(source)
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"run report must be a JSON object, got {type(doc)}")
    schema = doc.get("schema")
    if schema != REPORT_SCHEMA:
        raise ValueError(
            f"unsupported run-report schema {schema!r} "
            f"(this build reads {REPORT_SCHEMA!r})"
        )
    return doc


def format_report(doc: Mapping, width: int = 60) -> str:
    """A short terminal rendering of a RunReport."""
    lines = [
        f"run report: kind={doc.get('kind')} label={doc.get('label') or '-'} "
        f"config {doc.get('config_digest', '')[:12]}"
    ]
    latency = doc.get("latency")
    if latency:
        lines.append(
            "  latency   : "
            + "  ".join(
                f"{key} {latency[key]:.4f}s"
                for key in ("mean", "p50", "p95", "p99", "max")
                if key in latency
            )
        )
    utilization = doc.get("utilization")
    if utilization:
        lines.append(
            f"  utilization: disk max {utilization['disk_max']:.3f} / "
            f"mean {utilization['disk_mean']:.3f}, "
            f"bus {utilization['bus']:.3f}, cpu {utilization['cpu']:.3f}"
        )
    timelines = doc.get("timelines")
    if timelines:
        from repro.obs.timeline import sparkline

        label_width = max(len(name) for name in timelines)
        lines.append("  timelines :")
        for name in sorted(timelines):
            track = timelines[name]
            lines.append(
                f"    {name:<{label_width}}  "
                f"{sparkline(list(track['values']))}  "
                f"max {track['max']:g}"
            )
    return "\n".join(lines)


def format_report_details(doc: Mapping) -> str:
    """The full terminal rendering of a RunReport (``repro report show``).

    Extends :func:`format_report` with the identity digests, per-query
    counts, the mean breakdown, per-disk utilizations, the serving /
    tail-tolerance (``health`` / ``hedge`` / ``rebuild``) and ``slo``
    sections when the run recorded them, and — when the run was
    recorded with ``--explain`` — the aggregated EXPLAIN section
    (pruning efficiency, threshold tightness, declustering heatmap).
    """
    lines = [format_report(doc)]
    digest = doc.get("answer_digest")
    if digest:
        lines.append(f"  answers   : digest {digest[:16]}…")
    counts = doc.get("counts")
    if counts:
        lines.append("  counts    :")
        for key in sorted(counts):
            value = counts[key]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"    {key:<26} {rendered}")
    breakdown = doc.get("breakdown")
    if breakdown:
        total = 0.0  # a left fold, as in fold_mean
        for value in breakdown.values():
            if isinstance(value, float):
                total += value
        lines.append("  breakdown : mean per-query seconds")
        for key in sorted(breakdown):
            value = breakdown[key]
            share = f" ({value / total:5.1%})" if total else ""
            lines.append(f"    {key:<26} {value:.6f}{share}")
    utilization = doc.get("utilization") or {}
    disks = utilization.get("disk")
    if disks:
        lines.append("  disks     :")
        for disk_id, value in enumerate(disks):
            lines.append(f"    disk{disk_id:<3} util {value:.3f}")
    metrics = doc.get("metrics")
    if isinstance(metrics, Mapping) and metrics:
        scalars = {
            key: value
            for key, value in metrics.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        if scalars:
            lines.append("  metrics   :")
            for key in sorted(scalars):
                lines.append(f"    {key:<34} {scalars[key]:g}")
    serving = doc.get("serving")
    if serving:
        lines.append("  serving   :")
        s_counts = serving.get("counts") or {}
        lines.append(
            "    outcomes: "
            + "  ".join(
                f"{key} {s_counts.get(key, 0)}"
                for key in ("complete", "degraded", "shed", "rejected")
            )
        )
        s_latency = serving.get("latency") or {}
        if s_latency:
            lines.append(
                "    latency : "
                + "  ".join(
                    f"{key} {s_latency[key]:.4f}s"
                    for key in ("mean", "p50", "p95", "p99", "max")
                    if key in s_latency
                )
            )
        io = serving.get("io") or {}
        if io:
            lines.append(
                f"    io      : {io.get('transactions', 0)} transactions, "
                f"{io.get('logical_pages', 0)} logical pages "
                f"({io.get('transactions_per_page', 0.0):.3f} tx/page)"
            )
        lines.append(f"    goodput : {serving.get('goodput', 0.0):.2f}/s")
        batching = serving.get("batching")
        if batching:
            lines.append(
                f"    batching: {batching.get('batched_transactions', 0)} "
                f"shared transactions, "
                f"{batching.get('shared_pages', 0)} piggybacked pages, "
                f"max dispatch wait "
                f"{batching.get('max_dispatch_wait', 0.0):.4f}s"
            )
    health = doc.get("health")
    if health:
        lines.append(
            f"  health    : {health.get('opens', 0)} breaker opens, "
            f"{health.get('closes', 0)} closes, "
            f"{health.get('ejected', 0)} ejected fetches, "
            f"{health.get('open_drives', 0)} drive(s) open, "
            f"time in open {health.get('time_in_open', 0.0):.4f}s"
        )
        for drive in health.get("drives") or ():
            lines.append(
                f"    drive {str(drive.get('disk', '?')):<5} "
                f"state {drive.get('state', '?'):<9} "
                f"opens {drive.get('opens', 0)} "
                f"ewma {drive.get('ewma_latency', 0.0) or 0.0:.5f}s"
            )
    hedge = doc.get("hedge")
    if hedge:
        lines.append(
            f"  hedge     : {hedge.get('issued', 0)} issued, "
            f"{hedge.get('won', 0)} won, "
            f"{hedge.get('cancelled', 0)} cancelled, "
            f"{hedge.get('wasted_reads', 0)} wasted reads"
        )
    rebuild = doc.get("rebuild")
    if rebuild:
        lines.append(
            f"  rebuild   : {rebuild.get('completed', 0)} completed, "
            f"{rebuild.get('pages_streamed', 0):.0f} pages streamed, "
            f"duration {rebuild.get('duration', 0.0):.4f}s, "
            f"time-to-healthy {rebuild.get('time_to_healthy', 0.0):.4f}s"
        )
    slo = doc.get("slo")
    if slo:
        from repro.obs.slo import format_slo_section

        lines.append("  " + format_slo_section(slo).replace("\n", "\n  "))
    explain = doc.get("explain")
    if explain:
        from repro.obs.explain import format_workload_explain

        lines.append("")
        lines.append(format_workload_explain(explain))
    return "\n".join(lines)
