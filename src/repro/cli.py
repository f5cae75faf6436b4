"""Command-line interface.

The subcommands cover the library's everyday uses without writing
Python:

* ``repro info`` — build a declustered tree and print its shape and
  placement statistics;
* ``repro knn`` — answer one k-NN query with a chosen algorithm and
  report the I/O it paid;
* ``repro simulate`` — run a Poisson multi-user workload through the
  disk-array simulation and print per-algorithm response times (with
  tail percentiles and a per-component time breakdown); ``--trace``
  additionally writes a span trace per algorithm, as JSONL or as
  Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``;
* ``repro bench`` — run the reproducible benchmark suite (fixed seeded
  trees, fixed query/simulate workloads, the node-scan microbench) and
  write the ``BENCH_*.json`` trajectory point; ``--smoke`` shrinks it
  to CI size;
* ``repro bench-schedulers`` — compare per-disk queue disciplines
  (FCFS / SSTF / SCAN / C-LOOK, plus request coalescing) on the
  multi-user workload and write ``BENCH_PR4.json``; ``simulate`` and
  ``chaos`` accept the same ``--scheduler``/``--coalesce`` knobs;
* ``repro serve`` — multiplex a traffic scenario (Poisson, bursty
  MMPP, diurnal, hot-spot skew, or closed-loop clients) through the
  serving frontend: admission control with priority classes and queue
  bounds, the cross-query fetch broker that merges same-disk page
  requests from different in-flight queries, and deadline shedding
  that returns certified-radius degraded answers instead of timing
  out; accepts the ``simulate`` scheduler/obs knobs;
* ``repro bench-serving`` — sweep the serving policies
  (no-admission / admission-only / admission+batching+shedding) over
  offered load and write the p99-vs-throughput frontier to
  ``BENCH_PR7.json``;
* ``repro chaos`` — replay a seeded workload under a fault plan
  (disk crashes, fail-slow windows, transient read errors) on RAID-0
  or mirrored RAID-1, and report robustness metrics: retries,
  failovers, partial/aborted queries and the certified-radius
  distribution; ``--out`` writes the JSON report; ``serve`` accepts
  the same fault-plan knobs, and both take the tail-tolerance flags
  (``--health`` circuit breakers, ``--hedge`` mirrored hedged reads,
  ``--rebuild`` online RAID-1 rebuild);
* ``repro bench-chaos-serving`` — sweep fault-aware serving (hedging +
  breakers vs the plain serving stack, rebuild vs no-repair) under a
  fail-slow + crash plan and write ``BENCH_PR8.json``;
* ``repro diff`` — compare two RunReport artifacts metric by metric,
  classify each run disk-/bus-/CPU-bound from its utilization tracks,
  and exit non-zero on regression — the CI perf gate;
* ``repro explain`` — answer one k-NN query and print its traversal
  decision trace: per-level visit/prune counts with pruning reasons,
  the Lemma-1 threshold trajectory, CRSS mode transitions, and a
  per-disk × per-round access heatmap; ``--out`` writes the full
  decision log as a deterministic JSON artifact.  ``simulate`` and
  ``chaos`` accept ``--explain`` to aggregate the same traces over a
  workload (and embed them in ``--report`` artifacts, where
  ``repro diff`` gates the pruning-efficiency scores);
* ``repro report show`` — pretty-print one RunReport artifact;
* ``repro top`` — replay a serving RunReport as a terminal dashboard:
  per-class SLO burn bars, the outcome split, per-disk queue/breaker
  sparklines, and (with ``--lifecycle``) the slowest-query tail;
* ``repro bench index`` — scan a directory for ``BENCH_*.json`` and
  print a one-line schema/label/seed/headline table per artifact.

``serve`` additionally takes the observability quartet (none of which
enters the config digest or perturbs the simulation): ``--slo`` scores
the run against per-priority-class latency-quantile + goodput
objectives with multi-window error-budget burn rates (printed, and
embedded in ``--report`` artifacts where ``repro diff`` gates budget
burn); ``--lifecycle-log PATH`` writes one JSONL record per query
stitching admission, batching, per-round I/O and the final outcome;
``--metrics-out PATH`` writes a byte-deterministic OpenMetrics /
Prometheus text exposition; ``--trace PATH`` adds per-query async
spans to the Chrome trace export.

``simulate`` and ``chaos`` accept ``--timeline`` (render the run's
simulated-time series as ASCII sparklines; with ``--trace`` the series
also land in the Chrome export as counter tracks) and ``--report PATH``
(write a deterministic RunReport artifact for ``repro diff``); the
bench subcommands accept ``--report`` too.

Every command that only reads the index (``knn``, ``explain``,
``simulate``, ``serve``, ``chaos``) builds the R*-tree by insertion and
then freezes it once into the flat struct-of-arrays form
(:mod:`repro.rtree.flat`) the batch kernels scan; ``info`` reports on
the build form.  Neither is selectable: there is one read side.

The commands that run a workload (``simulate``, ``serve``, ``chaos``,
and for the stages that apply ``knn`` / ``explain``) describe it once,
as one pipeline whose every stage is a single function here:

1. **flags** — one declaration per argument group (tree, array,
   redundancy + fault plan, tail tolerance, observers, trace,
   SLO/lifecycle); a command takes the groups that apply to it;
2. **checks** — ``main`` verifies every output directory up front and
   is the one place where a ``ValueError`` / ``OSError`` raised by bad
   input becomes a clean exit; ``_algorithm`` vets algorithm names;
3. **policies** — ``_system_parameters``, ``_fault_policies``,
   ``_tail_policies``, ``_serve_policy``: flags → the objects the
   library entry points take;
4. **observers** — ``_make_observers`` creates exactly the
   tracer / timeline / metrics / explain / lifecycle / SLO objects the
   flags ask for;
5. **run** — ``_run_workload``, the one body of ``simulate`` /
   ``serve`` / ``chaos``: frozen tree → observers → ``serve_scenario``
   → the verb's printer → export; a verb brings its scenario, policy,
   fault/tail policies, label and printer;
6. **config** — ``_run_config`` composes the RunReport ``config``
   section (and so the config digest) from per-group key tuples;
7. **export** — ``_export`` flushes the observers into the tracer and
   writes report → lifecycle log → OpenMetrics → trace, in that order.

The four ``bench*`` verbs are one parser loop and one body over
``_BENCH_VERBS``.

Invoke via ``python -m repro <subcommand> --help``.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core import ALGORITHMS, CountingExecutor
from repro.datasets import DATASETS, sample_queries
from repro.experiments.paper import PAPER_EXPERIMENTS, run_paper_experiment
from repro.experiments.report import (
    format_breakdown_table,
    format_percentile_table,
    format_table,
)
from repro.experiments.setup import make_factory
from repro.faults import (
    ChaosReport,
    FaultPlan,
    RetryPolicy,
    parse_crash_spec,
    parse_slow_spec,
)
from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.obs import (
    TRACE_FORMATS,
    ExplainRecorder,
    LifecycleLog,
    MetricsRegistry,
    SLOTracker,
    TimelineSampler,
    Tracer,
    WorkloadExplain,
    build_run_report,
    diff_reports,
    explain_artifact,
    flatten_scalars,
    format_explain,
    format_report,
    format_report_details,
    format_slo_section,
    load_lifecycle_jsonl,
    load_report,
    replay,
    slo_from_policy,
    write_explain,
    write_openmetrics,
    write_report,
    write_trace,
)
from repro.obs.slo import DEFAULT_BURN_WINDOWS
from repro.parallel import build_parallel_tree
from repro.parallel.declustering import make_policy
from repro.rtree.flat import flatten
from repro.serving import (
    SCENARIO_KINDS,
    PriorityClass,
    ServingPolicy,
    make_scenario,
    no_admission_policy,
    serve_scenario,
    workload_scenario,
)
from repro.simulation.parameters import SystemParameters
from repro.simulation.scheduling import SCHEDULERS


# -- Stage 1 — flags: one declaration per argument group.


def _add_tree_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="gaussian",
        choices=sorted(DATASETS),
        help="data set generator (default: gaussian)",
    )
    parser.add_argument(
        "--n", type=int, default=10_000, help="population (default: 10000)"
    )
    parser.add_argument(
        "--dims", type=int, default=2, help="dimensionality (default: 2)"
    )
    parser.add_argument(
        "--disks", type=int, default=10, help="disks in the array (default: 10)"
    )
    parser.add_argument(
        "--page-size", type=int, default=4096,
        help="disk page size in bytes (default: 4096)",
    )
    parser.add_argument(
        "--policy",
        default="proximity",
        choices=["proximity", "round_robin", "random", "data_balance",
                 "area_balance"],
        help="declustering heuristic (default: proximity)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="RNG seed (default: 0)"
    )


def _add_k_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--k", type=int, default=10, help="neighbors (default: 10)"
    )


def _add_workload_arguments(
    parser: argparse.ArgumentParser, queries: int, arrival_rate: float
) -> None:
    """The traffic ``simulate`` and ``chaos`` serve (their defaults
    differ)."""
    parser.add_argument(
        "--queries", type=int, default=queries,
        help=f"queries in the workload (default: {queries})",
    )
    parser.add_argument(
        "--arrival-rate", type=float, default=arrival_rate,
        help="Poisson λ in queries/second; 0 for single-user serial mode "
        f"(default: {arrival_rate:g})",
    )


def _algorithm_name(text: str) -> str:
    return text.strip().upper()


def _add_single_query_arguments(parser: argparse.ArgumentParser) -> None:
    """The one query ``knn`` and ``explain`` answer."""
    _add_k_argument(parser)
    parser.add_argument(
        "--algorithm",
        default="CRSS",
        type=_algorithm_name,
        choices=sorted(ALGORITHMS),
        help="search algorithm (default: CRSS)",
    )
    parser.add_argument(
        "--query",
        default="",
        help="comma-separated query point (default: sampled from the data)",
    )


def _add_array_arguments(parser: argparse.ArgumentParser) -> None:
    """The disk array's timing model: what becomes SystemParameters."""
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULERS,
        default="fcfs",
        help="per-disk queue discipline (default: fcfs, the paper's "
        "model; sstf/scan/clook reorder by head position)",
    )
    parser.add_argument(
        "--coalesce",
        action="store_true",
        help="merge same-disk sibling fetches from one scheduling round "
        "into a single multi-page transaction",
    )
    parser.add_argument(
        "--bus-time",
        type=float,
        default=SystemParameters.bus_time,
        metavar="SECONDS",
        help="SCSI bus transfer time per page in simulated seconds "
        f"(default: {SystemParameters.bus_time}; raise it to push the "
        "shared bus toward saturation, the paper's §5 FPSS regime)",
    )
    parser.add_argument(
        "--buffer-pages",
        type=int,
        default=SystemParameters.buffer_pages,
        metavar="N",
        help="LRU buffer-pool capacity in pages (default: "
        f"{SystemParameters.buffer_pages} — the paper's bufferless model)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """Array redundancy and the fault plan played against it
    (``serve`` and ``chaos``)."""
    group = parser.add_argument_group("redundancy & fault plan")
    group.add_argument(
        "--raid",
        choices=["raid0", "raid1"],
        default="raid0",
        help="array layout: striped raid0 or mirrored raid1 pairs with "
        "failover (default: raid0; hedging and rebuild need raid1)",
    )
    group.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="DISK@START[:REPAIR]",
        help="crash window, e.g. 2@0.0 (dead from t=0) or 1@0.5:2.0; "
        "repeatable — on raid1, DISK addresses a physical drive "
        "(logical*2+replica)",
    )
    group.add_argument(
        "--slow",
        action="append",
        default=[],
        metavar="DISK@START-ENDxFACTOR",
        help="fail-slow window, e.g. 1@0.0-2.5x8; repeatable",
    )
    group.add_argument(
        "--transient",
        type=float,
        default=0.0,
        metavar="PROB",
        help="per-service transient read-error probability on every disk "
        "(default: 0)",
    )
    group.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault plan's RNG streams (default: 0)",
    )
    group.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="disk attempts per fetch before it fails permanently "
        "(default: 3)",
    )
    group.add_argument(
        "--attempt-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt timeout in simulated seconds (default: none)",
    )


def _add_tail_arguments(parser: argparse.ArgumentParser) -> None:
    """Tail-tolerance knobs shared by ``serve`` and ``chaos``."""
    group = parser.add_argument_group("tail tolerance")
    group.add_argument(
        "--health",
        action="store_true",
        help="track per-disk health (EWMA latency + error windows) "
        "behind a three-state circuit breaker; fetches route around "
        "(raid1) or fail fast against (raid0) open breakers",
    )
    group.add_argument(
        "--health-window",
        type=int,
        default=16,
        metavar="N",
        help="outcomes per disk in the error-rate window (default: 16)",
    )
    group.add_argument(
        "--health-error-threshold",
        type=float,
        default=0.5,
        metavar="FRAC",
        help="error fraction that trips the breaker (default: 0.5)",
    )
    group.add_argument(
        "--health-latency-threshold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="EWMA fetch latency that trips the breaker (fail-slow "
        "ejection); 0 disables the latency trip (default: 0)",
    )
    group.add_argument(
        "--health-cooldown",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="open-state cooldown before half-open probing (default: 0.05)",
    )
    group.add_argument(
        "--health-probe-prob",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="half-open: seeded probability a fetch is admitted as a "
        "probe (default: 0.25)",
    )
    group.add_argument(
        "--hedge",
        action="store_true",
        help="hedged mirrored reads: re-issue a straggling fetch on the "
        "other replica after a quantile-based delay, first response "
        "wins (raid1 only)",
    )
    group.add_argument(
        "--hedge-quantile",
        type=float,
        default=0.95,
        metavar="FRAC",
        help="latency quantile that sets the hedge delay (default: 0.95)",
    )
    group.add_argument(
        "--hedge-min-delay",
        type=float,
        default=0.004,
        metavar="SECONDS",
        help="hedge delay floor, also used before the latency window "
        "warms up (default: 0.004)",
    )
    group.add_argument(
        "--rebuild",
        action="store_true",
        help="online RAID-1 rebuild: after a crash window's repair "
        "instant, stream the drive's pages back from its mirror "
        "through the simulated disk+bus resources (raid1 only)",
    )
    group.add_argument(
        "--rebuild-rate",
        type=float,
        default=400.0,
        metavar="PAGES_PER_S",
        help="rebuild streaming ceiling in pages/second (default: 400)",
    )
    group.add_argument(
        "--rebuild-batch",
        type=int,
        default=8,
        metavar="PAGES",
        help="pages per rebuild sweep (default: 8)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="sample simulated-time series (queue depths, utilizations, "
        "buffer hit rate, in-flight queries) and render them as ASCII "
        "sparklines; with --trace they also land in the Chrome export "
        "as counter tracks",
    )
    parser.add_argument(
        "--report",
        default="",
        metavar="PATH",
        help="write a deterministic RunReport JSON artifact to PATH for "
        "'repro diff' (several algorithms: PATH gains a .<algorithm> "
        "suffix)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="record traversal decision traces (visited/pruned nodes with "
        "reasons, Dth trajectories, disk fanout) and print the aggregated "
        "pruning-efficiency / declustering section; with --report the "
        "section is embedded in the RunReport so 'repro diff' gates it — "
        "answers and timings are bit-identical either way",
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default="",
        metavar="PATH",
        help="write a span trace of the run to PATH — simulate: one per "
        "algorithm (several algorithms: PATH gains a .<algorithm> "
        "suffix); serve: each query's lifecycle also lands as one Chrome "
        "async span (admission→rounds→outcome); explain: the decision "
        "events as logical instants (timestamp = fetch-round index)",
    )
    parser.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="chrome",
        help="trace file format: 'chrome' (Perfetto / chrome://tracing "
        "trace-event JSON) or 'jsonl' (default: chrome)",
    )


def _add_slo_arguments(parser: argparse.ArgumentParser) -> None:
    """SLO / lifecycle / exposition knobs (``serve`` only).

    None of these flags enters the config digest: they attach pure
    write-only observers, and same-seed runs stay bit-identical with
    or without them (golden-asserted).
    """
    group = parser.add_argument_group("slo & lifecycle observability")
    group.add_argument(
        "--slo",
        action="store_true",
        help="evaluate per-priority-class SLOs: latency-quantile and "
        "goodput objectives (latency targets inherited from class "
        "deadlines), error-budget accounting and multi-window burn "
        "rates; prints the section and embeds it in --report artifacts "
        "where 'repro diff' gates burn rate (up-bad) and budget "
        "remaining / goodput margin (down-bad)",
    )
    group.add_argument(
        "--slo-quantile",
        type=float,
        default=0.99,
        metavar="FRAC",
        help="latency quantile the objectives target (default: 0.99)",
    )
    group.add_argument(
        "--slo-compliance",
        type=float,
        default=0.95,
        metavar="FRAC",
        help="fraction of offered queries that must meet the SLI; "
        "1 minus this is the error budget (default: 0.95)",
    )
    group.add_argument(
        "--slo-goodput",
        type=float,
        default=0.90,
        metavar="FRAC",
        help="fraction of offered queries that must be answered at all "
        "(default: 0.90)",
    )
    group.add_argument(
        "--slo-window",
        action="append",
        type=float,
        default=[],
        metavar="SECONDS",
        help="trailing burn-rate window in simulated seconds; "
        "repeatable (default: 0.25 and 1.0, plus the full horizon)",
    )
    group.add_argument(
        "--lifecycle-log",
        default="",
        metavar="PATH",
        help="write one causally-ordered JSONL record per offered query "
        "(admission, batching dedup credits, per-round fetches with "
        "retry/hedge/breaker annotations, final outcome) — byte-"
        "deterministic for a fixed seed",
    )
    group.add_argument(
        "--metrics-out",
        default="",
        metavar="PATH",
        help="write the run's metrics registry (plus serving/SLO scalar "
        "gauges) as OpenMetrics/Prometheus text exposition — byte-"
        "deterministic for a fixed seed",
    )


# -- Stage 2 — checks (main() holds the bad-input → clean-exit boundary).


def _check_out_dirs(args: argparse.Namespace) -> None:
    """Fail fast if an output path's directory is missing."""
    for option in ("out", "report", "lifecycle_log", "metrics_out", "trace"):
        path = getattr(args, option, "")
        if path:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                raise SystemExit(
                    f"--{option.replace('_', '-')} directory does not "
                    f"exist: {directory}"
                )


def _algorithm(text: str) -> str:
    """*text* as a canonical algorithm name, or a clean exit."""
    name = _algorithm_name(text)
    if name not in ALGORITHMS:
        raise SystemExit(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        )
    return name


def _parse_point(text: str, dims: int):
    try:
        coords = tuple(float(c) for c in text.split(","))
    except ValueError:
        raise SystemExit(f"cannot parse point {text!r}; expected e.g. 0.5,0.5")
    if len(coords) != dims:
        raise SystemExit(
            f"query has {len(coords)} coordinates but the data is {dims}-d"
        )
    return coords


# -- Stage 3 — flags → the tree and the policy objects the library takes.

# Flag dests by group.  They double as RunReport config keys (stage 6)
# and, for the array and scenario groups, as the library's keyword names.
_TREE_KEYS = ("dataset", "n", "dims", "disks", "page_size", "policy", "seed")
_ARRAY_KEYS = ("scheduler", "coalesce", "bus_time", "buffer_pages")
_FAULT_KEYS = (
    "crash", "slow", "transient", "fault_seed", "max_attempts",
    "attempt_timeout",
)
_WORKLOAD_KEYS = ("queries", "arrival_rate")
_SCENARIO_KEYS = (
    "rate", "horizon", "burst_factor", "clients", "think_time",
    "queries_per_client",
)
_SERVING_KEYS = (
    "max_in_flight", "max_queued", "deadline", "shed", "cross_batch",
    "batch_window", "max_group_pages",
)


def _pick(args: argparse.Namespace, keys) -> dict:
    return {key: getattr(args, key) for key in keys}


def _build_tree(args: argparse.Namespace):
    """The data set and its declustered R*-tree in the build form."""
    generator = DATASETS[args.dataset]
    if args.dataset in ("california_places", "long_beach"):
        if args.dims != 2:
            raise SystemExit(f"{args.dataset} is a 2-d data set")
        data = generator(n=args.n, seed=args.seed)
    else:
        data = generator(n=args.n, dims=args.dims, seed=args.seed)
    tree = build_parallel_tree(
        data,
        dims=args.dims,
        num_disks=args.disks,
        policy=make_policy(args.policy, seed=args.seed),
        seed=args.seed,
        page_size=args.page_size,
    )
    return data, tree


def _build_frozen_tree(args: argparse.Namespace):
    """The data set and its tree frozen for reading — what every
    command that never inserts or deletes runs its queries over."""
    data, tree = _build_tree(args)
    return data, flatten(tree)


def _single_query(args: argparse.Namespace):
    """The frozen tree and the point ``knn`` / ``explain`` query on it:
    given, or sampled with the query seed ``seed + 1`` every workload
    command uses."""
    data, tree = _build_frozen_tree(args)
    if args.query:
        return tree, _parse_point(args.query, args.dims)
    return tree, sample_queries(data, 1, seed=args.seed + 1)[0]


def _system_parameters(args: argparse.Namespace) -> SystemParameters:
    return SystemParameters(**_pick(args, _ARRAY_KEYS))


def _faulty(args: argparse.Namespace) -> bool:
    """Whether any fault flag is set."""
    return bool(args.crash or args.slow or args.transient > 0)


def _fault_policies(args: argparse.Namespace) -> dict:
    """The ``fault_plan=`` / ``retry_policy=`` keywords the fault flags
    describe.

    ``chaos`` always builds them — its no-fault run is a control that
    still runs the retry machinery; ``serve`` only when :func:`_faulty`,
    so a fault-free serve stays on the untouched fetch path.
    """
    return {
        "fault_plan": FaultPlan(
            seed=args.fault_seed,
            default_transient_prob=args.transient,
            crashes=tuple(parse_crash_spec(spec) for spec in args.crash),
            slow_windows=tuple(parse_slow_spec(spec) for spec in args.slow),
        ),
        "retry_policy": RetryPolicy(
            max_attempts=args.max_attempts,
            attempt_timeout=args.attempt_timeout,
        ),
    }


def _tail_policies(args: argparse.Namespace) -> dict:
    """The ``health=`` / ``hedge=`` / ``rebuild=`` keywords the
    tail-tolerance flags ask for (``None`` where a feature is off)."""
    health = hedge = rebuild = None
    if args.health:
        health = HealthPolicy(
            window=args.health_window,
            # Derived, not a flag: stays out of the config.
            min_samples=min(8, args.health_window),
            error_threshold=args.health_error_threshold,
            latency_threshold=args.health_latency_threshold,
            open_cooldown=args.health_cooldown,
            probe_probability=args.health_probe_prob,
            seed=args.seed,
        )
    if args.hedge:
        hedge = HedgePolicy(
            quantile=args.hedge_quantile,
            min_delay=args.hedge_min_delay,
        )
    if args.rebuild:
        rebuild = RebuildPolicy(
            rate=args.rebuild_rate,
            batch_pages=args.rebuild_batch,
        )
    return {"health": health, "hedge": hedge, "rebuild": rebuild}


def _serve_policy(args: argparse.Namespace) -> ServingPolicy:
    """Build the ServingPolicy the serve flags describe."""
    max_in_flight = args.max_in_flight if args.max_in_flight > 0 else None
    max_queued = args.max_queued if args.max_queued >= 0 else None
    deadline = args.deadline if args.deadline > 0 else None
    if max_queued is not None and max_in_flight is None:
        raise SystemExit("--max-queued requires --max-in-flight")
    parts = []
    if max_in_flight is not None:
        parts.append("admission")
    if args.cross_batch:
        parts.append("batching")
    if args.shed:
        parts.append("shedding")
    return ServingPolicy(
        name="+".join(parts) if parts else "no-admission",
        max_in_flight=max_in_flight,
        max_queued=max_queued,
        shed_expired=args.shed,
        cross_query_batching=args.cross_batch,
        batch_window=args.batch_window,
        max_group_pages=(
            args.max_group_pages if args.max_group_pages > 0 else None
        ),
        classes=(PriorityClass(deadline=deadline),),
    )


def _slo_tracker(args: argparse.Namespace, policy: ServingPolicy) -> SLOTracker:
    return SLOTracker(
        slo_from_policy(
            policy,
            quantile=args.slo_quantile,
            compliance_target=args.slo_compliance,
            goodput_target=args.slo_goodput,
            default_latency_target=(
                args.deadline if args.deadline > 0 else None
            ),
            windows=tuple(args.slo_window) or DEFAULT_BURN_WINDOWS,
        )
    )


# -- Stage 4 — observers: write-only, none enters the config digest.


@dataclass
class _Observers:
    """The write-only observers one run's flags asked for."""

    tracer: Optional[Tracer] = None
    timeline: Optional[TimelineSampler] = None
    metrics: Optional[MetricsRegistry] = None
    explain: object = None
    lifecycle: Optional[LifecycleLog] = None
    slo: Optional[SLOTracker] = None

    def attach(self, factory):
        """*factory* with the explain collector on, if there is one."""
        return factory if self.explain is None else self.explain.attach(factory)


def _explain_collector(cls, tree, label: str):
    """An :class:`ExplainRecorder` / :class:`WorkloadExplain` wired to
    *tree*'s level/disk resolvers."""
    return cls(
        num_disks=tree.num_disks,
        level_of=lambda pid: tree.page(pid).level,
        disk_of=tree.disk_of,
        label=label,
    )


def _make_observers(
    args: argparse.Namespace, tree, label: str, policy: ServingPolicy
) -> _Observers:
    """The observers the flags of ``simulate`` / ``serve`` / ``chaos``
    imply.  The creation rules are bit-identity hazards — an observer
    that exists is exported, so creating one more moves pinned bytes:

    * timeline iff ``--timeline`` or ``--report``;
    * metrics iff ``--report`` or ``--metrics-out`` — never on
      ``chaos``, whose RunReport carries no registry;
    * lifecycle iff ``--lifecycle-log`` or ``--trace``, on the command
      that declares the lifecycle group (``serve``);
    * tracer iff ``--trace``; explain iff ``--explain``; SLO iff ``--slo``.
    """
    report, trace = bool(args.report), bool(getattr(args, "trace", ""))
    metrics = report or bool(getattr(args, "metrics_out", ""))
    lifecycle = hasattr(args, "lifecycle_log") and bool(
        args.lifecycle_log or trace
    )
    return _Observers(
        tracer=Tracer() if trace else None,
        timeline=TimelineSampler() if (args.timeline or report) else None,
        metrics=(
            MetricsRegistry() if metrics and args.command != "chaos" else None
        ),
        explain=(
            _explain_collector(WorkloadExplain, tree, label)
            if args.explain
            else None
        ),
        lifecycle=LifecycleLog() if lifecycle else None,
        slo=(
            _slo_tracker(args, policy)
            if getattr(args, "slo", False)
            else None
        ),
    )


# -- Stage 6 — config: which flags key a RunReport, as data.

#: command -> the flags that always enter its config, flat.  The shapes
#: differ on purpose: every one is golden-pinned.
_CONFIG_KEYS = {
    "explain": _TREE_KEYS + ("k",),
    "simulate": _TREE_KEYS + ("k",) + _WORKLOAD_KEYS + _ARRAY_KEYS,
    "serve": (
        _TREE_KEYS + ("k", "scenario") + _SCENARIO_KEYS + _ARRAY_KEYS
        + _SERVING_KEYS
    ),
    "chaos": (
        _TREE_KEYS + ("k",) + _WORKLOAD_KEYS + ("raid",) + _ARRAY_KEYS
        + _FAULT_KEYS + ("deadline",)
    ),
}

#: section -> {config key: flag}; a section appears exactly when the
#: flag it is named after is on, so runs without the PR8 knobs keep
#: their pre-PR8 config digests (and report bodies) byte-identical.
_TAIL_SECTIONS = {
    "health": {
        "window": "health_window",
        "error_threshold": "health_error_threshold",
        "latency_threshold": "health_latency_threshold",
        "cooldown": "health_cooldown",
        "probe_prob": "health_probe_prob",
    },
    "hedge": {"quantile": "hedge_quantile", "min_delay": "hedge_min_delay"},
    "rebuild": {"rate": "rebuild_rate", "batch_pages": "rebuild_batch"},
}


def _run_config(args: argparse.Namespace, algorithm: str) -> dict:
    """The run configuration a command's artifact is keyed by.

    Reads *args* as ``main`` left them — ``--arrival-rate 0`` is already
    ``None`` here.  Observer flags never enter.
    """
    config = {"command": args.command, "algorithm": algorithm}
    config.update(_pick(args, _CONFIG_KEYS[args.command]))
    if args.command == "serve":
        # ``chaos`` carries ``raid`` and the fault keys flat and always;
        # ``serve`` only when used, so pre-PR8 serve configs keep their
        # digests byte-identical.
        if args.raid != "raid0":
            config["raid"] = args.raid
        if _faulty(args):
            config["faults"] = _pick(args, _FAULT_KEYS)
    for section, keys in _TAIL_SECTIONS.items():
        if getattr(args, section, False):
            config[section] = {
                key: getattr(args, flag) for key, flag in keys.items()
            }
    return config


# -- Stage 7 — export.


def _suffixed(base: str, name: str, multi: bool) -> str:
    """The artifact for one algorithm's run (suffixed when several)."""
    if not multi:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}.{name.lower()}{ext or '.json'}"


def _export(
    args: argparse.Namespace,
    obs: _Observers,
    result=None,
    algorithm: str = "",
    label: str = "",
    multi: bool = False,
    **sections,
) -> Dict[str, str]:
    """Write every artifact the flags ask for, in one fixed order:
    observers flush into the tracer (timeline, explain, lifecycle),
    then report → lifecycle log → OpenMetrics → trace.

    :param result: the run's WorkloadResult (for ``--report``).
    :param multi: several algorithms share the flags — report and trace
        paths gain a ``.<algorithm>`` suffix.
    :param sections: extra ``build_run_report`` sections; ``serving``
        and ``slo`` also ride along in the OpenMetrics exposition as
        scalar gauges.
    :returns: flag → the path written, in write order.
    """
    written: Dict[str, str] = {}
    report = getattr(args, "report", "")
    if report and obs.slo is not None and obs.timeline is not None:
        # The slo.<class>.* step tracks land in the report's timelines
        # so `repro top` can replay budget burn — before it is built.
        obs.slo.merge_into(obs.timeline)
    if obs.tracer is not None:
        for observer in (obs.timeline, obs.explain, obs.lifecycle):
            if observer is not None:
                observer.flush_to_tracer(obs.tracer)
    if report:
        doc = build_run_report(
            args.command,
            _run_config(args, algorithm),
            result,
            metrics=obs.metrics,
            timeline=obs.timeline,
            label=label,
            explain=obs.explain,
            **sections,
        )
        written["report"] = _suffixed(report, algorithm, multi)
        write_report(doc, written["report"])
    if getattr(args, "lifecycle_log", ""):
        obs.lifecycle.write_jsonl(args.lifecycle_log)
        written["lifecycle_log"] = args.lifecycle_log
    if getattr(args, "metrics_out", ""):
        extra: Dict[str, float] = {}
        for name in ("serving", "slo"):
            if sections.get(name) is not None:
                extra.update(flatten_scalars({name: sections[name]}))
        write_openmetrics(obs.metrics, args.metrics_out, extra=extra)
        written["metrics_out"] = args.metrics_out
    if obs.tracer is not None:
        written["trace"] = _suffixed(args.trace, algorithm, multi)
        write_trace(obs.tracer, written["trace"], args.trace_format)
    return written


# -- Commands.


def _cmd_info(args: argparse.Namespace) -> int:
    _, tree = _build_tree(args)
    print(f"dataset       : {args.dataset} (n={args.n:,}, dims={args.dims})")
    print(f"tree          : height {tree.height}, "
          f"{len(tree.tree.pages)} pages, fan-out {tree.tree.max_entries}")
    print(f"declustering  : {args.policy} over {args.disks} disks")
    histogram = tree.placement_histogram()
    rows = [(disk, histogram.get(disk, 0)) for disk in range(args.disks)]
    print(format_table(["disk", "pages"], rows))
    return 0


def _cmd_knn(args: argparse.Namespace) -> int:
    tree, query = _single_query(args)
    executor = CountingExecutor(tree)
    factory = make_factory(args.algorithm, tree, args.k)
    neighbors = executor.execute(factory(query))
    stats = executor.last_stats
    print(f"query  : {tuple(round(c, 4) for c in query)}  (k={args.k}, "
          f"algorithm={args.algorithm})")
    print(f"cost   : {stats.nodes_visited} pages in {stats.rounds} rounds "
          f"(mean batch width {stats.parallelism:.2f})")
    rows = [
        (n.oid, ", ".join(f"{c:.4f}" for c in n.point), n.distance)
        for n in neighbors
    ]
    print(format_table(["oid", "point", "distance"], rows, precision=5))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    tree, query = _single_query(args)
    recorder = _explain_collector(ExplainRecorder, tree, args.algorithm)
    instance = make_factory(args.algorithm, tree, args.k)(query)
    instance.explain = recorder
    executor = CountingExecutor(tree)
    neighbors = executor.execute(instance)
    print(format_explain(recorder))
    if args.out:
        config = _run_config(args, args.algorithm)
        config["query"] = list(query)
        write_explain(explain_artifact(config, recorder, neighbors), args.out)
        print(f"explain written: {args.out}")
    obs = _Observers(Tracer() if args.trace else None, explain=recorder)
    if "trace" in _export(args, obs):
        print(f"trace written: {args.trace} ({args.trace_format})")
    return 0


def _cmd_report_show(args: argparse.Namespace) -> int:
    print(format_report_details(load_report(args.path)))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top`` — replay a serving RunReport as dashboard frames."""
    doc = load_report(args.path)
    records = load_lifecycle_jsonl(args.lifecycle) if args.lifecycle else None
    if args.frames < 1:
        raise SystemExit("--frames must be positive")
    frames = replay(
        doc, frames=args.frames, lifecycle=records, tail=args.tail
    )
    for index, frame in enumerate(frames):
        if index:
            print()
        print(frame)
        if args.interval > 0 and index < len(frames) - 1:
            time.sleep(args.interval)
    return 0


def _workload_traffic(args: argparse.Namespace, data):
    """``simulate`` / ``chaos`` traffic: ``--queries`` points sampled
    with the query seed ``seed + 1``, arriving at ``--arrival-rate``."""
    queries = sample_queries(data, args.queries, seed=args.seed + 1)
    return workload_scenario(queries, args.arrival_rate, args.seed)


def _serve_traffic(args: argparse.Namespace, data):
    """``serve`` traffic: the ``--scenario`` shape, query seed
    ``seed + 1``."""
    keys = _pick(args, _SCENARIO_KEYS)
    return make_scenario(args.scenario, data, seed=args.seed + 1, **keys)


def _print_views(args, obs: _Observers, result, heading="", lead=False):
    """Print the timeline (``--timeline``) and the explain section
    (``--explain``), each followed by a blank line — or, with *lead*,
    preceded by one."""
    views = []
    if args.timeline:
        until = max(result.makespan, obs.timeline.end)
        views.append(heading + obs.timeline.render(until=until))
    if obs.explain is not None:
        views.append(obs.explain.render())
    for view in views:
        print("\n" + view if lead else view + "\n")


def _run_workload(
    args: argparse.Namespace, traffic, policy: ServingPolicy, show,
    algorithms: Sequence[str], label="", explain_label="", **faults,
) -> List[tuple]:
    """The one body of ``simulate`` / ``serve`` / ``chaos``: build the
    frozen tree, then per algorithm make the observers, serve
    ``traffic(args, data)`` with *faults* (``serve_scenario``'s fault
    and tail keywords), call ``show(algorithm, served, obs)`` — it
    prints and returns the extra RunReport sections, if any — and
    export.  *label* / *explain_label* name the report and the explain
    collector (default: the algorithm).  Returns each run's
    ``(served, obs, written)``.
    """
    params = _system_parameters(args)
    data, tree = _build_frozen_tree(args)
    scenario = traffic(args, data)
    runs = []
    for algorithm in algorithms:
        obs = _make_observers(args, tree, explain_label or algorithm, policy)
        served = serve_scenario(
            tree, obs.attach(make_factory(algorithm, tree, args.k)), scenario,
            policy=policy, params=params, seed=args.seed, tracer=obs.tracer,
            metrics=obs.metrics, timeline=obs.timeline,
            lifecycle=obs.lifecycle, slo=obs.slo,
            raid=getattr(args, "raid", "raid0"), **faults,
        )
        sections = show(algorithm, served, obs) or {}
        written = _export(
            args, obs, served.result, algorithm=algorithm,
            label=label or algorithm, multi=len(algorithms) > 1, **sections,
        )
        runs.append((served, obs, written))
    return runs


def _cmd_simulate(args: argparse.Namespace) -> int:
    names = [_algorithm(name) for name in args.algorithms.split(",")]

    def show(name, served, obs):
        _print_views(args, obs, served.result, heading=f"timeline: {name}\n")

    runs = _run_workload(
        args, _workload_traffic, no_admission_policy(), show, names
    )
    workloads = {name: run[0].result for name, run in zip(names, runs)}
    rate = args.arrival_rate
    mode = f"λ={rate}/s Poisson" if rate else "single-user serial"
    if args.scheduler != "fcfs" or args.coalesce:
        mode += f", {args.scheduler}" + ("+coalesce" if args.coalesce else "")
    title = f"{args.queries} queries, k={args.k}, {mode}, {args.disks} disks"
    print(format_percentile_table(workloads, precision=4, title=title))
    print()
    print(
        format_breakdown_table(
            workloads, precision=4, title="time breakdown (mean s/query)"
        )
    )
    for flag, note in (("trace", f" ({args.trace_format})"), ("report", "")):
        for _, _, written in runs:
            if flag in written:
                print(f"{flag} written: {written[flag]}{note}")
    return 0


def _show_serving(args: argparse.Namespace, algorithm: str, serving, obs):
    """``serve``'s view of its run: the summary, then the timeline and
    explain; returns the run's RunReport sections."""
    scenario = serving.scenario
    section = serving.serving_section()
    counts = section["counts"]
    latency = section["latency"]
    wait = section["admission_wait"]
    print(
        f"scenario '{scenario.name}': {len(serving.queries)} queries "
        f"({'closed-loop, ' + str(scenario.clients) + ' clients' if scenario.closed_loop else f'peak λ={args.rate}/s over {args.horizon}s'}), "
        f"{algorithm} k={args.k}, policy {serving.policy.name}"
    )
    print(
        f"  outcomes : complete {counts['complete']}, "
        f"degraded {counts['degraded']}, shed {counts['shed']}, "
        f"rejected {counts['rejected']}"
    )
    print(
        f"  latency  : mean {latency['mean']:.4f}  p50 {latency['p50']:.4f}  "
        f"p95 {latency['p95']:.4f}  p99 {latency['p99']:.4f}  "
        f"max {latency['max']:.4f}  (served queries, s)"
    )
    print(
        f"  admission: wait mean {wait['mean']:.4f}s max {wait['max']:.4f}s, "
        f"peak in-flight {counts['peak_in_flight']}, "
        f"peak queued {counts['peak_queued']}"
    )
    io = section["io"]
    print(
        f"  io       : {io['transactions']} transactions for "
        f"{io['logical_pages']} delivered pages "
        f"({io['transactions_per_page']:.3f} tx/page)"
    )
    if serving.batching is not None:
        b = serving.batching
        print(
            f"  batching : {b['batched_transactions']} shared transactions, "
            f"{b['shared_pages']} piggybacked pages, "
            f"max dispatch wait {b['max_dispatch_wait']:.4f}s"
        )
    certificates = section["certificates"]
    if certificates["count"]:
        print(
            f"  degraded : {certificates['count']} certified answers, "
            f"max radius {certificates['max_radius']:.4f}"
        )
    print(f"  goodput  : {section['goodput']:.1f} answered queries/s")
    if serving.health is not None:
        h = serving.health
        print(
            f"  health   : {h['opens']} breaker opens, {h['closes']} closes, "
            f"{h['ejected']} ejections, {h['open_drives']} drive(s) open"
        )
    if serving.hedge is not None:
        hd = serving.hedge
        print(
            f"  hedging  : {hd['issued']} issued, {hd['won']} won, "
            f"{hd['cancelled']} cancelled, {hd['wasted_reads']} wasted reads"
        )
    if serving.rebuild is not None:
        rb = serving.rebuild
        print(
            f"  rebuild  : {rb['completed']} completed "
            f"({rb['pages_streamed']:.0f} pages), time-to-healthy "
            f"{rb['time_to_healthy']:.4f}s, "
            f"{serving.rebuild_shed} arrivals shed during rebuild"
        )
    if serving.slo is not None:
        print("  " + format_slo_section(serving.slo).replace("\n", "\n  "))
    _print_views(args, obs, serving.result, lead=True)
    if args.report and not serving.result.records:
        raise SystemExit(
            "--report needs at least one admitted query; every query "
            "was rejected or shed"
        )
    return dict(
        serving=section, health=serving.health, hedge=serving.hedge,
        rebuild=serving.rebuild, slo=serving.slo,
    )


#: How the ``serve`` / ``chaos`` lines name what :func:`_export` wrote.
_WRITTEN = {
    "report": "report", "lifecycle_log": "lifecycle log",
    "metrics_out": "metrics", "trace": "trace",
}


def _print_written(written: Dict[str, str], obs: _Observers) -> None:
    """One line per artifact ``serve`` / ``chaos`` wrote, in write order."""
    for flag, path in written.items():
        if flag == "lifecycle_log":
            path += f" ({len(obs.lifecycle)} queries)"
        print(f"{_WRITTEN[flag]} written: {path}")


def _cmd_serve(args: argparse.Namespace) -> int:
    # A fault-free serve passes no plan at all (see _fault_policies).
    faults = _fault_policies(args) if _faulty(args) else {}
    tail = _tail_policies(args)
    policy = _serve_policy(args)
    ((_, obs, written),) = _run_workload(
        args, _serve_traffic, policy, partial(_show_serving, args),
        [args.algorithm], label=f"{args.algorithm}/{policy.name}",
        **faults, **tail,
    )
    _print_written(written, obs)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    algorithm = _algorithm(args.algorithm)
    faults = _fault_policies(args)
    label = f"{algorithm}/{args.raid}"

    def show(name, served, obs):
        _print_views(args, obs, served.result)
        report = ChaosReport.from_served(
            served, algorithm=name, raid=args.raid, k=args.k,
            seed=args.seed, deadline=args.deadline,
            plan=faults["fault_plan"],
        )
        print(report.summary())
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report.to_json())
                handle.write("\n")
            print(f"report written: {args.out}")
        return dict(
            health=report.health, hedge=report.hedge, rebuild=report.rebuild
        )

    ((_, obs, written),) = _run_workload(
        args, _workload_traffic, no_admission_policy(args.deadline), show,
        [algorithm], label=label, explain_label=label,
        **faults, **_tail_policies(args),
    )
    _print_written(written, obs)
    return 0


#: (verb, module, runner, default --out, help).  The default --out is
#: the one place a bench's artifact name is written down; every module
#: exposes the same ``write_bench`` / ``format_summary`` /
#: ``to_run_report``.
_BENCH_VERBS = (
    ("bench", "repro.perf.bench", "run_bench", "BENCH_PR9.json",
     "run the reproducible benchmark suite ('bench index' lists the "
     "existing artifacts instead)"),
    ("bench-schedulers", "repro.perf.sched_bench", "run_sched_bench",
     "BENCH_PR4.json",
     "compare queue disciplines on the multi-user workload"),
    ("bench-serving", "repro.serving.bench", "run_serving_bench",
     "BENCH_PR7.json",
     "sweep serving policies over offered load (p99-vs-load frontier)"),
    ("bench-chaos-serving", "repro.serving.chaos_bench",
     "run_chaos_serving_bench", "BENCH_PR8.json",
     "sweep fault-aware serving under fail-slow + crash chaos"),
)


def _cmd_bench(args: argparse.Namespace) -> int:
    if getattr(args, "mode", None) == "index":
        return _cmd_bench_index(args)
    # Imported lazily: the bench harnesses pull in the whole experiment
    # stack, which the other subcommands don't need.
    module = importlib.import_module(args.bench_module)
    doc = getattr(module, args.bench_runner)(smoke=args.smoke, seed=args.seed)
    module.write_bench(doc, args.out)
    print(module.format_summary(doc))
    print(f"\nbench written: {args.out}")
    if args.report:
        write_report(module.to_run_report(doc), args.report)
        print(f"report written: {args.report}")
    return 0


def _bench_headline(doc: dict) -> str:
    """The one summary metric a bench document leads with.

    Checked in priority order: serving-frontier dominance (PR7/PR8),
    scheduler improvement over FCFS (PR4), the flat-layout microbench
    (PR9), the kernel microbench (PR2).  ``-`` when none is present.
    """
    dominance = doc.get("dominance_at_top_load") or {}
    if isinstance(dominance, dict) and "p99_ratio" in dominance:
        return (
            f"p99_ratio {dominance['p99_ratio']:.3f} "
            f"@ load {dominance.get('offered_load', 0.0):g}"
        )
    improvement = doc.get("improvement_vs_fcfs") or {}
    ratios = {
        name: stats["response_mean_ratio"]
        for name, stats in improvement.items()
        if isinstance(stats, dict) and "response_mean_ratio" in stats
    }
    if ratios:
        best = min(ratios, key=lambda name: ratios[name])
        return f"best response_mean_ratio {ratios[best]:.3f} ({best})"
    layout = doc.get("microbench_layout") or []
    speedups = [
        row["speedup"]
        for row in layout
        if isinstance(row, dict) and "speedup" in row
    ]
    if speedups:
        return f"flat-layout speedup up to {max(speedups):.2f}x"
    micro = doc.get("microbench") or {}
    speedups = [
        row["speedup"]
        for row in micro.values()
        if isinstance(row, dict) and "speedup" in row
    ]
    if speedups:
        return f"kernel speedup up to {max(speedups):.1f}x"
    return "-"


def _cmd_bench_index(args: argparse.Namespace) -> int:
    """``repro bench index`` — one line per BENCH_*.json artifact."""
    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    if not paths:
        print(f"no BENCH_*.json found in {args.dir}")
        return 1
    rows = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            rows.append(
                (os.path.basename(path), "unreadable", "-", "-", "-", "-")
            )
            continue
        rows.append(
            (
                os.path.basename(path),
                str(doc.get("schema", "?")),
                str(doc.get("label", "-")),
                str(doc.get("seed", "-")),
                "yes" if doc.get("smoke") else "no",
                _bench_headline(doc),
            )
        )
    print(
        format_table(
            ["bench", "schema", "label", "seed", "smoke", "headline"], rows
        )
    )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    baseline = load_report(args.baseline)
    candidate = load_report(args.candidate)
    if args.show:
        print(format_report(baseline))
        print()
        print(format_report(candidate))
        print()
    diff = diff_reports(
        baseline, candidate, rel_tol=args.rel_tol, abs_tol=args.abs_tol
    )
    print(diff.summary(limit=args.limit))
    return diff.exit_code


def _cmd_paper(args: argparse.Namespace) -> int:
    print(run_paper_experiment(args.experiment))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Similarity query processing on disk arrays "
        "(SIGMOD 1998 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="build a tree and describe it")
    _add_tree_arguments(info)
    info.set_defaults(handler=_cmd_info)

    knn = subparsers.add_parser("knn", help="answer one k-NN query")
    _add_tree_arguments(knn)
    _add_single_query_arguments(knn)
    knn.set_defaults(handler=_cmd_knn)

    explain = subparsers.add_parser(
        "explain",
        help="answer one k-NN query and print its traversal decision "
        "trace: per-level visit/prune counts with reasons, the Dth "
        "trajectory, CRSS mode transitions, and the per-disk heatmap",
    )
    _add_tree_arguments(explain)
    _add_single_query_arguments(explain)
    explain.add_argument(
        "--out",
        default="",
        metavar="PATH",
        help="write the full decision log as a deterministic JSON "
        "artifact (same-seed runs are byte-identical — the CI "
        "explain-smoke job cmp's two of them)",
    )
    _add_trace_arguments(explain)
    explain.set_defaults(handler=_cmd_explain)

    simulate = subparsers.add_parser(
        "simulate", help="simulate a multi-user workload"
    )
    _add_tree_arguments(simulate)
    _add_k_argument(simulate)
    _add_workload_arguments(simulate, queries=50, arrival_rate=5.0)
    simulate.add_argument(
        "--algorithms",
        default="BBSS,FPSS,CRSS,WOPTSS",
        help="comma-separated algorithm list",
    )
    _add_array_arguments(simulate)
    _add_trace_arguments(simulate)
    _add_obs_arguments(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    for verb, module, runner, default_out, help_text in _BENCH_VERBS:
        bench = subparsers.add_parser(verb, help=help_text)
        if verb == "bench":
            bench.add_argument(
                "mode",
                nargs="?",
                choices=["index"],
                default=None,
                help="optional subaction: 'index' prints one line per "
                "BENCH_*.json at --dir (schema, label, seed, smoke, "
                "headline metric) instead of running the suite",
            )
            bench.add_argument(
                "--dir",
                default=".",
                metavar="DIR",
                help="directory 'bench index' scans for BENCH_*.json "
                "(default: .)",
            )
        bench.add_argument(
            "--smoke",
            action="store_true",
            help="CI-sized run: small trees, few queries, short horizons",
        )
        bench.add_argument(
            "--out",
            default=default_out,
            metavar="PATH",
            help=f"output JSON path (default: {default_out})",
        )
        bench.add_argument(
            "--seed", type=int, default=0, help="RNG seed (default: 0)"
        )
        bench.add_argument(
            "--report",
            default="",
            metavar="PATH",
            help="additionally write the document as a RunReport artifact "
            "for 'repro diff'",
        )
        bench.set_defaults(
            handler=_cmd_bench, bench_module=module, bench_runner=runner
        )

    serve = subparsers.add_parser(
        "serve",
        help="multiplex a traffic scenario through the serving frontend "
        "(admission control, cross-query batching, load shedding)",
    )
    _add_tree_arguments(serve)
    _add_k_argument(serve)
    serve.add_argument(
        "--algorithm",
        default="CRSS",
        choices=sorted(ALGORITHMS),
        help="similarity-search algorithm (default: CRSS)",
    )
    serve.add_argument(
        "--scenario",
        choices=SCENARIO_KINDS,
        default="bursty",
        help="traffic shape: poisson, bursty (MMPP on/off), diurnal "
        "(cosine-modulated), hotspot (skewed query centers) or closed "
        "(think-time clients) — default: bursty",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="peak arrival rate λ in queries/second (default: 50)",
    )
    serve.add_argument(
        "--horizon",
        type=float,
        default=2.0,
        help="arrival horizon in simulated seconds (default: 2.0)",
    )
    serve.add_argument(
        "--burst-factor",
        type=float,
        default=4.0,
        help="bursty scenarios: peak-to-base rate ratio (default: 4.0)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=8,
        help="closed scenario: concurrent clients (default: 8)",
    )
    serve.add_argument(
        "--think-time",
        type=float,
        default=0.05,
        help="closed scenario: mean client think time in seconds "
        "(default: 0.05)",
    )
    serve.add_argument(
        "--queries-per-client",
        type=int,
        default=8,
        help="closed scenario: queries each client issues (default: 8)",
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=0,
        help="admission control: concurrent query limit; 0 disables "
        "admission (default: 0)",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=-1,
        help="admission control: waiting-queue bound beyond which "
        "arrivals are rejected outright; -1 for unbounded (default: -1)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        help="per-query deadline in seconds, counted from arrival "
        "(admission wait included); 0 disables deadlines (default: 0)",
    )
    serve.add_argument(
        "--shed",
        action="store_true",
        help="shed queries whose deadline expired while still queued "
        "instead of running them (requires --deadline)",
    )
    serve.add_argument(
        "--cross-batch",
        action="store_true",
        help="route fetches through the cross-query broker: same-disk "
        "page requests from different in-flight queries merge into one "
        "transaction, duplicate pages are fetched once",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        help="broker dispatch window in seconds — how long a fetch may "
        "wait for co-batching company (default: 0, dispatch immediately)",
    )
    serve.add_argument(
        "--max-group-pages",
        type=int,
        default=0,
        help="cap on pages per merged transaction (fairness bound); "
        "0 for unbounded (default: 0)",
    )
    _add_fault_arguments(serve)
    _add_tail_arguments(serve)
    _add_array_arguments(serve)
    _add_obs_arguments(serve)
    _add_slo_arguments(serve)
    _add_trace_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    chaos = subparsers.add_parser(
        "chaos",
        help="replay a workload under a fault plan and report robustness",
    )
    _add_tree_arguments(chaos)
    _add_k_argument(chaos)
    _add_workload_arguments(chaos, queries=20, arrival_rate=0.0)
    chaos.add_argument(
        "--algorithm",
        default="CRSS",
        help="search algorithm (default: CRSS)",
    )
    _add_array_arguments(chaos)
    _add_fault_arguments(chaos)
    chaos.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query deadline in simulated seconds; past it, pending "
        "pages resolve as unreachable and the query returns a partial "
        "answer with a certified radius (default: none)",
    )
    chaos.add_argument(
        "--out",
        default="",
        metavar="PATH",
        help="write the JSON chaos report to PATH",
    )
    _add_tail_arguments(chaos)
    _add_obs_arguments(chaos)
    chaos.set_defaults(handler=_cmd_chaos)

    diff = subparsers.add_parser(
        "diff",
        help="compare two RunReport artifacts and exit non-zero on "
        "regression",
    )
    diff.add_argument("baseline", help="baseline RunReport JSON path")
    diff.add_argument("candidate", help="candidate RunReport JSON path")
    diff.add_argument(
        "--rel-tol",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="relative change a gated metric may move in the bad "
        "direction before it counts as a regression (default: 0.05)",
    )
    diff.add_argument(
        "--abs-tol",
        type=float,
        default=1e-9,
        metavar="DELTA",
        help="absolute change below which a metric is considered "
        "unchanged (default: 1e-9)",
    )
    diff.add_argument(
        "--limit",
        type=int,
        default=20,
        help="changed metrics shown in the summary (default: 20)",
    )
    diff.add_argument(
        "--show",
        action="store_true",
        help="print both reports' summaries before the delta table",
    )
    diff.set_defaults(handler=_cmd_diff)

    report = subparsers.add_parser(
        "report", help="inspect RunReport artifacts"
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    report_show = report_sub.add_parser(
        "show",
        help="pretty-print one RunReport JSON file: digests, latency "
        "percentiles, counts, breakdown, utilizations, timeline "
        "sparklines, and the explain section when present",
    )
    report_show.add_argument("path", help="RunReport JSON path")
    report_show.set_defaults(handler=_cmd_report_show)

    top = subparsers.add_parser(
        "top",
        help="terminal dashboard replaying a serving RunReport: per-class "
        "SLO burn bars, outcome rates, per-disk queue/breaker "
        "sparklines, slowest-query tail",
    )
    top.add_argument(
        "path", help="RunReport JSON path (from 'repro serve --report')"
    )
    top.add_argument(
        "--lifecycle",
        default="",
        metavar="PATH",
        help="lifecycle JSONL ('repro serve --lifecycle-log') enabling "
        "the slowest-queries tail panel in the final frame",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=4,
        help="replay frames rendered, the last one final (default: 4)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock pause between frames (default: 0 — print "
        "immediately, deterministic output)",
    )
    top.add_argument(
        "--tail",
        type=int,
        default=3,
        help="slowest queries listed in the final frame (default: 3)",
    )
    top.set_defaults(handler=_cmd_top)

    paper = subparsers.add_parser(
        "paper", help="regenerate one of the paper's figures/tables"
    )
    paper.add_argument(
        "experiment",
        choices=sorted(PAPER_EXPERIMENTS),
        help="which figure/table to run",
    )
    paper.set_defaults(handler=_cmd_paper)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Before any handler reads it: config dicts record None, not 0.0.
    if getattr(args, "arrival_rate", None) == 0.0:
        args.arrival_rate = None
    if getattr(args, "n", 1) < 1:
        raise SystemExit("--n must be positive")
    if getattr(args, "disks", 1) < 1:
        raise SystemExit("--disks must be positive")
    _check_out_dirs(args)
    try:
        return args.handler(args)
    except (OSError, ValueError) as error:
        # The one boundary where bad input — a value a constructor or
        # the workload rejects, an unreadable file — exits cleanly.
        raise SystemExit(str(error))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
