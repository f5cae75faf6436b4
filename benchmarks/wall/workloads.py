"""The six wall-clock workloads.

Each workload drives ``repro``'s public library functions from outside
and has four parts:

``setup()``
    builds the inputs from the seed — data set, tree, freeze, queries,
    traffic, fault plan.  Timed by the caller as ``setup_s``.
``body()``
    the timed work.  A closed loop with one client on the host side:
    the next call starts when the previous one returns.  Inside the
    DES workloads arrivals are open-loop in *simulated* time and
    latency runs from the scheduled arrival.
``check(raw)``
    compares what ``body`` returned with the brute-force oracle, outside
    the timed region; returns ``(attempted, failed, notes)``.
``facts(raw)``
    everything that must repeat exactly under a fixed seed: simulated
    times, counts and ``sim_digest``.

The runner repeats the same body for ``--seconds``.  Sizes keep a body
to a second or two on the reference box where that leaves ten samples
beyond every reported p99; ``build_insert`` runs at the ROADMAP's
n = 20 000 (14 s a body) because per-insert cost grows with n.  The
reasons each workload exists are in ``README.md`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro import datasets
from repro.core import CountingExecutor
from repro.experiments.setup import make_factory
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.faults.plan import CrashWindow, SlowWindow
from repro.obs import (
    LifecycleLog,
    MetricsRegistry,
    SLOTracker,
    TimelineSampler,
    Tracer,
    build_run_report,
    flatten_scalars,
    slo_from_policy,
    write_openmetrics,
    write_report,
    write_trace,
)
from repro.parallel import ParallelRStarTree, build_parallel_tree, make_policy
from repro.rtree import flat
from repro.rtree.validate import InvariantViolation, check_invariants
from repro.serving import (
    full_serving_policy,
    make_scenario,
    mmpp_trace,
    scenario_from_arrivals,
    serve_scenario,
)
from repro.simulation.parameters import SystemParameters
from repro.simulation.simulator import simulate_workload
from repro.simulation.updates import simulate_mixed_workload

from oracle import Oracle
from spans import Recorder

ALGORITHMS = ("BBSS", "FPSS", "CRSS", "WOPTSS")
NUM_DISKS = 10
PAGE_SIZE = 4096
K_2D = 10

#: Operation counts per scale.  ``full`` is what BENCHMARK.json measures;
#: ``smoke`` keeps every code path (rejections, degraded answers,
#: breaker opens, hedges, a rebuild) at a size the harness tests can
#: run in-process in a second or two.
SIZES = {
    "full": {
        "n_2d": 4000,
        "build_insert": {"n": 20000, "probes": 50},
        "sim_paper": {"queries": 750, "rate": 15.0},
        "counted_highdim": {"n": 2000, "dims": 10, "queries": 250, "k": 100},
        "serve_observed": {
            "rate": 1700.0, "burst_factor": 2.0, "horizon": 1.5,
            "deadline": 0.06, "buffer_pages": 32,
        },
        "serve_raid1_chaos": {
            "rate": 380.0, "horizon": 4.5, "deadline": 0.15,
            "slow_factor": 4.0,
        },
        "mixed_updates": {
            "n": 2500, "queries": 1000, "inserts": 1667, "deletes": 667,
            "probes": 200,
        },
    },
    "smoke": {
        "n_2d": 600,
        "build_insert": {"n": 600, "probes": 20},
        "sim_paper": {"queries": 40, "rate": 15.0},
        "counted_highdim": {"n": 300, "dims": 10, "queries": 8, "k": 20},
        "serve_observed": {
            "rate": 8000.0, "burst_factor": 4.0, "horizon": 0.1,
            "deadline": 0.05, "buffer_pages": 2,
        },
        "serve_raid1_chaos": {
            "rate": 1500.0, "horizon": 0.6, "deadline": 0.05,
            "slow_factor": 8.0,
        },
        "mixed_updates": {
            "n": 400, "queries": 60, "inserts": 100, "deletes": 40,
            "probes": 40,
        },
    },
}


class SanityError(RuntimeError):
    """A serve workload ran without exercising a path it exists for."""


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, as ``WorkloadResult.percentile``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
        sha.update(b"|")
    return sha.hexdigest()


def _answers_key(answers) -> Tuple:
    return tuple((neighbor.oid, neighbor.distance) for neighbor in answers)


def _record_key(record) -> Tuple:
    return (
        record.query, record.arrival, record.completion,
        record.pages_fetched, record.rounds, record.complete,
        record.certified_radius, _answers_key(record.answers),
    )


def _tree_facts(tree: ParallelRStarTree) -> Dict[str, float]:
    """Shape and balance of a pointer tree (exact counts)."""
    pages = tree.tree.pages.values()
    leaves = [node for node in pages if node.is_leaf]
    per_disk = tree.objects_per_disk()
    mean_objects = sum(per_disk) / len(per_disk)
    return {
        "rtree.nodes": len(pages),
        "rtree.height": tree.height,
        "rtree.leaf_fill": (
            sum(len(leaf.entries) for leaf in leaves)
            / (len(leaves) * tree.tree.max_entries)
        ),
        "parallel.disk_balance": (
            max(per_disk) / mean_objects if mean_objects else 0.0
        ),
    }


class Workload:
    """Base: seeds, scale, recorder and the scratch directory."""

    name = ""
    #: True when ``body`` changes what ``setup`` built, so every repeat
    #: needs a fresh set-up.
    mutates = False

    def __init__(self, seed: int, scale: str, recorder: Recorder,
                 out_dir: str):
        self.seed = seed
        self.size = SIZES[scale][self.name]
        self.n_2d = SIZES[scale]["n_2d"]
        self.rec = recorder
        self.out_dir = out_dir
        #: While set (the traced pass), algorithm factories time every
        #: coroutine resume.
        self.tracing = False
        self.tree_facts: Dict[str, float] = {}

    # Every input seed is an offset of --seed; the program under test
    # only ever receives the generated inputs.
    def sub_seed(self, offset: int) -> int:
        return self.seed * 1000 + offset

    def build_2d(self, n: int):
        """uniform(n, 2-d) declustered over ten disks with PI."""
        with self.rec.stage("datasets.gen"):
            data = datasets.uniform(n=n, dims=2, seed=self.sub_seed(0))
        with self.rec.stage("setup.build"):
            tree = build_parallel_tree(
                data, dims=2, num_disks=NUM_DISKS,
                policy=make_policy("proximity", seed=self.sub_seed(0)),
                seed=self.sub_seed(0), page_size=PAGE_SIZE,
            )
        self.tree_facts = _tree_facts(tree)
        return data, tree

    def factory(self, algorithm: str, tree, k: int) -> Callable:
        base = make_factory(algorithm, tree, k)
        if not self.tracing:
            return base
        name = f"core.{algorithm.lower()}.run"
        rec = self.rec

        def make(query):
            search = base(query)
            run = search.run
            search.run = lambda root: rec.wrap_coroutine(name, run(root))
            return search

        return make

    def setup(self) -> None:
        raise NotImplementedError

    def body(self) -> Dict:
        raise NotImplementedError

    def check(self, raw: Dict) -> Tuple[int, int, List[str]]:
        raise NotImplementedError

    def facts(self, raw: Dict) -> Dict:
        raise NotImplementedError


# -- build_insert ------------------------------------------------------------


class BuildInsert(Workload):
    name = "build_insert"

    def setup(self) -> None:
        with self.rec.stage("datasets.gen"):
            self.data = datasets.uniform(
                n=self.size["n"], dims=2, seed=self.sub_seed(0)
            )
            self.probes = datasets.sample_queries(
                self.data, self.size["probes"], seed=self.sub_seed(1)
            )

    def body(self) -> Dict:
        rec = self.rec
        tree = ParallelRStarTree(
            2, NUM_DISKS,
            policy=make_policy("proximity", seed=self.sub_seed(0)),
            seed=self.sub_seed(0), page_size=PAGE_SIZE,
        )
        now = time.perf_counter_ns
        op_ns: List[int] = []
        for oid, point in enumerate(self.data):
            rec.op_id = oid
            start = now()
            tree.insert(point, oid)
            op_ns.append(now() - start)
        rec.op_id = -1
        scratch = tempfile.mkdtemp(prefix="tmp-", dir=self.out_dir)
        try:
            path = os.path.join(scratch, "tree.flat")
            with rec.stage("flat.freeze"):
                frozen = flat.flatten(tree)
            with rec.stage("flat.save"):
                flat.save_flat(frozen, path)
            with rec.stage("flat.load"):
                loaded = flat.load_flat(path)
            file_bytes = os.path.getsize(path)
        finally:
            shutil.rmtree(scratch)
        return {
            "ops": len(self.data), "op_ns": op_ns, "tree": tree,
            "frozen": frozen, "loaded": loaded, "file_bytes": file_bytes,
        }

    def _probe_answers(self, tree) -> List:
        executor = CountingExecutor(tree)
        factory = make_factory("CRSS", tree, K_2D)
        return [executor.execute(factory(query)) for query in self.probes]

    def check(self, raw: Dict) -> Tuple[int, int, List[str]]:
        notes: List[str] = []
        failed = 0
        tree = raw["tree"]
        try:
            check_invariants(tree.tree)
            sound = len(tree) == len(self.data)
        except InvariantViolation as error:
            notes.append(f"invariants: {error}")
            sound = False
        if not sound:
            failed += len(self.data)
        oracle = Oracle(enumerate(self.data))
        raw["probe_answers"] = self._probe_answers(raw["frozen"])
        reloaded = self._probe_answers(raw["loaded"])
        for query, before, after in zip(
            self.probes, raw["probe_answers"], reloaded
        ):
            if _answers_key(before) != _answers_key(after) or not oracle.check(
                query, K_2D, before
            ):
                failed += 1
        return len(self.data) + len(self.probes), failed, notes

    def facts(self, raw: Dict) -> Dict:
        facts = _tree_facts(raw["tree"])
        facts["flat.bytes_per_object"] = raw["file_bytes"] / len(self.data)
        facts["sim_digest"] = _digest(
            [sorted(facts.items())]
            + [_answers_key(a) for a in raw["probe_answers"]]
        )
        return facts


# -- sim_paper ---------------------------------------------------------------


def _workload_facts(records: Sequence) -> Dict[str, float]:
    latencies = [record.response_time for record in records]
    return {
        "sim_response_mean_s": math.fsum(latencies) / len(latencies),
        "sim_response_p99_s": percentile(latencies, 0.99),
        "sim_samples": len(latencies),
        "pages_per_op": (
            sum(record.pages_fetched for record in records) / len(records)
        ),
    }


def _seek_per_call(results: Sequence) -> float:
    requests = sum(sum(result.disk_requests) for result in results)
    if not requests:
        return 0.0
    return sum(sum(result.seek_distances) for result in results) / requests


class SimPaper(Workload):
    name = "sim_paper"

    def setup(self) -> None:
        self.data, self.tree = self.build_2d(self.n_2d)
        self.queries = datasets.sample_queries(
            self.data, self.size["queries"], seed=self.sub_seed(1)
        )

    def body(self) -> Dict:
        results = {}
        for algorithm in ALGORITHMS:
            results[algorithm] = simulate_workload(
                self.tree, self.factory(algorithm, self.tree, K_2D),
                self.queries, arrival_rate=self.size["rate"],
                seed=self.sub_seed(4),
            )
        return {"ops": len(ALGORITHMS) * len(self.queries), "results": results}

    def check(self, raw: Dict) -> Tuple[int, int, List[str]]:
        oracle = Oracle(enumerate(self.data))
        failed = 0
        for result in raw["results"].values():
            # A query that never settled left no record.
            failed += len(self.queries) - len(result.records)
            for record in result.records:
                if not record.complete or not oracle.check(
                    record.query, K_2D, record.answers
                ):
                    failed += 1
        return raw["ops"], failed, []

    def facts(self, raw: Dict) -> Dict:
        results = raw["results"]
        records = [r for result in results.values() for r in result.records]
        facts = _workload_facts(records)
        for algorithm, result in results.items():
            prefix = f"core.{algorithm.lower()}"
            facts[f"{prefix}.rounds_per_op"] = sum(
                r.rounds for r in result.records
            ) / len(result.records)
            facts[f"{prefix}.pages_per_op"] = result.mean_pages
        facts["disks.seek_distance_per_call"] = _seek_per_call(
            list(results.values())
        )
        facts["sim_digest"] = _digest(
            (algorithm, [_record_key(r) for r in result.records])
            for algorithm, result in results.items()
        )
        return facts


# -- counted_highdim ---------------------------------------------------------


class CountedHighdim(Workload):
    name = "counted_highdim"

    def setup(self) -> None:
        size = self.size
        with self.rec.stage("datasets.gen"):
            self.data = datasets.gaussian(
                n=size["n"], dims=size["dims"], seed=self.sub_seed(0)
            )
        with self.rec.stage("setup.build"):
            tree = build_parallel_tree(
                self.data, dims=size["dims"], num_disks=NUM_DISKS,
                policy=make_policy("proximity", seed=self.sub_seed(0)),
                seed=self.sub_seed(0), page_size=PAGE_SIZE,
            )
        self.tree_facts = _tree_facts(tree)
        with self.rec.stage("flat.freeze"):
            self.tree = flat.flatten(tree)
        self.queries = datasets.sample_queries(
            self.data, size["queries"], seed=self.sub_seed(1)
        )

    def body(self) -> Dict:
        rec = self.rec
        k = self.size["k"]
        executor = CountingExecutor(self.tree)
        now = time.perf_counter_ns
        op_ns: List[int] = []
        outcomes = []
        for algorithm in ALGORITHMS:
            factory = self.factory(algorithm, self.tree, k)
            for query in self.queries:
                rec.op_id = len(op_ns)
                start = now()
                answers = executor.execute(factory(query))
                op_ns.append(now() - start)
                stats = executor.last_stats
                outcomes.append(
                    (algorithm, query, answers, stats.nodes_visited,
                     stats.rounds)
                )
        rec.op_id = -1
        return {"ops": len(op_ns), "op_ns": op_ns, "outcomes": outcomes}

    def check(self, raw: Dict) -> Tuple[int, int, List[str]]:
        oracle = Oracle(enumerate(self.data))
        failed = sum(
            not oracle.check(query, self.size["k"], answers)
            for _, query, answers, _, _ in raw["outcomes"]
        )
        return raw["ops"], failed, []

    def facts(self, raw: Dict) -> Dict:
        outcomes = raw["outcomes"]
        facts = {
            "pages_per_op": sum(o[3] for o in outcomes) / len(outcomes),
        }
        for algorithm in ALGORITHMS:
            mine = [o for o in outcomes if o[0] == algorithm]
            prefix = f"core.{algorithm.lower()}"
            facts[f"{prefix}.pages_per_op"] = sum(o[3] for o in mine) / len(mine)
            facts[f"{prefix}.rounds_per_op"] = sum(o[4] for o in mine) / len(mine)
        facts["sim_digest"] = _digest(
            (o[0], o[1], _answers_key(o[2]), o[3], o[4]) for o in outcomes
        )
        return facts


# -- the two serve workloads -------------------------------------------------


def _check_served(oracle: Oracle, serving, k: int) -> int:
    """Failed operations among the offered queries of a serving run."""
    failed = 0
    for query in serving.queries:
        point = serving.scenario.queries[query.qid]
        if query.outcome == "complete":
            ok = oracle.check(point, k, query.answers)
        elif query.outcome == "degraded":
            ok = oracle.check(
                point, k, query.answers,
                certified_radius=query.certified_radius,
            )
        else:
            # Shed and rejected queries carry the empty answer certified
            # to radius 0; they count against sim_served_share, not here.
            ok = not query.answers and query.certified_radius == 0.0
        failed += not ok
    return failed


def _serving_facts(serving) -> Dict[str, float]:
    counts = serving.outcome_counts()
    offered = len(serving.queries)
    served = serving.served_queries
    latencies = [query.response_time for query in served]
    records = serving.result.records
    pages_per_op = sum(r.pages_fetched for r in records) / len(records)
    facts = {
        "sim_response_mean_s": math.fsum(latencies) / len(latencies),
        "sim_response_p99_s": percentile(latencies, 0.99),
        "sim_samples": len(latencies),
        "sim_served_share": len(served) / offered,
        "pages_per_op": pages_per_op,
        "core.crss.rounds_per_op": sum(r.rounds for r in records) / len(records),
        "core.crss.pages_per_op": pages_per_op,
        "disks.seek_distance_per_call": serving.result.mean_seek_distance,
        "serving.offers": offered,
        "serving.rejected_share": counts["rejected"] / offered,
        "serving.shed_share": counts["shed"] / offered,
        "serving.tx_per_page": serving.transactions_per_page,
        "extensions.degraded_share": counts["degraded"] / offered,
        "faults.retries": serving.result.total_retries,
        "faults.failovers": serving.result.total_failovers,
    }
    page_requests = sum(r.page_requests for r in records)
    if page_requests:
        facts["simulation.buffer_hit_rate"] = (
            serving.result.total_buffer_hits / page_requests
        )
    batching = serving.batching
    if batching and batching["pages_submitted"]:
        facts["serving.broker_submits"] = batching["rounds_submitted"]
        facts["serving.dedup_share"] = (
            batching["shared_pages"] / batching["pages_submitted"]
        )
    facts["sim_digest"] = _digest(
        (q.qid, q.outcome, q.arrival, q.completion, q.certified_radius,
         _answers_key(q.answers))
        for q in serving.queries
    )
    return facts


class ServeObserved(Workload):
    name = "serve_observed"

    def setup(self) -> None:
        size = self.size
        self.data, tree = self.build_2d(self.n_2d)
        with self.rec.stage("flat.freeze"):
            self.tree = flat.flatten(tree)
        # make_scenario("bursty") fixes the MMPP dwell times at 0.5 s /
        # 2 s, which a horizon of a few seconds samples two or three
        # times; the offered load then swings by 2x from seed to seed.
        # The dwell times are scaled down with the horizon instead, so
        # every seed sees about a dozen bursts.
        with self.rec.stage("serving.traffic"):
            times = mmpp_trace(
                burst_rate=size["rate"],
                base_rate=size["rate"] / size["burst_factor"],
                horizon=size["horizon"],
                mean_burst=size["horizon"] / 300,
                mean_gap=size["horizon"] / 75,
                seed=self.sub_seed(2),
            )
            self.scenario = scenario_from_arrivals(
                "bursty",
                datasets.sample_queries(
                    self.data, len(times), seed=self.sub_seed(2)
                ),
                times,
                seed=self.sub_seed(2),
            )
        self.policy = full_serving_policy(32, 64, deadline=size["deadline"])
        self.params = SystemParameters(buffer_pages=size["buffer_pages"])

    def body(self) -> Dict:
        rec = self.rec
        tracer, metrics = Tracer(), MetricsRegistry()
        timeline, lifecycle = TimelineSampler(), LifecycleLog()
        slo = SLOTracker(slo_from_policy(self.policy))
        with rec.stage("body.serve"):
            serving = serve_scenario(
                self.tree, self.factory("CRSS", self.tree, K_2D),
                self.scenario, policy=self.policy, params=self.params,
                seed=self.sub_seed(4), tracer=tracer, metrics=metrics,
                timeline=timeline, lifecycle=lifecycle, slo=slo,
            )
        tracer_spans = len(tracer.records)
        timeline_samples = sum(len(track) for track in timeline)
        # What `repro serve --report --lifecycle-log --metrics-out
        # --trace` writes, in the order the CLI writes it.
        scratch = tempfile.mkdtemp(prefix="tmp-", dir=self.out_dir)
        try:
            with rec.stage("obs.report"):
                section = serving.serving_section()
                slo.merge_into(timeline)
                document = build_run_report(
                    "serve", {"workload": self.name, "seed": self.seed},
                    serving.result, metrics=metrics, timeline=timeline,
                    label="CRSS/" + self.policy.name, serving=section,
                    slo=serving.slo,
                )
                write_report(document, os.path.join(scratch, "report.json"))
            with rec.stage("obs.lifecycle_write"):
                lifecycle.write_jsonl(os.path.join(scratch, "life.jsonl"))
            with rec.stage("obs.openmetrics"):
                extra = flatten_scalars({"serving": section})
                extra.update(flatten_scalars({"slo": serving.slo}))
                write_openmetrics(
                    metrics, os.path.join(scratch, "metrics.prom"), extra=extra
                )
            with rec.stage("obs.trace_flush"):
                timeline.flush_to_tracer(tracer)
                lifecycle.flush_to_tracer(tracer)
            with rec.stage("obs.trace_write"):
                write_trace(tracer, os.path.join(scratch, "trace.json"), "chrome")
            export_bytes = sum(
                os.path.getsize(os.path.join(scratch, name))
                for name in os.listdir(scratch)
            )
        finally:
            shutil.rmtree(scratch)
        return {
            "ops": len(serving.queries), "serving": serving,
            "obs.tracer_spans": tracer_spans,
            "obs.timeline_samples": timeline_samples,
            "obs.export_bytes": export_bytes,
        }

    def check(self, raw: Dict) -> Tuple[int, int, List[str]]:
        serving = raw["serving"]
        counts = serving.outcome_counts()
        for outcome in ("rejected", "degraded"):
            if not counts[outcome]:
                raise SanityError(f"{self.name}: no {outcome} query")
        failed = _check_served(Oracle(enumerate(self.data)), serving, K_2D)
        return raw["ops"], failed, []

    def facts(self, raw: Dict) -> Dict:
        facts = _serving_facts(raw["serving"])
        for key in ("obs.tracer_spans", "obs.timeline_samples",
                    "obs.export_bytes"):
            facts[key] = raw[key]
        return facts


class ServeRaid1Chaos(Workload):
    name = "serve_raid1_chaos"

    def setup(self) -> None:
        size = self.size
        horizon = size["horizon"]
        self.data, self.tree = self.build_2d(self.n_2d)
        with self.rec.stage("serving.traffic"):
            self.scenario = make_scenario(
                "poisson", self.data, rate=size["rate"], horizon=horizon,
                seed=self.sub_seed(2),
            )
        self.policy = full_serving_policy(32, 64, deadline=size["deadline"])
        # Faults go to the three logical disks that hold the most pages,
        # so the drives they hit carry traffic on every seed and at
        # every scale.  Physical drive ids are logical*2 + replica.  Two
        # drives of different pairs crash and come back (each triggers a
        # rebuild); a third serves several times slower for most of the run, and
        # the breaker's latency threshold sits between a healthy
        # drive's loaded latency and the slow drive's.
        pages = self.tree.placement_histogram()
        busiest = sorted(pages, key=lambda disk: (-pages[disk], disk))
        self.plan = FaultPlan(
            seed=self.sub_seed(3),
            default_transient_prob=0.02,
            crashes=(
                CrashWindow(busiest[0] * 2 + 1, 0.1 * horizon, 0.3 * horizon),
                CrashWindow(busiest[1] * 2, 0.5 * horizon, 0.7 * horizon),
            ),
            slow_windows=(
                SlowWindow(
                    busiest[2] * 2, 0.2 * horizon, 0.8 * horizon,
                    size["slow_factor"],
                ),
            ),
        )
        self.retry = RetryPolicy(max_attempts=3, attempt_timeout=0.2)
        self.health = HealthPolicy(
            latency_threshold=0.06, seed=self.sub_seed(5)
        )

    def body(self) -> Dict:
        with self.rec.stage("body.serve"):
            serving = serve_scenario(
                self.tree, self.factory("CRSS", self.tree, K_2D),
                self.scenario, policy=self.policy, seed=self.sub_seed(4),
                fault_plan=self.plan, retry_policy=self.retry, raid="raid1",
                health=self.health, hedge=HedgePolicy(),
                rebuild=RebuildPolicy(),
            )
        return {"ops": len(serving.queries), "serving": serving}

    def check(self, raw: Dict) -> Tuple[int, int, List[str]]:
        serving = raw["serving"]
        exercised = {
            "degraded answer": serving.outcome_counts()["degraded"],
            "hedge won": serving.hedge["won"],
            "rebuild completed": serving.rebuild["completed"],
            "breaker open": serving.health["opens"],
        }
        for path, count in exercised.items():
            if not count:
                raise SanityError(f"{self.name}: no {path}")
        failed = _check_served(Oracle(enumerate(self.data)), serving, K_2D)
        return raw["ops"], failed, []

    def facts(self, raw: Dict) -> Dict:
        serving = raw["serving"]
        facts = _serving_facts(serving)
        hedge = serving.hedge
        facts.update({
            "faults.hedges_issued": hedge["issued"],
            "faults.hedges_won_share": (
                hedge["won"] / hedge["issued"] if hedge["issued"] else 0.0
            ),
            "faults.breaker_opens": serving.health["opens"],
            "faults.rebuild_pages": serving.rebuild["pages_streamed"],
        })
        return facts


# -- mixed_updates -----------------------------------------------------------


class MixedUpdates(Workload):
    name = "mixed_updates"
    mutates = True

    def setup(self) -> None:
        size = self.size
        self.data, self.tree = self.build_2d(size["n"])
        self.queries = datasets.sample_queries(
            self.data, size["queries"], seed=self.sub_seed(1)
        )
        with self.rec.stage("datasets.gen"):
            self.inserts = datasets.uniform(
                n=size["inserts"], dims=2, seed=self.sub_seed(6)
            )
        rng = random.Random(self.sub_seed(7))
        self.deletes = [
            (self.data[oid], oid)
            for oid in rng.sample(range(len(self.data)), size["deletes"])
        ]

    def body(self) -> Dict:
        result = simulate_mixed_workload(
            self.tree, self.factory("CRSS", self.tree, K_2D), self.queries,
            self.inserts, query_rate=15.0, insert_rate=25.0,
            seed=self.sub_seed(4), deletes=self.deletes, delete_rate=10.0,
        )
        ops = len(self.queries) + len(self.inserts) + len(self.deletes)
        return {"ops": ops, "result": result, "tree": self.tree}

    def check(self, raw: Dict) -> Tuple[int, int, List[str]]:
        result, tree = raw["result"], raw["tree"]
        notes: List[str] = []
        failed = len(self.queries) - len(result.queries.records)
        failed += len(self.inserts) + len(self.deletes) - len(result.updates)
        failed += sum(not update.applied for update in result.updates)
        expected = len(self.data) + len(self.inserts) - len(self.deletes)
        try:
            check_invariants(tree.tree)
            sound = len(tree) == expected
        except InvariantViolation as error:
            notes.append(f"invariants: {error}")
            sound = False
        if not sound:
            failed += len(self.inserts) + len(self.deletes)

        final = dict(enumerate(self.data))
        for _, oid in self.deletes:
            del final[oid]
        for offset, point in enumerate(self.inserts):
            final[len(self.data) + offset] = point
        oracle = Oracle(final.items())
        probes = datasets.sample_queries(
            self.data, self.size["probes"], seed=self.sub_seed(8)
        )
        executor = CountingExecutor(tree)
        factory = make_factory("CRSS", tree, K_2D)
        raw["probe_answers"] = [
            executor.execute(factory(probe)) for probe in probes
        ]
        failed += sum(
            not oracle.check(probe, K_2D, answers)
            for probe, answers in zip(probes, raw["probe_answers"])
        )
        return raw["ops"] + len(probes), failed, notes

    def facts(self, raw: Dict) -> Dict:
        result = raw["result"]
        records = result.queries.records
        facts = _workload_facts(records)
        facts.update(_tree_facts(raw["tree"]))
        facts["core.crss.rounds_per_op"] = (
            sum(r.rounds for r in records) / len(records)
        )
        facts["core.crss.pages_per_op"] = facts["pages_per_op"]
        facts["simulation.lock_grants"] = (
            result.reads_granted + result.writes_granted
        )
        facts["sim_digest"] = _digest(
            [[_record_key(r) for r in records]]
            + [(u.kind, u.point, u.arrival, u.completion, u.applied)
               for u in result.updates]
            + [_answers_key(a) for a in raw["probe_answers"]]
        )
        return facts


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (BuildInsert, SimPaper, CountedHighdim, ServeObserved,
                ServeRaid1Chaos, MixedUpdates)
}
