"""Query EXPLAIN: traversal decision traces and pruning accounting.

The time-oriented layers (breakdowns, timelines, RunReports) say how
long a query took; this module says **why** it cost what it cost.  An
:class:`ExplainRecorder` is attached to a search algorithm (the
``algorithm.explain`` attribute, ``None`` by default) and captures the
traversal decision log:

* every node *visited* and every branch *pruned*, per tree level, with
  the pruning reason — Lemma 1 thresholding (``lemma1``), the k-th
  best actual distance (``kth``), BBSS's k=1 ``Dmm`` downward rule
  (``rule1_dmm``), CRSS's guard-entry run cut (``guard``), WOPTSS's
  oracle sphere (``oracle``), or an unreachable/deadline-resolved page
  (``unreachable``);
* the ``D_th`` / k-th-distance trajectory over fetch rounds;
* the per-round disk fanout (which disks each activation list touched);
* CRSS's operating-mode transitions (ADAPTIVE / UPDATE / NORMAL /
  TERMINATE, the paper's Figure 6) and candidate-stack pushes.

The recorder is **bit-identity-neutral**: it draws no RNG, schedules
nothing, and never feeds a value back into the search, so same-seed
answer digests (and the simulation's golden traces) are unchanged with
and without it — asserted per algorithm by the test suite.

Aggregation distils the log into an explain report with

* **pruning-efficiency ratios** — visited / pruned / considered per
  level and overall (``pruned / considered``; higher means the
  threshold machinery discarded more of the tree without fetching it);
* **threshold tightness** — the final k-th distance over the final
  ``D_th`` estimate (1.0 = the Lemma 1 bound was exact);
* a **per-disk × per-round access heatmap** with a declustering score:
  each round's achieved disk fanout over the ideal
  ``min(pages_in_round, NumOfDisks)`` — the quantity the paper's §4
  analysis assumes PI declustering maximises.

Like the rest of ``repro.obs`` this module is a leaf: it imports
nothing from the algorithm or simulation layers.  Tree knowledge
arrives duck-typed as two callables, ``level_of(page_id)`` and
``disk_of(page_id)``, supplied by whoever owns the tree.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.report import fold_mean
from repro.obs.timeline import sparkline

#: Bumped when the explain artifact layout changes incompatibly.
EXPLAIN_SCHEMA = "repro-explain/1"

#: Every pruning reason a recorder may see (rendering/report order).
PRUNE_REASONS = (
    "lemma1",        # Dmin > D_th from Lemma 1 (FPSS/CRSS descending)
    "kth",           # Dmin > current k-th best actual distance
    "rule1_dmm",     # BBSS downward rule: Dmin > a sibling's Dmm (k=1)
    "guard",         # CRSS guard cut: run remainder outside the sphere
    "oracle",        # WOPTSS: outside the known sphere(P_q, D_k)
    "unreachable",   # page never arrived (crash / deadline) — skipped
)

#: CRSS operating modes (paper Figure 6), in lifecycle order.
CRSS_MODES = ("ADAPTIVE", "UPDATE", "NORMAL", "TERMINATE")

#: Aggregated heatmaps clip to this many fetch rounds (the tail of a
#: straggler query would otherwise make artifact shapes load-dependent).
HEATMAP_MAX_ROUNDS = 64

#: Glyphs for heatmap cells, lowest to highest intensity.
_HEAT_GLYPHS = " ░▒▓█"


def _sqrt(value_sq: float) -> float:
    """Distance from a squared distance (``inf`` passes through)."""
    return math.sqrt(value_sq) if math.isfinite(value_sq) else math.inf


class ExplainRecorder:
    """The per-query traversal decision log.

    :param num_disks: disks in the array (the heatmap's row count and
        the fanout ideal's cap).
    :param level_of: optional callable resolving a page id to its tree
        level (0 = leaf); unresolved pages land on level ``-1``.
    :param disk_of: optional callable resolving a page id to its disk;
        without it the heatmap and fanout scores stay empty.
    :param label: free-form tag (the algorithm name, usually).

    Algorithms call :meth:`prune`, :meth:`threshold`, :meth:`mode` and
    :meth:`stacked`; executors call :meth:`observe_round` once per
    fetch round.  All hooks are pure appends — no RNG, no feedback.
    """

    def __init__(
        self,
        num_disks: int = 1,
        level_of: Optional[Callable[[int], int]] = None,
        disk_of: Optional[Callable[[int], int]] = None,
        label: str = "",
    ):
        self.num_disks = max(1, int(num_disks))
        self._level_of = level_of
        self._disk_of = disk_of
        self.label = label
        #: Visited (fetched) pages per level.
        self.visited_per_level: Counter = Counter()
        #: Pruned branches per (level, reason).
        self.pruned: Counter = Counter()
        #: Per-round page-count per disk (the heatmap's columns).
        self.rounds: List[Dict[int, int]] = []
        #: Per-round pages requested (delivered + failed).
        self.round_sizes: List[int] = []
        #: ``(round, dth_sq, kth_sq)`` trajectory samples.
        self.trajectory: List[Tuple[int, float, float]] = []
        #: ``(round, mode)`` transitions (CRSS only).
        self.mode_transitions: List[Tuple[int, str]] = []
        #: Candidates pushed onto the CRSS stack, total.
        self.stacked_candidates = 0
        #: Flat decision-event log for trace export:
        #: ``(round, kind, page_id, level, reason)``.
        self.events: List[Tuple[int, str, int, int, str]] = []

    # -- resolution helpers --------------------------------------------------

    def _level(self, page_id: int) -> int:
        if self._level_of is None:
            return -1
        try:
            return int(self._level_of(page_id))
        except (KeyError, LookupError):
            return -1

    @property
    def round_index(self) -> int:
        """Fetch rounds observed so far (the current decision step)."""
        return len(self.rounds)

    # -- algorithm-side hooks ------------------------------------------------

    def prune(self, page_id: int, reason: str) -> None:
        """One branch discarded without being fetched."""
        level = self._level(page_id)
        self.pruned[(level, reason)] += 1
        self.events.append((self.round_index, "prune", page_id, level, reason))

    def threshold(self, dth_sq: float, kth_sq: float) -> None:
        """Sample the ``D_th`` / k-th-distance pair at this step."""
        self.trajectory.append((self.round_index, dth_sq, kth_sq))

    def mode(self, mode: str) -> None:
        """Record a CRSS mode transition (deduplicated against the last)."""
        if not self.mode_transitions or self.mode_transitions[-1][1] != mode:
            self.mode_transitions.append((self.round_index, mode))
            self.events.append((self.round_index, "mode", -1, -1, mode))

    def stacked(self, count: int) -> None:
        """*count* candidates were saved onto the candidate stack."""
        self.stacked_candidates += count

    # -- executor-side hook --------------------------------------------------

    def observe_round(
        self, delivered: Sequence[int], failed: Sequence[int] = ()
    ) -> None:
        """One fetch round completed.

        :param delivered: page ids that arrived (visited nodes).
        :param failed: page ids that resolved as unreachable — recorded
            as ``unreachable`` prunes (the subtree was skipped).
        """
        per_disk: Dict[int, int] = {}
        for page_id in delivered:
            level = self._level(page_id)
            self.visited_per_level[level] += 1
            self.events.append(
                (self.round_index, "visit", page_id, level, "")
            )
            if self._disk_of is not None:
                disk = int(self._disk_of(page_id))
                per_disk[disk] = per_disk.get(disk, 0) + 1
        for page_id in failed:
            level = self._level(page_id)
            self.pruned[(level, "unreachable")] += 1
            self.events.append(
                (self.round_index, "prune", page_id, level, "unreachable")
            )
        self.rounds.append(per_disk)
        self.round_sizes.append(len(delivered) + len(failed))

    # -- derived quantities --------------------------------------------------

    @property
    def nodes_visited(self) -> int:
        """Pages fetched across the whole search."""
        return sum(self.visited_per_level.values())

    @property
    def nodes_pruned(self) -> int:
        """Branches discarded without a fetch, all reasons."""
        return sum(self.pruned.values())

    @property
    def pruning_efficiency(self) -> float:
        """``pruned / (visited + pruned)`` — 0.0 when nothing was seen."""
        considered = self.nodes_visited + self.nodes_pruned
        return self.nodes_pruned / considered if considered else 0.0

    def fanout_per_round(self) -> List[Tuple[int, int]]:
        """Per round: ``(achieved_fanout, ideal_fanout)``.

        Achieved is the count of distinct disks the round touched;
        ideal is ``min(pages_in_round, num_disks)``.  Rounds with no
        physical I/O (all pages unreachable) are skipped.
        """
        pairs = []
        for per_disk, size in zip(self.rounds, self.round_sizes):
            if not per_disk:
                continue
            pairs.append((len(per_disk), min(size, self.num_disks)))
        return pairs

    @property
    def mean_fanout_ratio(self) -> float:
        """Mean achieved/ideal disk fanout over the query's rounds."""
        return fold_mean([a / i for a, i in self.fanout_per_round()])

    @property
    def threshold_tightness(self) -> Optional[float]:
        """Final k-th distance over the final finite ``D_th``.

        1.0 means Lemma 1's estimate matched the true k-th distance;
        smaller means the threshold was looser (it over-admitted).
        ``None`` when the query never produced both quantities.
        """
        final_dth_sq = math.inf
        final_kth_sq = math.inf
        for _, dth_sq, kth_sq in self.trajectory:
            if math.isfinite(dth_sq):
                final_dth_sq = dth_sq
            if math.isfinite(kth_sq):
                final_kth_sq = kth_sq
        if not (math.isfinite(final_dth_sq) and math.isfinite(final_kth_sq)):
            return None
        if final_dth_sq <= 0.0:
            return 1.0
        return min(1.0, _sqrt(final_kth_sq) / _sqrt(final_dth_sq))

    @property
    def insufficient_k(self) -> bool:
        """True when the search never found k neighbors at all.

        Happens when ``k`` exceeds the (reachable) dataset size: the
        k-th distance stays infinite through every threshold sample, so
        :attr:`threshold_tightness` is ``None`` and the query would
        otherwise silently vanish from the tightness average.  The
        workload aggregate surfaces these as an explicit
        ``insufficient_k`` count instead.
        """
        if not self.trajectory:
            return False
        return all(
            not math.isfinite(kth_sq) for _, _, kth_sq in self.trajectory
        )

    def levels(self) -> List[int]:
        """Every level with activity, root-first (descending)."""
        seen = set(self.visited_per_level)
        seen.update(level for level, _ in self.pruned)
        return sorted(seen, reverse=True)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready, deterministic rendering of the full decision log."""
        per_level = {}
        for level in self.levels():
            reasons = {
                reason: self.pruned[(level, reason)]
                for reason in PRUNE_REASONS
                if self.pruned[(level, reason)]
            }
            visited = self.visited_per_level.get(level, 0)
            pruned = sum(reasons.values())
            per_level[str(level)] = {
                "visited": visited,
                "pruned": pruned,
                "considered": visited + pruned,
                "reasons": reasons,
            }
        tightness = self.threshold_tightness
        return {
            "label": self.label,
            "num_disks": self.num_disks,
            "nodes_visited": self.nodes_visited,
            "nodes_pruned": self.nodes_pruned,
            "pruning_efficiency": self.pruning_efficiency,
            "stacked_candidates": self.stacked_candidates,
            "per_level": per_level,
            "rounds": len(self.rounds),
            "fanout": {
                "mean_ratio": self.mean_fanout_ratio,
                "per_round": [
                    list(pair) for pair in self.fanout_per_round()
                ],
            },
            "threshold": {
                "tightness": tightness,
                "trajectory": [
                    {
                        "round": step,
                        "dth": _sqrt(dth_sq) if math.isfinite(dth_sq) else None,
                        "kth": _sqrt(kth_sq) if math.isfinite(kth_sq) else None,
                    }
                    for step, dth_sq, kth_sq in self.trajectory
                ],
            },
            "modes": [
                {"round": step, "mode": mode}
                for step, mode in self.mode_transitions
            ],
            "heatmap": heatmap_dict([self]),
        }

    def flush_to_tracer(self, tracer, track: str = "explain") -> int:
        """Emit every decision event into *tracer* as logical instants.

        Events are stamped with their fetch-round index as the
        timestamp (the recorder has no clock), matching the counting
        executor's logical ``fetch_round`` instants.  Returns the
        number of records emitted.
        """
        emitted = 0
        for step, kind, page_id, level, detail in self.events:
            args: Dict[str, object] = {"page": page_id, "level": level}
            if detail:
                args["reason" if kind == "prune" else "mode"] = detail
            tracer.instant(
                track, kind, "explain", ts=float(step), args=args
            )
            emitted += 1
        return emitted


def heatmap_dict(
    recorders: Sequence[ExplainRecorder],
    max_rounds: int = HEATMAP_MAX_ROUNDS,
) -> Dict[str, object]:
    """Per-disk × per-round access counts summed over *recorders*.

    The grid under ``"values"`` is row-per-disk, column-per-round —
    the key is named ``values`` deliberately so
    :func:`repro.obs.diff.flatten_numeric` skips the raw cells (the
    scalar scores above them still diff).
    """
    num_disks = max((r.num_disks for r in recorders), default=1)
    rounds = min(
        max((len(r.rounds) for r in recorders), default=0), max_rounds
    )
    grid = [[0] * rounds for _ in range(num_disks)]
    clipped = 0
    for recorder in recorders:
        clipped += max(0, len(recorder.rounds) - max_rounds)
        for step, per_disk in enumerate(recorder.rounds[:max_rounds]):
            for disk, count in per_disk.items():
                if 0 <= disk < num_disks:
                    grid[disk][step] += count
    return {
        "disks": num_disks,
        "rounds": rounds,
        "clipped_rounds": clipped,
        "values": grid,
    }


def render_heatmap(heatmap: Dict[str, object], title: str = "") -> str:
    """ASCII rendering of a heatmap dict: one row per disk.

    Cell intensity scales to the hottest cell; the footer states the
    scale so the glyphs are readable without a legend.
    """
    grid: List[List[int]] = heatmap.get("values") or []  # type: ignore
    if not grid or not heatmap.get("rounds"):
        return "(no disk accesses recorded)"
    peak = max((max(row) for row in grid if row), default=0)
    lines = []
    if title:
        lines.append(title)
    top = len(_HEAT_GLYPHS) - 1
    for disk, row in enumerate(grid):
        cells = "".join(
            _HEAT_GLYPHS[0]
            if value == 0
            else _HEAT_GLYPHS[max(1, min(top, round(value / peak * top)))]
            for value in row
        )
        lines.append(f"  disk{disk:<3} |{cells}|")
    lines.append(
        f"  rounds ->  (1 column per fetch round, peak cell = "
        f"{peak} page{'s' if peak != 1 else ''})"
    )
    if heatmap.get("clipped_rounds"):
        lines.append(
            f"  ({heatmap['clipped_rounds']} round(s) beyond column "
            f"{heatmap['rounds']} clipped)"
        )
    return "\n".join(lines)


def format_explain(recorder: ExplainRecorder, width: int = 60) -> str:
    """Terminal rendering of one query's decision log.

    Level-by-level visit/prune table (an ASCII traversal tree,
    root-first), threshold trajectory sparklines, CRSS mode line, and
    the per-disk × per-round heatmap.
    """
    lines = [
        f"explain: {recorder.label or 'query'} — "
        f"{recorder.nodes_visited} visited / "
        f"{recorder.nodes_pruned} pruned over {len(recorder.rounds)} "
        f"round(s), pruning efficiency "
        f"{recorder.pruning_efficiency:.1%}"
    ]
    levels = recorder.levels()
    if levels:
        lines.append("  traversal (root at the top):")
        for depth, level in enumerate(levels):
            visited = recorder.visited_per_level.get(level, 0)
            reasons = ", ".join(
                f"{reason} {recorder.pruned[(level, reason)]}"
                for reason in PRUNE_REASONS
                if recorder.pruned[(level, reason)]
            )
            considered = visited + sum(
                recorder.pruned[(level, reason)] for reason in PRUNE_REASONS
            )
            name = "leaf" if level == 0 else f"L{level}"
            indent = "  " * depth
            lines.append(
                f"    {indent}{name:<6} visited {visited:>4} / "
                f"considered {considered:>4}"
                + (f"  pruned: {reasons}" if reasons else "")
            )
    if recorder.trajectory:
        steps = max(step for step, _, _ in recorder.trajectory) + 1
        dth_series = [math.nan] * steps
        kth_series = [math.nan] * steps
        for step, dth_sq, kth_sq in recorder.trajectory:
            if math.isfinite(dth_sq):
                dth_series[step] = _sqrt(dth_sq)
            if math.isfinite(kth_sq):
                kth_series[step] = _sqrt(kth_sq)
        for name, series in (("Dth", dth_series), ("kth", kth_series)):
            finite = [v for v in series if not math.isnan(v)]
            if not finite:
                continue
            filled = [finite[0] if math.isnan(v) else v for v in series]
            lines.append(
                f"  {name:<4}: {sparkline(filled)}  "
                f"final {finite[-1]:.4f}"
            )
        tightness = recorder.threshold_tightness
        if tightness is not None:
            lines.append(
                f"  threshold tightness: {tightness:.3f} "
                f"(final kth distance / final Dth estimate)"
            )
    if recorder.mode_transitions:
        lines.append(
            "  modes: "
            + " -> ".join(
                f"{mode}@r{step}" for step, mode in recorder.mode_transitions
            )
        )
    if recorder.stacked_candidates:
        lines.append(
            f"  candidate stack: {recorder.stacked_candidates} "
            f"candidates saved"
        )
    pairs = recorder.fanout_per_round()
    if pairs:
        lines.append(
            f"  declustering: mean fanout ratio "
            f"{recorder.mean_fanout_ratio:.3f} "
            f"(achieved/ideal disks per round)"
        )
    lines.append(render_heatmap(heatmap_dict([recorder])))
    return "\n".join(lines)


class WorkloadExplain:
    """Aggregates per-query recorders into a workload explain section.

    Acts as the recorder factory for a workload run: the algorithm
    factory calls :meth:`recorder` once per query (in arrival order,
    which keeps the aggregate deterministic) and attaches the result to
    ``algorithm.explain``.
    """

    def __init__(
        self,
        num_disks: int = 1,
        level_of: Optional[Callable[[int], int]] = None,
        disk_of: Optional[Callable[[int], int]] = None,
        label: str = "",
    ):
        self.num_disks = num_disks
        self._level_of = level_of
        self._disk_of = disk_of
        self.label = label
        self.recorders: List[ExplainRecorder] = []

    def recorder(self) -> ExplainRecorder:
        """A fresh per-query recorder, registered for aggregation."""
        recorder = ExplainRecorder(
            num_disks=self.num_disks,
            level_of=self._level_of,
            disk_of=self._disk_of,
            label=f"{self.label}#{len(self.recorders)}",
        )
        self.recorders.append(recorder)
        return recorder

    def attach(self, factory):
        """Wrap an algorithm *factory* so every instance records.

        Returns a new factory; the original is untouched.
        """
        def explained_factory(query):
            algorithm = factory(query)
            algorithm.explain = self.recorder()
            return algorithm

        return explained_factory

    def aggregate(self) -> Dict[str, object]:
        """The workload-level explain section (JSON-ready, deterministic).

        Scalar scores live at fixed dotted paths so ``repro diff`` can
        gate them; the raw heatmap grid hides under ``"values"`` (which
        the diff flattener skips).
        """
        recorders = self.recorders
        visited = sum(r.nodes_visited for r in recorders)
        pruned = sum(r.nodes_pruned for r in recorders)
        considered = visited + pruned
        per_level: Dict[str, Dict[str, int]] = {}
        reason_totals: Counter = Counter()
        level_ids = sorted(
            {level for r in recorders for level in r.levels()}, reverse=True
        )
        for level in level_ids:
            level_visited = sum(
                r.visited_per_level.get(level, 0) for r in recorders
            )
            reasons = {}
            for reason in PRUNE_REASONS:
                count = sum(r.pruned[(level, reason)] for r in recorders)
                if count:
                    reasons[reason] = count
                    reason_totals[reason] += count
            level_pruned = sum(reasons.values())
            per_level[str(level)] = {
                "visited": level_visited,
                "pruned": level_pruned,
                "considered": level_visited + level_pruned,
                "reasons": reasons,
            }
        tightnesses = [
            t
            for t in (r.threshold_tightness for r in recorders)
            if t is not None
        ]
        fanout_pairs = [
            pair for r in recorders for pair in r.fanout_per_round()
        ]
        mean_fanout = (
            sum(a for a, _ in fanout_pairs) / len(fanout_pairs)
            if fanout_pairs
            else 0.0
        )
        mean_ratio = fold_mean([a / i for a, i in fanout_pairs])
        mode_rounds: Counter = Counter()
        for recorder in recorders:
            transitions = recorder.mode_transitions
            total_rounds = len(recorder.rounds)
            for index, (start, mode) in enumerate(transitions):
                end = (
                    transitions[index + 1][0]
                    if index + 1 < len(transitions)
                    else total_rounds
                )
                mode_rounds[mode] += max(0, end - start)
        queries = len(recorders)
        return {
            "schema": EXPLAIN_SCHEMA,
            "label": self.label,
            "queries": queries,
            "pruning": {
                "visited": visited,
                "pruned": pruned,
                "considered": considered,
                "efficiency": pruned / considered if considered else 0.0,
                "visited_per_query": visited / queries if queries else 0.0,
                "reasons": {
                    reason: reason_totals[reason]
                    for reason in PRUNE_REASONS
                    if reason_totals[reason]
                },
            },
            "per_level": per_level,
            "threshold": {
                "mean_tightness": fold_mean(tightnesses),
                "queries_with_threshold": len(tightnesses),
                # Queries that never saw k finite neighbors (k larger
                # than the reachable dataset): previously these were
                # silently dropped from the average above.
                "insufficient_k": sum(
                    1 for r in recorders if r.insufficient_k
                ),
            },
            "declustering": {
                "mean_fanout": mean_fanout,
                "mean_fanout_ratio": mean_ratio,
                "rounds": len(fanout_pairs),
            },
            "stacked_candidates": sum(
                r.stacked_candidates for r in recorders
            ),
            "modes": {
                mode: mode_rounds[mode]
                for mode in CRSS_MODES
                if mode_rounds[mode]
            },
            "heatmap": heatmap_dict(recorders),
        }

    def flush_to_tracer(self, tracer, track: str = "explain") -> int:
        """Flush every query's decision events (one track per query)."""
        emitted = 0
        for index, recorder in enumerate(self.recorders):
            emitted += recorder.flush_to_tracer(
                tracer, track=f"{track}.q{index}"
            )
        return emitted

    def render(self) -> str:
        """Terminal rendering of the aggregated section."""
        return format_workload_explain(self.aggregate())


def format_workload_explain(section: Dict[str, object]) -> str:
    """Terminal rendering of an aggregated explain section."""
    pruning = section.get("pruning") or {}
    threshold = section.get("threshold") or {}
    declustering = section.get("declustering") or {}
    lines = [
        f"explain: {section.get('label') or 'workload'} — "
        f"{section.get('queries', 0)} queries, "
        f"{pruning.get('visited', 0)} visited / "
        f"{pruning.get('pruned', 0)} pruned "
        f"(efficiency {pruning.get('efficiency', 0.0):.1%})"
    ]
    reasons = pruning.get("reasons") or {}
    if reasons:
        lines.append(
            "  prune reasons: "
            + ", ".join(
                f"{reason} {reasons[reason]}"
                for reason in PRUNE_REASONS
                if reason in reasons
            )
        )
    per_level = section.get("per_level") or {}
    if per_level:
        for level in sorted(per_level, key=int, reverse=True):
            row = per_level[level]
            name = "leaf" if level == "0" else f"L{level}"
            lines.append(
                f"  {name:<5} visited {row['visited']:>6} / "
                f"considered {row['considered']:>6}"
            )
    if threshold.get("queries_with_threshold"):
        lines.append(
            f"  threshold tightness: mean "
            f"{threshold.get('mean_tightness', 0.0):.3f} over "
            f"{threshold['queries_with_threshold']} queries"
        )
    if threshold.get("insufficient_k"):
        lines.append(
            f"  insufficient k: {threshold['insufficient_k']} queries "
            f"never found k neighbors (k exceeds the reachable data)"
        )
    if declustering.get("rounds"):
        lines.append(
            f"  declustering: mean fanout "
            f"{declustering.get('mean_fanout', 0.0):.2f} disks/round, "
            f"ratio {declustering.get('mean_fanout_ratio', 0.0):.3f} "
            f"of ideal over {declustering['rounds']} I/O rounds"
        )
    modes = section.get("modes") or {}
    if modes:
        lines.append(
            "  mode rounds: "
            + ", ".join(
                f"{mode} {modes[mode]}" for mode in CRSS_MODES if mode in modes
            )
        )
    if section.get("stacked_candidates"):
        lines.append(
            f"  candidate stack: {section['stacked_candidates']} saved"
        )
    heatmap = section.get("heatmap") or {}
    lines.append(render_heatmap(heatmap))
    return "\n".join(lines)


def explain_artifact(
    config: Dict[str, object],
    recorder: ExplainRecorder,
    answers,
) -> Dict[str, object]:
    """A single-query explain artifact (JSON-ready, byte-deterministic).

    Carries the run configuration, the full decision log, and the
    answer list so CI can ``cmp`` two same-seed artifacts and check
    that attaching the recorder moved nothing.
    """
    return {
        "schema": EXPLAIN_SCHEMA,
        "config": dict(config),
        "explain": recorder.to_dict(),
        "answers": [
            {"oid": neighbor.oid, "distance": neighbor.distance}
            for neighbor in answers
        ],
    }


def write_explain(doc: Dict[str, object], path: str) -> None:
    """Write an explain artifact as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
