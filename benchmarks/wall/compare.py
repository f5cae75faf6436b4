"""Compare two sets of ``run.py`` results under BENCHMARK.json's bounds.

    python3 benchmarks/wall/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are each a result file or a directory of result
files (``out/<workload>.s<seed>.t0.json``; move a set into its own
directory before producing the next).  The bounded metrics are
``BENCHMARK.json``'s ``end_to_end`` list plus ``layers.LEDGER_BOUNDS``,
the simulated and counted ledger metrics that only some workloads
define.  One row per workload and bounded metric shows both sides'
median and quartiles and a verdict:

``ok``
    the change's median is no worse than the base's by more than the
    metric's bound;
``worse``
    it is;
``unresolved``
    the run-to-run spread of either side (quartile distance over
    median) is wider than the bound, so the medians cannot settle it —
    unless every run of the change beats every run of the base (``ok``)
    or loses to it beyond the bound (``worse``).

A simulated or counted metric repeats exactly under a fixed seed, so
its values differ across a set only because the seeds do.  It is
compared over the seeds both sides ran and never reads ``unresolved``.

Below the table, for every workload and seed present on both sides,
``sim_digest`` and the deterministic facts (simulated times, counts)
are compared exactly; differences are listed as information.  The exit
code is non-zero on any ``worse`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from layers import HOST_TIME_FACTS, LEDGER_BOUNDS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"
)


def load_set(path: str) -> List[Dict]:
    """Untraced result documents under *path* (a file or a directory)."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name) for name in os.listdir(path)
            if name.endswith(".json") and not name.endswith(".spans.json")
        )
    else:
        files = [path]
    documents = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            document = json.load(handle)
        if "end_to_end" in document and not document.get("trace"):
            documents.append(document)
    return documents


def failed_share(documents: List[Dict]) -> float:
    return sum(d["failed"] for d in documents) / sum(
        d["attempted"] for d in documents
    )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value stands alone."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float,
    exact: bool = False,
) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload.

    :param exact: the values repeat exactly under a fixed seed, so their
        spread is a property of the seeds and the medians settle it.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    allowed = bound * abs(base_median)
    beyond = sign * (change_median - base_median) > allowed
    if exact:
        return "worse" if beyond else "ok"
    spread = max(
        (base_q3 - base_q1) / abs(base_median),
        (change_q3 - change_q1) / abs(change_median),
    )
    if spread <= bound:
        return "worse" if beyond else "ok"
    if all(sign * (c - b) < 0 for c in change for b in base):
        return "ok"
    if beyond and all(sign * (c - b) > allowed for c in change for b in base):
        return "worse"
    return "unresolved"


def compare(base: List[Dict], change: List[Dict], benchmark: Dict):
    """Rows, information lines and whether the comparison passes."""
    rows: List[Tuple] = []
    info: List[str] = []
    failures_rose = False

    def judge(workload, name, unit, better, bound, ours, theirs, exact=False):
        rows.append((
            workload, name, unit, bound, quartiles(ours), quartiles(theirs),
            verdict(ours, theirs, better, bound, exact),
        ))

    for workload in [w["name"] for w in benchmark["workloads"]]:
        ours = [d for d in base if d["workload"] == workload]
        theirs = [d for d in change if d["workload"] == workload]
        if not ours or not theirs:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            judge(
                workload, name, metric["unit"], metric["better"],
                metric["bound"],
                [d["end_to_end"][name]["value"] for d in ours],
                [d["end_to_end"][name]["value"] for d in theirs],
            )

        by_seed = {(d["seed"], d["scale"]): d for d in ours}
        pairs = [
            (by_seed[d["seed"], d["scale"]], d)
            for d in sorted(theirs, key=lambda d: d["seed"])
            if (d["seed"], d["scale"]) in by_seed
        ]
        for name, unit, better, bound in LEDGER_BOUNDS:
            if pairs and name in ours[0]["facts"]:
                judge(workload, name, unit, better, bound,
                      [twin["facts"][name] for twin, _ in pairs],
                      [d["facts"][name] for _, d in pairs], exact=True)

        before, after = failed_share(ours), failed_share(theirs)
        if after > before:
            failures_rose = True
            info.append(
                f"{workload}: failed_share rose {before:.6g} -> {after:.6g}"
            )
        identical = 0
        for twin, document in pairs:
            moved = sorted(
                key for key in set(twin["facts"]) | set(document["facts"])
                if key not in HOST_TIME_FACTS
                and twin["facts"].get(key) != document["facts"].get(key)
            )
            if moved:
                info.append(
                    f"{workload} seed {document['seed']}: DIFFERS in "
                    + ", ".join(moved)
                )
            else:
                identical += 1
        info.append(
            f"{workload}: {len(pairs)} seed(s) on both sides, {identical} "
            f"with identical sim_digest, simulated times and counts"
        )
    passed = not failures_rose and all(row[-1] != "worse" for row in rows)
    return rows, info, passed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows, info, passed = compare(
        load_set(args.base), load_set(args.change), benchmark
    )
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<18} {'metric':<20} {'unit':<5} {'bound':>5}  "
          f"{'base q1/median/q3':<32} {'change q1/median/q3':<32} verdict")
    for workload, name, unit, bound, ours, theirs, result in rows:
        print(
            f"{workload:<18} {name:<20} {unit:<5} {bound:>5.0%}  "
            f"{'/'.join(f'{v:.5g}' for v in ours):<32} "
            f"{'/'.join(f'{v:.5g}' for v in theirs):<32} {result}"
        )
    for line in info:
        print(line)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
