"""Measure one workload in this process; ``run.py`` starts it as a child.

The untraced pass sets the workload up several times, then repeats the
same timed body until ``--seconds`` have passed.  ``setup_s`` and
``run_s`` are the minimum of their samples: every sample times the same
deterministic work, so samples differ only by what the host added, and
interference on a shared box only ever adds time, in episodes of
seconds to a minute.  Across back-to-back runs on the reference box the
per-run median of the rounds spread by 6-19 % (quartile distance over
median), the first quartile by 4-15 % and the minimum by 3-10 %
(README.md has the table); and a long body gets two or three rounds,
where no quantile but the minimum escapes one slow round.
Every repeat is checked against the brute-force oracle outside its
timed region, and every repeat must reproduce the first one's simulated
times, counts and ``sim_digest`` — the inputs are identical, so
anything else is a failure.

With ``--trace 1`` the untraced pass gets half the time; then the
layer-boundary wrappers go in, the workload is set up and run once
more, and the wrappers come out again.  Host-time numbers a user would
see always come from the untraced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from layers import (
    END_TO_END, PER_LAYER, calibrate, median_stages, per_layer_metrics,
    stage_seconds,
)
from spans import Recorder, install, restore

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
OUT_DIR = os.path.join(HERE, "out")

#: At least this many set-ups and timed rounds, whatever ``--seconds``.
MIN_SETUPS = 3
MIN_ROUNDS = 2
#: Set-ups repeat until they have taken this long in total.  A tree
#: build passes it on the first; ``build_insert``'s set-up is a data
#: set alone, milliseconds each, and three of those would leave
#: ``setup_s`` at the mercy of one timer tick.
SETUP_WINDOW_S = 0.5


class KernelCounts:
    """Stand-in registry for ``instrument_kernels``: just adds up.

    ``record_kernel_use`` only ever calls ``counter(name).inc(n)``.  A
    real ``MetricsRegistry`` would work, but its methods are wrapped
    during the traced pass and would show up as observer time on
    workloads that attach no observer.
    """

    def __init__(self) -> None:
        self.batches = 0
        self.entries = 0
        self._suffix = ""

    def counter(self, name: str) -> "KernelCounts":
        self._suffix = name.rsplit("_", 1)[-1]
        return self

    def inc(self, amount: int = 1) -> None:
        if self._suffix == "batches":
            self.batches += amount
        else:
            self.entries += amount


def _drain(recorder) -> list:
    spans = recorder.closed()
    del recorder.spans[:]
    return spans


def _timed_setup(workload, recorder, stage_samples: List[Dict]) -> float:
    start = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - start
    stage_samples.append(stage_seconds(_drain(recorder)))
    return elapsed


def _timed_body(workload, recorder) -> Dict:
    """Run the body once; the row holds its time, stages and raw result."""
    start = time.perf_counter()
    with recorder.stage("round"):
        raw = workload.body()
    run_s = time.perf_counter() - start
    spans = _drain(recorder)
    return {
        "run_s": run_s, "ops": raw["ops"], "op_ns": raw.get("op_ns"),
        "stages": stage_seconds(spans), "spans": spans, "raw": raw,
    }


def _verify(workload, row: Dict) -> Dict:
    """Check the row's raw result against the oracle, outside the timing."""
    raw = row.pop("raw")
    attempted, failed, notes = workload.check(raw)
    row.update(
        attempted=attempted, failed=failed, notes=notes,
        facts={**workload.tree_facts, **workload.facts(raw)},
    )
    return row


def _op_latency_ms(rounds: List[Dict]) -> Optional[Dict[str, float]]:
    """p50/p99 over operations of each operation's fastest round.

    Every round runs the same operations in the same order, so taking
    the per-operation minimum first (as for ``run_s``) removes host
    noise without hiding an operation that is slow every time (a split,
    a deep search).
    """
    if rounds[0]["op_ns"] is None:
        return None
    per_op = np.min(
        np.array([row["op_ns"] for row in rounds], dtype=float), axis=0
    )
    ordered = np.sort(per_op) / 1e6
    count = len(ordered)

    def nearest_rank(fraction: float) -> float:
        return float(ordered[max(1, int(np.ceil(fraction * count))) - 1])

    return {
        "op_ms_p50": nearest_rank(0.50), "op_ms_p99": nearest_rank(0.99),
        "op_samples": count,
    }


def _traced_pass(workload, recorder) -> Dict:
    """Set up and run the body once under the wrappers, then verify.

    The wrappers come out before the answers are checked, so the
    oracle's own probe queries leave no spans.
    """
    from repro.perf.kernels import instrument_kernels

    counts = KernelCounts()
    patches = install(recorder)
    previous_registry = instrument_kernels(counts)
    workload.tracing = True
    try:
        with recorder.stage("setup"):
            workload.setup()
        row = _timed_body(workload, recorder)
    finally:
        workload.tracing = False
        instrument_kernels(previous_registry)
        restore(patches)
    row["kernel_batches"], row["kernel_entries"] = counts.batches, counts.entries
    # Read the scheduled-event count off each Environment run() saw.
    row["events"] = sum(
        getattr(env, "_seq", 0) for env in recorder.environments
    )
    return _verify(workload, row)


def _write_spans(path: str, header: Dict, spans: List) -> None:
    names = sorted({span[0] for span in spans})
    index_of = {name: index for index, name in enumerate(names)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                **header,
                "columns": ["name", "start_ns", "end_ns", "parent", "op_id"],
                "names": names,
                "spans": [[index_of[s[0]], *s[1:]] for s in spans],
            },
            handle, separators=(",", ":"),
        )


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: str,
    out_dir: str = OUT_DIR,
) -> Dict:
    """Run workload *name*; returns the result document."""
    from workloads import WORKLOADS

    os.makedirs(out_dir, exist_ok=True)
    recorder = Recorder()
    workload = WORKLOADS[name](seed, scale, recorder, out_dir)
    window = seconds / 2 if trace else seconds

    setup_samples: List[float] = []
    setup_stages: List[Dict] = []
    while (len(setup_samples) < MIN_SETUPS
           or sum(setup_samples) < SETUP_WINDOW_S):
        setup_samples.append(_timed_setup(workload, recorder, setup_stages))

    rounds: List[Dict] = []
    begun = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - begun < window:
        if workload.mutates and rounds:
            setup_samples.append(
                _timed_setup(workload, recorder, setup_stages)
            )
        rounds.append(_verify(workload, _timed_body(workload, recorder)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = rounds[0]
    run_s = min(row["run_s"] for row in rounds)
    facts = dict(first["facts"])
    facts.update(_op_latency_ms(rounds) or {})
    end_to_end = {
        "ops_per_s": first["ops"] / run_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": min(setup_samples),
    }
    document = {
        "workload": name, "seed": seed, "scale": scale, "seconds": seconds,
        "trace": int(trace), "rounds": len(rounds), "ops": first["ops"],
        "run_s": run_s,
        "samples": {
            "run_s": [row["run_s"] for row in rounds],
            "setup_s": setup_samples,
        },
        "end_to_end": {
            metric: {"value": end_to_end[metric], "unit": unit}
            for metric, unit, _, _ in END_TO_END
        },
        "facts": facts,
        "sim_digest": facts["sim_digest"],
    }

    checked = [(f"round {i}", row) for i, row in enumerate(rounds)]
    if trace:
        stages = median_stages(
            setup_stages + [row["stages"] for row in rounds]
        )
        calib_s = calibrate()
        traced = _traced_pass(workload, recorder)
        checked.append(("the traced round", traced))
        values = per_layer_metrics(
            facts, stages, traced["spans"], traced["run_s"], run_s,
            first["ops"], traced["events"], traced["kernel_batches"],
            traced["kernel_entries"], calib_s,
        )
        document["per_layer"] = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _ in PER_LAYER
        }
        _write_spans(
            os.path.join(out_dir, f"{name}.spans.json"),
            {"workload": name, "seed": seed, "scale": scale},
            traced["spans"],
        )

    # Same inputs every time: a repeat that disagrees with the first on
    # any simulated time, count or digest has failed as a whole.
    attempted = failed = 0
    notes: List[str] = []
    for label, row in checked:
        attempted += row["attempted"]
        failed += row["failed"]
        notes.extend(row["notes"])
        if row["facts"] != first["facts"]:
            failed += row["ops"]
            notes.append(f"{label} did not reproduce round 0")
    document.update(
        attempted=attempted, failed=failed, notes=notes, correct=failed == 0
    )
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), required=True)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"measure.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    document = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
