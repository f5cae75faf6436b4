"""Wall-clock benchmark: six fixed-seed workloads, one child process each.

    python3 benchmarks/wall/run.py                      # all six, untraced
    python3 benchmarks/wall/run.py --workload sim_paper
    python3 benchmarks/wall/run.py --trace 1            # plus per-layer pass

Each workload runs in its own child (``measure.py``), one at a time,
with the BLAS thread pools pinned to one thread and a fixed hash seed.
The parent prints every metric by name and unit, writes the child's
full result document to ``out/<workload>.s<seed>.t<trace>.json`` for
``compare.py``, and ends each workload with the one-line JSON summary
``BENCHMARK.json``'s driver reads:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``metrics`` holds the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The exit code is non-zero when
any operation failed, a serve workload missed a path it exists to
exercise, or the ``repro`` sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from typing import Dict, List, Optional

from layers import END_TO_END, LEDGER, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = (
    "build_insert", "sim_paper", "counted_highdim", "serve_observed",
    "serve_raid1_chaos", "mixed_updates",
)

#: The child's environment on top of the parent's: single-threaded
#: numpy and a fixed hash seed.  Nothing is read back from the
#: environment; these are not switches.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Hard stop for one child, under the driver's 180 s limit per run.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int,
              scale: str) -> Optional[Dict]:
    """Measure *workload* in a fresh process; None if the child failed."""
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
    ]
    try:
        finished = subprocess.run(
            command, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if finished.returncode != 0 or not finished.stdout.strip():
        print(f"{workload}: child exited with {finished.returncode}",
              file=sys.stderr)
        return None
    return json.loads(finished.stdout.strip().splitlines()[-1])


def ledger(document: Dict) -> Dict[str, Optional[float]]:
    """The issue's ten end-to-end metrics; None where undefined."""
    row: Dict[str, Optional[float]] = {
        name: document["facts"].get(name) for name in LEDGER
    }
    for name, entry in document["end_to_end"].items():
        row[name] = entry["value"]
    row["failed_share"] = document["failed"] / document["attempted"]
    return row


def render(document: Dict) -> str:
    """Human-readable block for one workload."""
    units = {name: unit for name, unit, _, _ in END_TO_END}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    units["failed_share"] = "share"
    lines = [
        f"== {document['workload']}  seed={document['seed']} "
        f"scale={document['scale']}  {document['rounds']} rounds of "
        f"{document['ops']} ops, run_s={document['run_s']:.4f} (fastest round), "
        f"host clock unless the name starts with sim_"
    ]
    row = ledger(document)
    for name in LEDGER:
        value = row[name]
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<24} {shown:>14} {units[name]}")
    for key, tail in (("op_samples", "op_ms_p99"),
                      ("sim_samples", "sim_response_p99_s")):
        samples = document["facts"].get(key)
        if samples:
            beyond = samples - math.ceil(0.99 * samples)
            lines.append(
                f"  {key:<24} {samples:>14} count ({beyond} beyond {tail})"
            )
    lines.append(f"  {'sim_digest':<24} {document['sim_digest'][:16]}")
    for note in document["notes"]:
        lines.append(f"  note: {note}")
    if "per_layer" in document:
        lines.append("  -- per layer (traced pass; 0 = idle or n/a)")
        for name, entry in document["per_layer"].items():
            if entry["value"]:
                lines.append(
                    f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}"
                )
    return "\n".join(lines)


def summary(document: Dict) -> Dict:
    """The driver's one-line result."""
    metrics = document["per_layer" if document["trace"] else "end_to_end"]
    return {
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all six in turn)")
    parser.add_argument("--seed", type=int, default=11,
                        help="derives every dataset, query, traffic, fault "
                        "and simulator seed (default 11)")
    parser.add_argument("--seconds", type=float, default=12,
                        help="how long each workload repeats its timed body "
                        "(default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the traced per-layer pass")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    os.makedirs(OUT_DIR, exist_ok=True)
    status = 0
    for name in names:
        document = run_child(
            name, args.seed, args.seconds, args.trace, args.scale
        )
        if document is None:
            status = 1
            continue
        path = os.path.join(
            OUT_DIR, f"{name}.s{args.seed}.t{args.trace}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        print(render(document))
        print(json.dumps(summary(document)), flush=True)
        if not document["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
