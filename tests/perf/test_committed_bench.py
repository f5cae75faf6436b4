"""The committed simulated-time bench documents are what the code writes.

``BENCH_PR4.json`` (``repro bench-schedulers``), ``BENCH_PR7.json``
(``repro bench-serving``) and ``BENCH_PR8.json``
(``repro bench-chaos-serving``) hold no wall-clock value, so a full-size
run at seed 0 must reproduce each one's canonical bytes exactly.  A
change that moves any of their numbers has to re-record the artifact on
purpose.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: committed artifact -> (module, runner) that writes it.
COMMITTED = {
    "BENCH_PR4.json": ("repro.perf.sched_bench", "run_sched_bench"),
    "BENCH_PR7.json": ("repro.serving.bench", "run_serving_bench"),
    "BENCH_PR8.json": ("repro.serving.chaos_bench", "run_chaos_serving_bench"),
}


@pytest.mark.parametrize("artifact", sorted(COMMITTED))
def test_full_size_run_reproduces_the_committed_document(artifact):
    module, runner = COMMITTED[artifact]
    bench = importlib.import_module(module)
    doc = getattr(bench, runner)(smoke=False, seed=0)
    committed = json.loads((ROOT / artifact).read_text())
    assert bench.canonical_bytes(doc) == bench.canonical_bytes(committed)
