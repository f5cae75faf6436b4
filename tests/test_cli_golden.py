"""Golden CLI artifacts: what the reading commands write, pinned bit for bit.

The hashes below were recorded on the commit *before* the read side was
cut down to one path — pointer tree, vectorized kernels, the defaults of
every command — and must never change: whatever a later commit does to
the layout the readers run over or to the way node scans reach the
kernels, a fixed-seed ``simulate`` / ``serve`` / ``chaos`` / ``explain``
/ ``bench --smoke`` has to write the same bytes.

At that commit the same commands were also run with ``--layout flat``
(where the flag existed) and required to write the same artifact once
``config.layout`` and the config digest derived from it were set aside —
the proof that freezing by default would not move a byte.  That half
went away with the flag; today the readers freeze and these are the
only runs there are.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.perf.bench import canonical_bytes

TREE = ["--n", "900", "--disks", "4", "--page-size", "1024", "--seed", "5"]
ALGORITHMS = ("BBSS", "FPSS", "CRSS", "WOPTSS")


def simulate_case(out):
    """All four algorithms; one suffixed RunReport each."""
    argv = [
        "simulate", *TREE, "--queries", "12", "--k", "6",
        "--algorithms", ",".join(ALGORITHMS), "--arrival-rate", "9",
        "--explain", "--report", str(out / "sim.json"),
    ]
    return argv, [f"sim.{name.lower()}.json" for name in ALGORITHMS]


def serve_case(out):
    """Bursty traffic through the full serving policy, SLO + explain on."""
    argv = [
        "serve", *TREE, "--k", "5", "--algorithm", "CRSS",
        "--scenario", "bursty", "--rate", "90", "--horizon", "0.8",
        "--coalesce", "--max-in-flight", "6", "--max-queued", "12",
        "--deadline", "0.12", "--shed", "--cross-batch",
        "--batch-window", "0.0005", "--max-group-pages", "16",
        "--slo", "--explain", "--report", str(out / "serve.json"),
    ]
    return argv, ["serve.json"]


def chaos_case(out):
    """Mirrored array under a crash, breakers + hedging + rebuild on."""
    argv = [
        "chaos", *TREE, "--queries", "14", "--k", "5",
        "--algorithm", "FPSS", "--arrival-rate", "12", "--raid", "raid1",
        "--crash", "3@0.0:0.4", "--slow", "1@0.0-5.0x6",
        "--transient", "0.03", "--max-attempts", "3",
        "--attempt-timeout", "0.05",
        "--health", "--hedge", "--hedge-min-delay", "0.002", "--rebuild",
        "--out", str(out / "chaos.json"),
        "--report", str(out / "chaos-report.json"),
    ]
    return argv, ["chaos.json", "chaos-report.json"]


def explain_case(out):
    """One CRSS query's full decision log."""
    argv = [
        "explain", *TREE, "--k", "8", "--algorithm", "CRSS",
        "--out", str(out / "explain.json"),
    ]
    return argv, ["explain.json"]


#: case -> (argv builder, sha256 of each artifact the default run writes).
GOLDEN = {
    "simulate": (simulate_case, [
        "a7caf567c70ee0842bf3b411e02c032cec21beb2ac49ac4d023e39cf9d2d95c5",
        "f0407c4edd4d7c485e27a8fcad84a3ff45ee8a9dd8e5554f443ad4e34e161500",
        "c477acd08c0d7c60c6cbd8e917946ed9000be5d299120b9c6e897bba9ebd2eb8",
        "24afa11d8c071765c7e5c5bdb1db7fdf90d75c143d3f470a108ccb1488cf7d5c",
    ]),
    "serve": (serve_case, [
        "7e617b0784a30e10349f0bc75239c440cefb3f9358433cd17b2bc16fa3b786af",
    ]),
    "chaos": (chaos_case, [
        "831160dabfcc90ab8ef8da5073417c7a84f0d74fe1cfb691e34f76aa8a0f6abb",
        "bc0a908664632453d6680b6d756a3c18bdcf11377a8d6735d11b15fdc59eba1f",
    ]),
    "explain": (explain_case, [
        "5859ed8d648dca7a01b97c234b161ed979f9eb78ead4c771acb26cb6181618ca",
    ]),
}

#: ``repro bench --smoke``: sha256 of the document's deterministic part
#: (``strip_nondeterministic``), recorded without the top-level
#: ``layout`` key the document carried while the flag existed.
GOLDEN_BENCH_SMOKE = (
    "a23058ca78b9d563fd76f8079e28621844044f31cf6f977eb020607dc0f61f01"
)

def run(argv, out, names, capsys):
    assert main(argv) == 0
    capsys.readouterr()
    return [(out / name).read_bytes() for name in names]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_default_run_writes_the_pinned_artifacts(case, tmp_path, capsys):
    build, expected = GOLDEN[case]
    argv, names = build(tmp_path)
    artifacts = run(argv, tmp_path, names, capsys)
    assert [hashlib.sha256(blob).hexdigest() for blob in artifacts] == expected


def test_bench_smoke_deterministic_part_is_pinned(tmp_path, capsys):
    path = tmp_path / "bench.json"
    assert main(["bench", "--smoke", "--out", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert hashlib.sha256(canonical_bytes(doc)).hexdigest() == (
        GOLDEN_BENCH_SMOKE
    )
