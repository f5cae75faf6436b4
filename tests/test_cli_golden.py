"""Golden CLI artifacts: what the reading commands write, pinned bit for bit.

The hashes below were recorded in two rounds, each on the commit
*before* a cut, and must never change.

Round one (``simulate`` / ``serve`` / ``chaos`` / ``explain`` reports and
``bench --smoke``) was recorded before the read side was cut down to one
path — pointer tree, vectorized kernels, the defaults of every command:
whatever a later commit does to the layout the readers run over or to
the way node scans reach the kernels, a fixed-seed run has to write the
same bytes.  At that commit the same commands were also run with
``--layout flat`` (where the flag existed) and required to write the
same artifact once ``config.layout`` and the config digest derived from
it were set aside — the proof that freezing by default would not move a
byte.  That half went away with the flag; today the readers freeze and
these are the only runs there are.

Round two was recorded before ``cli.py``'s four descriptions of a run
(flag declarations, flag → policy object, config dict, observer set-up
and export tail) were folded into one.  It adds what round one did not
cover: the argparse *surface* of every subcommand, a faulty mirrored
``serve`` writing all four of its artifacts, ``simulate --trace`` with
one and with two algorithms, a fault-free ``chaos`` control run, an
``explain --trace``, the **stdout** of every case, and the documents,
RunReports and stdout of the three bench verbs whose every value is
simulated time.
"""

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.perf.bench import canonical_bytes

TREE = ["--n", "900", "--disks", "4", "--page-size", "1024", "--seed", "5"]
ALGORITHMS = ("BBSS", "FPSS", "CRSS", "WOPTSS")

#: What stands in for the temporary output directory in hashed stdout.
OUT_TOKEN = "<OUT>"


def simulate_case(out):
    """All four algorithms; one suffixed RunReport each."""
    argv = [
        "simulate", *TREE, "--queries", "12", "--k", "6",
        "--algorithms", ",".join(ALGORITHMS), "--arrival-rate", "9",
        "--explain", "--report", str(out / "sim.json"),
    ]
    return argv, [f"sim.{name.lower()}.json" for name in ALGORITHMS]


def simulate_trace_one_case(out):
    """One algorithm: the trace lands at the path as given."""
    argv = [
        "simulate", *TREE, "--queries", "10", "--k", "5",
        "--algorithms", "CRSS", "--arrival-rate", "9", "--scheduler", "sstf",
        "--timeline", "--trace", str(out / "trace.json"),
    ]
    return argv, ["trace.json"]


def simulate_trace_two_case(out):
    """Two algorithms: each trace gains a ``.<algorithm>`` suffix; the
    timeline counters and the explain instants are flushed into it."""
    argv = [
        "simulate", *TREE, "--queries", "10", "--k", "5",
        "--algorithms", "BBSS,CRSS", "--arrival-rate", "9",
        "--timeline", "--explain", "--trace", str(out / "trace.json"),
    ]
    return argv, ["trace.bbss.json", "trace.crss.json"]


SERVE_POLICY = [
    "--k", "5", "--algorithm", "CRSS",
    "--scenario", "bursty", "--rate", "90", "--horizon", "0.8",
    "--coalesce", "--max-in-flight", "6", "--max-queued", "12",
    "--deadline", "0.12", "--shed", "--cross-batch",
    "--batch-window", "0.0005", "--max-group-pages", "16",
]


def serve_case(out):
    """Bursty traffic through the full serving policy, SLO + explain on."""
    argv = [
        "serve", *TREE, *SERVE_POLICY,
        "--slo", "--explain", "--report", str(out / "serve.json"),
    ]
    return argv, ["serve.json"]


def serve_faulty_case(out):
    """The same policy on a mirrored array under a crash, a slow drive
    and transient errors, breakers + hedging + rebuild on, every export
    written — the only pin of the nested ``faults`` / ``raid`` /
    ``health`` config keys and of the serve export tail."""
    argv = [
        "serve", *TREE, *SERVE_POLICY, "--raid", "raid1",
        "--crash", "3@0.0:0.4", "--slow", "1@0.0-5.0x6",
        "--transient", "0.03", "--max-attempts", "3",
        "--attempt-timeout", "0.05",
        "--health", "--hedge", "--hedge-min-delay", "0.002", "--rebuild",
        "--slo", "--timeline",
        "--report", str(out / "serve.json"),
        "--lifecycle-log", str(out / "life.jsonl"),
        "--metrics-out", str(out / "metrics.prom"),
        "--trace", str(out / "trace.json"),
    ]
    return argv, ["serve.json", "life.jsonl", "metrics.prom", "trace.json"]


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


def chaos_control_case(out):
    """No fault flag at all: the control run, which still goes through
    the fault plan and the retry machinery, with timeline + explain."""
    argv = [
        "chaos", *TREE, "--queries", "10", "--k", "5",
        "--algorithm", "crss", "--deadline", "0.5",
        "--timeline", "--explain",
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


def explain_trace_case(out):
    """One FPSS query: decision log and its events as JSONL instants."""
    argv = [
        "explain", *TREE, "--k", "8", "--algorithm", "fpss",
        "--out", str(out / "explain.json"),
        "--trace", str(out / "explain.jsonl"), "--trace-format", "jsonl",
    ]
    return argv, ["explain.json", "explain.jsonl"]


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
    # Round two.
    "simulate_trace_one": (simulate_trace_one_case, [
        "437b11c436445b52f82860f14ea9a09ba0aabec067fa63430c1fd0e45954f943",
    ]),
    "simulate_trace_two": (simulate_trace_two_case, [
        "ecefc5086565a4b77980e734f3f7cc5757172e37ba5022d814c3fdfe8afa1a87",
        "97c1df50311d8cfaab4d748309cc3ca2a7ffddc89c2dd3dfedd144c6f28d6108",
    ]),
    "serve_faulty": (serve_faulty_case, [
        "69f143987f884aac5314456c82c5273e78866167f8daab1467576bfd31c1b09e",
        "e8415dffdf3b26d48eabbc5340d2cf93231252aa20bca61c473023eb5b7b192c",
        "2c7b145dc3f91c1db50f69ebd4072cc18ff0ce0978ad8c5fea1e478a09fbffcd",
        "14723ff9041441043c16d7c4b685a5491120012ba0be92f9661a6ac38ab16e79",
    ]),
    "chaos_control": (chaos_control_case, [
        "4760a3d0b6a8ef1f4e23c4ac11e9ebc16dafe8ebaf77b7d4733efd2540eaadeb",
        "add98611205d0c650fe62c3cd7468e019587dc4a7caafd28c64249d559decf02",
    ]),
    "explain_trace": (explain_trace_case, [
        "d44ac9fda51310bdfe064f268d5ad9c051bfcaf50adc4a189ed14ceb88fbb585",
        "4e6c4b26b8fb3757b79d16aef3e02c54a1748ea5b3ad38485dc8a97f0672af95",
    ]),
}

#: case -> sha256 of what the run prints, the temporary directory
#: replaced by :data:`OUT_TOKEN`.
GOLDEN_STDOUT = {
    "simulate": (
        "49ec0c479e824e54d6509dd7d9c7b89d24f17b1b50402736e368107daf7337fa"
    ),
    "serve": (
        "602ed602022298a64ee4e9c1897a086df4dd0483395dbbc7e269cac0af734458"
    ),
    "chaos": (
        "54801cbfd20a5a2950e32b35251c8972170e2c25d9158bca9e7b30340747b329"
    ),
    "explain": (
        "67edcc53bd2f5af54a1c51960f02afb5d15d6ae57912d7901575e1fe98c67a0c"
    ),
    "simulate_trace_one": (
        "270a2142d8f5a2e3777e6b1acb3c7329398de436e3f46150df51ce93dea1f357"
    ),
    "simulate_trace_two": (
        "3c17f40e0bf4d0b768852ca5e0494d77dc0dbd4642b8cf57590e779f99d4186a"
    ),
    "serve_faulty": (
        "f31b383a477a2ad4602fd1b82ed0f1a0de1ac02fcbf9770bcb9c56ca307efb28"
    ),
    "chaos_control": (
        "c355354fc4dc65224f94c01f0c465fd834eb23dd7a0359d9c70dfc246b0e3fa1"
    ),
    "explain_trace": (
        "548a93b08718ea91c9332e658afe31d8451b4ff71ee9a134032fae02ffa1891c"
    ),
}

#: ``repro bench --smoke``: sha256 of the document's deterministic part
#: (``strip_nondeterministic``), recorded without the top-level
#: ``layout`` key the document carried while the flag existed.  This
#: and the next hash include the kernel call counters, so they were
#: re-recorded — on purpose, and only they — when node scans became
#: round scans and the frozen tree's ``D_k`` moved onto the kernels;
#: the ``_ANSWERS`` pair below shows nothing else moved.
GOLDEN_BENCH_SMOKE = (
    "9e22961e783992e35d593b87e24ca76d647d7723b28f53a3f7fff9291e3663c0"
)

#: ``repro bench --smoke --report``: the RunReport envelope keeps only
#: seed-reproducible leaves, so the whole file is pinned.
GOLDEN_BENCH_SMOKE_REPORT = (
    "bc45c69dc0142e555e473f95aeab97ce787cc57445ed1afa22b5f9274029caba"
)
GOLDEN_BENCH_SMOKE_CONFIG_DIGEST = (
    "9f3a250767e4cebb34a05e44ac2b7d27d620ed1d3837b7051a94959ab8a3ee15"
)

#: The same two ``bench --smoke`` files with every ``kernel_counters``
#: subtree (and the RunReport metrics flattened from it) removed:
#: answers, pages, rounds and simulated times, but not how many kernel
#: calls scored them.  Recorded before node scans were batched per fetch
#: round; unlike the two hashes above, these never change.
GOLDEN_BENCH_SMOKE_ANSWERS = (
    "963fc20b1699c0d2dd56ee94444032a606447626d96839ffeff632afae18e898"
)
GOLDEN_BENCH_SMOKE_REPORT_ANSWERS = (
    "8331d4ebddffc2b909db97376e9b217f74d00fa75207f21cfb62e016d1b9cf9e"
)

#: The three bench verbs with no wall-clock value anywhere: verb ->
#: (module, sha256 of ``canonical_bytes(doc)``, the RunReport's
#: ``config_digest``, sha256 of the ``--report`` file, sha256 of stdout).
GOLDEN_BENCH = {
    "bench-schedulers": (
        "repro.perf.sched_bench",
        "40e283ff1eb04a60687365213f587aac5a9b3e3805660554589dae0191995d0f",
        "2cdd2a35476825bc45f10ec15208d47f2376d4c3d449f86a8fbfce0c17d425e9",
        "d77f775024f4785d005604cf9c04690fd8e2897c607a0e625729cef46b4407c7",
        "bf90cf84c143ca326973297792dba9330e914a83cc5bd626c58d0158849cfaf9",
    ),
    "bench-serving": (
        "repro.serving.bench",
        "17c1e7ae478366f5900b94dcf18aa3a056599432ccfbd0d89c8065e6f5ca0a2f",
        "d8e9a5fddf242aea79fba472f6a05c3880e11cad5802bda1c9ee4809eec164af",
        "06fc1dbd4a4dd54c61e630f44ec9f3eec8fa8dd505aac5067a047187c54d1eb3",
        "dad9c054104a350efa3c3b8a98635a1c8e3defeed0e574fb21161d4ca3da4189",
    ),
    "bench-chaos-serving": (
        "repro.serving.chaos_bench",
        "13a20c34dc7878e161a122a42a5d47ec4d291d92dc7065b6eb9839a8c3744411",
        "48a7c8f3df3e835f63e02882019ede045e749ef53c3517119c3c6b48b0378600",
        "4c9a2c30c5e5dfac62f93addf5d0d5dc3edd7ae9f0489ae1c03fa2b53dbed0a2",
        "f1ab1d550ed6b5689bd2c6e2c8c863f31fc884d6f0824f45ddfc1fe48d66ce43",
    ),
}

#: subcommand -> sha256 over the sorted (option strings, dest, default,
#: type name, choices, action class, nargs) of every argparse action.
#: Help strings and metavars are left out on purpose: duplicated
#: declarations carry different help texts and one of each pair wins.
GOLDEN_SURFACE = {
    "bench": (
        "8f7bbeef894476528287577c41f618f4ee08f2bf9208b6770e3d6b42f5b4c6e1"
    ),
    "bench-chaos-serving": (
        "21485440ef3cfb180f7befce0c39c3be10b7dee6bae3798e3ef33d45e6271a2d"
    ),
    "bench-schedulers": (
        "4e6178389d98fcc9518b86884f85ac9bdbe33cb50c022f9d46caeaf8501e6ea3"
    ),
    "bench-serving": (
        "c79700bf72a271296d9816b237ce4bb85cda7a5062468ea579f67ada114cbfd8"
    ),
    "chaos": (
        "f3717bc38829b391d2f36a72bc267c4a1191fdfc85360debcb7b37f11c8ccd08"
    ),
    "diff": (
        "46b720dad140883873d8b90ae6d23bf4422aebcecefc829249f6132088f5a27f"
    ),
    "explain": (
        "8f3c2e0221948d36b17934227e42bab6bf7f941730aa9ba48d7cd2a408885479"
    ),
    "info": (
        "5d250eba85f93c6cd7493d3011eff2926aa74ff8978edfdbb2859627041dff68"
    ),
    "knn": (
        "0a474e85085204cc3d49f0624f90970fd9fd63bf610954a80717f231e3c6c604"
    ),
    "paper": (
        "bc2e825a8dea895f970af584d1dc00435a3970884362d81f01afde32a24ce734"
    ),
    "report": (
        "0384c0eb0eb3208d7810a1777741cbfe1add06120b33fb24e8dca7f90637ed43"
    ),
    "report show": (
        "ba3e0e26664e7a8ba7801b1af3324935689fdb66a261af5542369b0afe182d7e"
    ),
    "serve": (
        "a740fb3a1882a5b3ca4170f048fe3f9654734456c2a7a863979f5253fab8b461"
    ),
    "simulate": (
        "f87fca2993670425bdcb3ed3fb5362461abd4243787bca57604f283e44d70101"
    ),
    "top": (
        "f309d1e8be99623191f933df80acc60b21f359c04d8e011fd7ae69119cf713e6"
    ),
}


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def run_main(argv, out: Path):
    """``main(argv)``'s exit code and its stdout with *out* tokenised."""
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(argv)
    return code, stream.getvalue().replace(str(out), OUT_TOKEN)


@functools.lru_cache(maxsize=None)
def run_case(case):
    """(artifact hashes, stdout hash) of one golden case, run once."""
    build, _ = GOLDEN[case]
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory)
        argv, names = build(out)
        code, stdout = run_main(argv, out)
        assert code == 0
        return (
            [sha256((out / name).read_bytes()) for name in names],
            sha256(stdout.encode()),
        )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_default_run_writes_the_pinned_artifacts(case):
    assert run_case(case)[0] == GOLDEN[case][1]


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_default_run_prints_the_pinned_stdout(case):
    assert run_case(case)[1] == GOLDEN_STDOUT[case]


@functools.lru_cache(maxsize=None)
def bench_smoke():
    """The ``bench --smoke`` document and its ``--report`` file, run once."""
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory)
        code, _ = run_main(
            ["bench", "--smoke", "--out", str(out / "bench.json"),
             "--report", str(out / "bench-report.json")],
            out,
        )
        assert code == 0
        return (
            (out / "bench.json").read_text(),
            (out / "bench-report.json").read_bytes(),
        )


def test_bench_smoke_deterministic_part_is_pinned():
    doc, report = bench_smoke()
    assert sha256(canonical_bytes(json.loads(doc))) == GOLDEN_BENCH_SMOKE
    assert sha256(report) == GOLDEN_BENCH_SMOKE_REPORT
    assert json.loads(report)["config_digest"] == (
        GOLDEN_BENCH_SMOKE_CONFIG_DIGEST
    )


def without_kernel_counters(node):
    """*node* minus every ``kernel_counters`` key and dotted metric path."""
    if isinstance(node, dict):
        return {
            key: without_kernel_counters(value)
            for key, value in node.items()
            if key != "kernel_counters" and ".kernel_counters." not in key
        }
    if isinstance(node, list):
        return [without_kernel_counters(value) for value in node]
    return node


def test_bench_smoke_answers_are_pinned():
    doc, report = bench_smoke()
    stripped = without_kernel_counters(json.loads(doc))
    assert sha256(canonical_bytes(stripped)) == GOLDEN_BENCH_SMOKE_ANSWERS
    stripped = without_kernel_counters(json.loads(report))
    assert sha256(
        json.dumps(stripped, sort_keys=True).encode()
    ) == GOLDEN_BENCH_SMOKE_REPORT_ANSWERS


@pytest.mark.parametrize("verb", sorted(GOLDEN_BENCH))
def test_simulated_time_bench_smoke_is_pinned(verb, tmp_path):
    module, doc_hash, digest, report_hash, stdout_hash = GOLDEN_BENCH[verb]
    path = tmp_path / "bench.json"
    report = tmp_path / "bench-report.json"
    code, stdout = run_main(
        [verb, "--smoke", "--out", str(path), "--report", str(report)],
        tmp_path,
    )
    assert code == 0
    bench = importlib.import_module(module)
    doc = json.loads(path.read_text())
    assert sha256(bench.canonical_bytes(doc)) == doc_hash
    assert bench.to_run_report(doc)["config_digest"] == digest
    assert sha256(report.read_bytes()) == report_hash
    assert sha256(stdout.encode()) == stdout_hash


def subcommands(parser, prefix=()):
    """Every (name, parser) below *parser*, nested ones space-joined."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield " ".join(prefix + (name,)), sub
                yield from subcommands(sub, prefix + (name,))


def surface(parser) -> str:
    """The sha256 of one subcommand's flags, as a user can tell them apart."""
    rows = sorted(
        (
            list(action.option_strings),
            action.dest,
            repr(action.default),
            getattr(action.type, "__name__", None),
            None if action.choices is None else [
                repr(choice) for choice in action.choices
            ],
            type(action).__name__,
            repr(action.nargs),
        )
        for action in parser._actions
    )
    return sha256(json.dumps(rows).encode())


def test_no_flag_was_added_removed_retyped_or_redefaulted():
    assert {
        name: surface(sub) for name, sub in subcommands(build_parser())
    } == GOLDEN_SURFACE
