"""The sweep-and-gate harness behind the four ``repro bench*`` verbs.

The paper's evaluation (§5) is a set of sweeps — over λ, the number of
disks, k — in each of which one method is expected to beat a baseline.
Each bench module is one such sweep and keeps only its configs, arms,
rows and table; the set-up, answer digests, frontier, gates and
document handling they share live here.  A gate (:func:`strictly_below`,
:func:`agree`) raises :class:`RuntimeError` when its claim fails, so a
regression cannot ship a benchmark.

Everything in a bench document is reproducible from the seed except
its wall-clock measurements.  Their key names are
:data:`NONDETERMINISTIC_KEYS`, and :func:`canonical_bytes` strips
exactly those, so two runs with the same seed compare byte-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.experiments.setup import build_tree, dataset
from repro.obs.diff import flatten_numeric
from repro.obs.report import bench_run_report

#: Key names whose values are wall-clock measurements and therefore
#: nondeterministic.  :func:`canonical_bytes` excludes them; every other
#: value is seed-reproducible.
NONDETERMINISTIC_KEYS = (
    "wall_time_s",
    "wall_time_per_query_s",
    "scalar_s",
    "vectorized_s",
    "pointer_s",
    "flat_s",
    "speedup",
)


def setup(config: Mapping, seed: int):
    """The seeded ``(data, tree)`` a bench *config* names.

    *config* carries ``dataset`` / ``n`` / ``dims`` / ``disks``; the tree
    is the declustered pointer tree built by insertion.
    """
    data = dataset(config["dataset"], config["n"], config["dims"], seed=seed)
    tree = build_tree(
        config["dataset"], config["n"], config["dims"], config["disks"],
        seed=seed,
    )
    return data, tree


def json_config(config: Mapping) -> Dict[str, object]:
    """*config* as the document records it: tuples become lists."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in config.items()
    }


def answer_digest(
    answer_sets: Iterable, heads: Optional[Iterable[str]] = None
) -> str:
    """sha256 over every query's ``oid:distance`` answers, in order.

    *heads*, when given, labels each query: one string per answer list,
    hashed just before it.
    """
    digest = hashlib.sha256()
    for head, answers in zip(heads or itertools.repeat(""), answer_sets):
        digest.update(head.encode())
        for neighbor in answers:
            digest.update(f"{neighbor.oid}:{neighbor.distance!r};".encode())
        digest.update(b"|")
    return digest.hexdigest()


def served_digest(serving) -> str:
    """:func:`answer_digest` over a serving run's offered queries, each
    headed by its qid and outcome."""
    queries = serving.queries
    return answer_digest(
        (query.answers for query in queries),
        (f"{query.qid}:{query.outcome}:" for query in queries),
    )


def frontier(
    points: Sequence[Mapping], key: str, names: Sequence[str]
) -> Dict[str, List[list]]:
    """Each arm's ``[offered_load, latency_p99_s]`` curve, in sweep order.

    *key* is the row field naming the arm (``policy``, ``stack``).
    """
    return {
        name: [
            [point["offered_load"], point["latency_p99_s"]]
            for point in points
            if point[key] == name
        ]
        for name in names
    }


def at_load(
    points: Sequence[Mapping], key: str, name: str, load: float
) -> Mapping:
    """Arm *name*'s row at offered load *load*."""
    return next(
        point
        for point in points
        if point[key] == name and point["offered_load"] == load
    )


def strictly_below(
    candidate: Mapping, baseline: Mapping, metric: str, claim: str
) -> float:
    """``candidate[metric] / baseline[metric]``, the ratio recording *claim*.

    Raises :class:`RuntimeError` naming the claim, the metric and both
    values unless the candidate is strictly below its baseline.
    """
    value, base = candidate[metric], baseline[metric]
    if not value < base:
        raise RuntimeError(
            f"{claim} does not hold: {metric} {value:.4f} >= {base:.4f}"
        )
    return value / base


def agree(rows: Sequence[Mapping], metric: str, claim: str) -> None:
    """Raise :class:`RuntimeError` unless every row shares one *metric*.

    The message names the claim, the metric and each row's value
    (rows are labelled by their ``name``).
    """
    if len({row[metric] for row in rows}) != 1:
        raise RuntimeError(
            f"{claim} does not hold: {metric} "
            + ", ".join(f"{row['name']}={row[metric][:12]}" for row in rows)
        )


def strip_nondeterministic(doc: object) -> object:
    """A deep copy of *doc* without any wall-clock-valued keys."""
    if isinstance(doc, dict):
        return {
            key: strip_nondeterministic(value)
            for key, value in doc.items()
            if key not in NONDETERMINISTIC_KEYS
        }
    if isinstance(doc, list):
        return [strip_nondeterministic(item) for item in doc]
    return doc


def canonical_bytes(doc: Dict[str, object]) -> bytes:
    """The document's deterministic serialization: wall-clock keys
    stripped, the rest sorted and minified."""
    return json.dumps(
        strip_nondeterministic(doc), sort_keys=True, separators=(",", ":")
    ).encode()


def write_bench(doc: Dict[str, object], path: str) -> None:
    """Write the bench document as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_report_envelope(
    kind: str, doc: Dict[str, object], keys: Sequence[str] = (), **config
) -> Dict[str, object]:
    """A bench document as a RunReport envelope for ``repro diff``.

    Every seed-reproducible numeric leaf of the document flattens to a
    dotted-path metric, so two bench runs compare metric by metric like
    two workload RunReports.  The envelope's config — what keys the
    comparison — is the document's ``schema`` / ``smoke`` / ``seed``,
    the further top-level *keys* named, the document's own ``config``
    (where it has one) as ``workload``, and whatever *config* adds.
    """
    stripped = strip_nondeterministic(doc)
    for key in ("schema", "smoke", "seed", *keys):
        config[key] = stripped.get(key)
    if "config" in stripped:
        config["workload"] = dict(stripped["config"])
    return bench_run_report(kind, doc, flatten_numeric(stripped), config)
