"""Golden digests of every search over the extension access methods.

Recorded while SS-tree spheres, SR-tree rect ∩ sphere regions and
TV-tree reduced regions were still scored one region at a time, and
never re-recorded: moving their bounds onto batch kernels, and the
SR-tree onto the SS-tree's code, may change how a branch is scored but
not one bit of what a caller can observe.

Per tree and algorithm, one sha256 covers every query run with and
without an ``unavailable`` page set (the k-NN algorithms only; the range
searches take no degraded mode) and with and without an
:class:`~repro.obs.explain.ExplainRecorder`:

* the answers as ``(oid, repr(distance))``;
* ``nodes_visited``, ``rounds``, ``per_disk`` and the fetched ``pages``;
* the certified radius and the number of unreachable subtrees;
* the explain artifact plus its raw decision-event log.

The SS/SR structure digests pin the builds themselves: per page, its
level, members, object count, centre / radius / rectangle as
``float.hex``, disk and cylinder.
"""

import hashlib
import json

import pytest

from repro.core import CountingExecutor
from repro.datasets import gaussian, sample_queries, uniform
from repro.experiments.setup import make_factory
from repro.extensions.range_search import (
    ParallelRangeSearch,
    ParallelSphereSearch,
)
from repro.extensions.srtree import build_parallel_srtree
from repro.extensions.sstree import build_parallel_sstree
from repro.extensions.tvtree import build_tv_view
from repro.extensions.xtree import build_parallel_xtree
from repro.geometry.rect import Rect
from repro.obs.explain import ExplainRecorder

K = 10


def _points_2d():
    """Uniform points plus a doubled 5 x 5 lattice (duplicate centres)."""
    lattice = [(x / 4.0, y / 4.0) for x in range(5) for y in range(5)]
    return uniform(300, 2, seed=51) + lattice + lattice


def _points_8d():
    """A Gaussian blob with its first twenty points stored twice."""
    points = gaussian(500, 8, seed=52)
    return points + points[:20]


#: name -> (build function, points, sphere-search radius, window half-width)
TREES = {
    "ss2d": (
        lambda p: build_parallel_sstree(
            p, dims=2, num_disks=5, seed=1, max_entries=8
        ),
        _points_2d, 0.08, 0.1,
    ),
    "ss8d": (
        lambda p: build_parallel_sstree(
            p, dims=8, num_disks=6, seed=1, max_entries=10
        ),
        _points_8d, 0.3, 0.2,
    ),
    "sr8d": (
        lambda p: build_parallel_srtree(
            p, dims=8, num_disks=6, seed=1, max_entries=10
        ),
        _points_8d, 0.3, 0.2,
    ),
    "tv8d": (
        lambda p: build_tv_view(
            p, dims=8, num_disks=6, active=3, page_size=1024, seed=1
        ),
        _points_8d, 0.3, 0.2,
    ),
    "x8d": (
        lambda p: build_parallel_xtree(
            p, dims=8, num_disks=6, seed=1, max_entries=10,
            max_overlap=0.05,
        ),
        _points_8d, 0.3, 0.2,
    ),
}

KNN = ("BBSS", "FPSS", "CRSS", "WOPTSS")

GOLDEN = {
    ("sr8d", "BBSS"): (
        "a7c6cb17fdc040f09bbbf0fcf5105941958af7474ec017aad61120300805bf12"
    ),
    ("sr8d", "CRSS"): (
        "221f6b44883f51d55dfd5b9c1d449a08da1343c757dbd672d2f6e87c0a60e3a4"
    ),
    ("sr8d", "FPSS"): (
        "bd41e26dab7e9a6b735e8ad35d9eabd53ee09274b2f2c68a47a77b7633b80a84"
    ),
    ("sr8d", "SPHERE"): (
        "4398d29b5f5e8b5f8379ff9a9a9cf3e49c2a486d289cb24c8027efacfbf9cae0"
    ),
    ("sr8d", "WINDOW"): (
        "bad3bcd75210d38867f92a139c05b5a1cee7064c44fe20e693eafef66908c1ac"
    ),
    ("sr8d", "WOPTSS"): (
        "f4728794ea90a7d39c8589df90052aa9e32475b8e113a173930cb084d3262dad"
    ),
    ("ss2d", "BBSS"): (
        "ccd8531bdbd0c8644f1b4c2721c3a41fba34d199fc26a9be9c62c811697c9960"
    ),
    ("ss2d", "CRSS"): (
        "76be14c4e57c80d5a925e0e26d3b4796edb5272f70a9bf488562db7b7b111a5f"
    ),
    ("ss2d", "FPSS"): (
        "7adc30d3fbeadea38240b54887b468c0ad2ad20c3f2d43f1a9cbe922d1cf50c4"
    ),
    ("ss2d", "SPHERE"): (
        "beb61d0cb2548ea671415829280ae5b0c3bcd74714876ebab5c9860a3ba3b3be"
    ),
    ("ss2d", "WINDOW"): (
        "402e46a4ac22b49fd023858bf332980c3b3a4ea346410a293e2b4083e5cb4836"
    ),
    ("ss2d", "WOPTSS"): (
        "13e4f1eaba683d3fb7daba3a86dede2ca7f0d833be6c52d9b798e0698d43a41a"
    ),
    ("ss8d", "BBSS"): (
        "27abfdf0b24b68d005c9caa528b1b860c337f831b1c3e7596c01f8ddc3d4198e"
    ),
    ("ss8d", "CRSS"): (
        "39b452e7601ebeee507bdd965fe50ae195d4dc446636e68208dd9b94e3f36af5"
    ),
    ("ss8d", "FPSS"): (
        "e796d6d774d26e7b7834cc23df06dc357bb0fc3e64f9e3a2e9a0f5dc3c9d8a06"
    ),
    ("ss8d", "SPHERE"): (
        "598617f7658d7a5769fdecd0ad61caf7dc28a5d6cc9304355f9079d085f89a6e"
    ),
    ("ss8d", "WINDOW"): (
        "e757de0ea2ffc79e337c57bee6c3342511df1368524d3ad1e75088725a9fe378"
    ),
    ("ss8d", "WOPTSS"): (
        "8ffd42ea3ed2752416615f8564fad12b0f3cb5f4a417e6476e25ed9757045965"
    ),
    ("tv8d", "BBSS"): (
        "505713d703f52f1b8ee08d54fec62d9dba255fb67dbae1c422552b2d806461cc"
    ),
    ("tv8d", "CRSS"): (
        "88f5ff950397c830f3a0eeb5170cf3343cedded5a92433260d01610508303e34"
    ),
    ("tv8d", "FPSS"): (
        "caceb7e176d270889131ac0643e84ce6166fc819deaa67df2cb7faea7430d38b"
    ),
    ("tv8d", "SPHERE"): (
        "aa16115835982ce4098b9f64156af2a5ffbf9f73c15b42528b282d8cb8317bf0"
    ),
    ("tv8d", "WOPTSS"): (
        "79ef5c8df577c053bc1e1ab78a2f89483d73b1890b28f104a0657b70e0bb6d19"
    ),
    ("x8d", "BBSS"): (
        "75c5cb70d3a520c820ac7fb09d0f931074b9c913074afb9dc798720367671314"
    ),
    ("x8d", "CRSS"): (
        "fb38025f786a5426a4b37f528a12e1ee2eef131e2076cb311137fea9709f22b7"
    ),
    ("x8d", "FPSS"): (
        "f2ecfc01cf0be0ae9b0fee56ccbed215eaf5c7a112b6395ef07e2d8fc18d28bb"
    ),
    ("x8d", "SPHERE"): (
        "c08584ffc1da3a7f24165077a736dbc7ea8ce4d59a093968d3f990c0c69f646a"
    ),
    ("x8d", "WINDOW"): (
        "aca2713ddfea7a10b68dfa5b8cbbda58987f1bea11ab71b7011d4be1b637ea2d"
    ),
    ("x8d", "WOPTSS"): (
        "dd99ed22dcf01dd7c34cba14db7898bf789b56a2bd04ce7148b5b97a277cbcc3"
    ),
}

STRUCTURE_GOLDEN = {
    "ss2d": (
        "4b51f1561985ae8bbeb937cc290019aee1cf9006a50a2f5c8de73beab261417b"
    ),
    "ss8d": (
        "e34e9604adb4225e241dc55d38d5ede581142741010648ee6b8c39067f743a22"
    ),
    "sr8d": (
        "4eb5aa18eafc4e0bf1ba65ede4d048e994819ac63249ce96cbd384c06941c591"
    ),
}

_built = {}


def _setup(name):
    """(tree, queries, unavailable pages), built once per module."""
    if name not in _built:
        build, points, _, _ = TREES[name]
        data = points()
        tree = build(data)
        # A query on a duplicated point and one on no point at all.
        queries = sample_queries(data, 5, seed=2) + [
            data[-1], tuple(0.5 for _ in data[0])
        ]
        inner = tree._tree.tree if name == "tv8d" else tree.tree
        pages = sorted(inner.pages)
        pages.remove(tree.root_page_id)
        _built[name] = (tree, queries, frozenset(pages[::5]))
    return _built[name]


def _factory(name, algorithm, tree):
    if algorithm in KNN:
        return make_factory(algorithm, tree, K)
    _, _, epsilon, half = TREES[name]
    if algorithm == "SPHERE":
        return lambda q: ParallelSphereSearch(q, epsilon, tree.num_disks)
    return lambda q: ParallelRangeSearch(
        Rect([c - half for c in q], [c + half for c in q]), tree.num_disks
    )


def _record(name, algorithm):
    """Every observable of every run, as a JSON-ready list."""
    tree, queries, unavailable = _setup(name)
    factory = _factory(name, algorithm, tree)
    withheld_sets = (None, unavailable) if algorithm in KNN else (None,)
    rows = []
    for withheld in withheld_sets:
        executor = CountingExecutor(tree, unavailable=withheld)
        for explained in (False, True):
            for query in queries:
                search = factory(query)
                if explained:
                    search.explain = ExplainRecorder(
                        num_disks=tree.num_disks,
                        level_of=lambda pid: tree.page(pid).level,
                        disk_of=tree.disk_of,
                        label=algorithm,
                    )
                answers = executor.execute(search)
                stats = executor.last_stats
                rows.append({
                    "answers": [
                        [neighbor.oid, repr(neighbor.distance)]
                        for neighbor in answers
                    ],
                    "nodes_visited": stats.nodes_visited,
                    "rounds": stats.rounds,
                    "per_disk": sorted(stats.per_disk.items()),
                    "pages": stats.pages,
                    "certified_radius": repr(search.certified_radius),
                    "unreachable": search.unreachable_pages,
                    "explain": (
                        [search.explain.to_dict(),
                         [list(event) for event in search.explain.events]]
                        if explained else None
                    ),
                })
    return rows


def _digest(rows) -> str:
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _hex(values):
    return [float(v).hex() for v in values]


def structure_digest(parallel) -> str:
    """sha256 over every page of a placed SS- or SR-tree, by page id."""
    tree = parallel.tree
    sha = hashlib.sha256()
    for page_id in sorted(tree.pages):
        node = tree.pages[page_id]
        members = [
            entry.oid if node.is_leaf else entry.page_id
            for entry in node.entries
        ]
        region = node.mbr
        sphere = getattr(region, "sphere", region)
        rect = getattr(region, "rect", None)
        row = [
            page_id, node.level, len(node.entries), members,
            node.object_count,
            None if sphere is None else [_hex(sphere.center),
                                         float(sphere.radius).hex()],
            None if rect is None else [_hex(rect.low), _hex(rect.high)],
            parallel.disk_of(page_id), parallel.cylinder_of(page_id),
        ]
        sha.update(repr(row).encode())
        sha.update(b"|")
    return sha.hexdigest()


CASES = sorted(
    [(name, algorithm) for name in TREES for algorithm in KNN]
    + [("ss2d", "SPHERE"), ("ss8d", "SPHERE"), ("sr8d", "SPHERE"),
       ("tv8d", "SPHERE"), ("x8d", "SPHERE")]
    + [("ss2d", "WINDOW"), ("ss8d", "WINDOW"), ("sr8d", "WINDOW"),
       ("x8d", "WINDOW")]
)


@pytest.mark.parametrize("name, algorithm", CASES)
def test_access_method_search_is_pinned(name, algorithm):
    rows = _record(name, algorithm)
    if algorithm in KNN:
        # The withheld pages must actually cut something off.
        assert any(row["unreachable"] for row in rows)
    assert any(row["answers"] for row in rows)
    assert _digest(rows) == GOLDEN[(name, algorithm)]


@pytest.mark.parametrize("name", ["ss2d", "ss8d", "sr8d"])
def test_sphere_tree_structure_is_pinned(name):
    tree, _, _ = _setup(name)
    assert tree.height >= 3
    assert structure_digest(tree) == STRUCTURE_GOLDEN[name]


def test_xtree_case_has_supernodes():
    tree, _, _ = _setup("x8d")
    assert tree.tree.supernode_count() > 0
