"""Golden structure digests: the R*-tree build, pinned bit for bit.

The digests below were recorded on the scalar insert path (nested
Python loops in ChooseSubtree and the topological split) and must never
change: any rewrite of the build path has to produce *the same tree* —
page ids, entry order, MBR corners down to the last bit, subtree
counts, and the disk and cylinder of every page.  Every paper figure,
golden trace and ledger ``sim_digest`` in the repo hangs off these
structures.

``PLACEMENT_DIGESTS`` pins the declustering layer the same way: the R*-
and X-tree under every policy, the SS- and SR-trees under the two
policies that read no per-disk statistics, and the two bulk loaders.
They were recorded while each placed tree still carried its own copy of
the placement hooks and each loader its own packing loop.
"""

import hashlib
import random

import pytest

from repro import datasets
from repro.extensions.srtree import ParallelSRTree
from repro.extensions.sstree import ParallelSSTree
from repro.extensions.xtree import ParallelXTree
from repro.parallel import ParallelRStarTree, build_parallel_tree, make_policy
from repro.rtree import (
    RStarTree,
    check_invariants,
    hilbert_bulk_load,
    str_bulk_load,
)

#: ``benchmarks/wall/workloads.py`` at its default ``--seed 11``:
#: ``sub_seed(0) = seed * 1000``.
LEDGER_SEED = 11 * 1000


def structure_digest(tree) -> str:
    """sha256 over a DFS of everything a search can observe.

    Accepts a bare :class:`RStarTree` or a placed tree exposing
    ``tree`` / ``disk_of`` / ``cylinder_of``.  Per node, in pre-order
    with children in entry order: page id, level, the child page ids
    (oids for a leaf), the region as ``float.hex`` (:func:`region_hex`),
    the cached object count and, for a placed tree, disk and cylinder.
    """
    inner = getattr(tree, "tree", tree)
    placed = inner is not tree
    sha = hashlib.sha256()
    stack = [inner.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            members = [entry.oid for entry in node.entries]
        else:
            members = [child.page_id for child in node.entries]
            stack.extend(reversed(node.entries))
        corners = None if node.mbr is None else region_hex(node.mbr)
        row = [node.page_id, node.level, members, corners, node.object_count]
        if placed:
            row += [tree.disk_of(node.page_id), tree.cylinder_of(node.page_id)]
        sha.update(repr(row).encode())
        sha.update(b"|")
    return sha.hexdigest()


def region_hex(region):
    """A node region in ``float.hex``: a box's two corners, a sphere's
    centre and radius, or an SR-tree region's box and sphere."""
    if hasattr(region, "sphere"):
        return region_hex(region.rect), region_hex(region.sphere)
    if hasattr(region, "radius"):
        return [c.hex() for c in region.center], region.radius.hex()
    return [c.hex() for c in region.low], [c.hex() for c in region.high]


def ledger_tree(data, dims):
    """A build exactly as the wall ledger's workloads make it."""
    return build_parallel_tree(
        data, dims=dims, num_disks=10,
        policy=make_policy("proximity", seed=LEDGER_SEED),
        seed=LEDGER_SEED, page_size=4096,
    )


def build_ledger_2d():
    return ledger_tree(datasets.uniform(n=4000, dims=2, seed=LEDGER_SEED), 2)


def build_ledger_10d():
    return ledger_tree(datasets.gaussian(n=2000, dims=10, seed=LEDGER_SEED), 10)


def build_tie_heavy():
    """Integer grid, a half-step lattice and exact duplicates, fan-out 6.

    Every score ChooseSubtree and the split compare — enlargement, area,
    overlap, margin — ties constantly here, so the result depends on
    the tie-breaking order alone.  A few ``-0.0`` coordinates pin the
    sign of a zero corner too: ``Rect.union`` takes its argument's
    value on a tie, and ``float.hex`` tells ``-0.0`` from ``0.0``.
    """
    rng = random.Random(5)
    points = [(float(x), float(y)) for x in range(18) for y in range(18)]
    points += [(x + 0.5, y + 0.5) for x in range(0, 18, 2) for y in range(0, 18, 2)]
    points += [points[rng.randrange(len(points))] for _ in range(150)]
    points += [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-0.0, 7.0), (5.0, -0.0)]
    rng.shuffle(points)
    tree = ParallelRStarTree(2, 4, seed=3, max_entries=6, min_entries=2)
    for oid, point in enumerate(points):
        tree.insert(point, oid)
    return tree


def build_churn():
    """Insert, delete two thirds, re-insert half of the deleted, delete on."""
    rng = random.Random(9)
    points = datasets.uniform(700, 2, seed=17)
    tree = ParallelRStarTree(2, 5, seed=8, max_entries=8)
    for oid, point in enumerate(points):
        tree.insert(point, oid)
    order = list(range(len(points)))
    rng.shuffle(order)
    gone = order[:460]
    for oid in gone:
        assert tree.delete(points[oid], oid)
    for oid in gone[:230]:
        tree.insert(points[oid], oid)
    for oid in order[460:560]:
        assert tree.delete(points[oid], oid)
    return tree


def build_xtree():
    tree = ParallelXTree(
        8, 6, max_overlap=0.02, seed=4, max_entries=10,
    )
    for oid, point in enumerate(datasets.gaussian(1500, 8, seed=42)):
        tree.insert(point, oid)
    return tree


def build_1d():
    tree = RStarTree(1, max_entries=7)
    for oid, point in enumerate(datasets.uniform(400, 1, seed=3)):
        tree.insert(point, oid)
    return tree


def build_3d():
    tree = ParallelRStarTree(3, 3, seed=2, max_entries=12)
    for oid, point in enumerate(datasets.gaussian(900, 3, seed=6)):
        tree.insert(point, oid)
    return tree


GOLDEN = {
    "ledger_2d": (
        build_ledger_2d,
        "f3e6b1cc391a8d2fd1fdbce8ecdea25943ee1b6dd33778bc8795f3dc86e7fe56",
    ),
    "ledger_10d": (
        build_ledger_10d,
        "6222ea9e7ddd086045ff644f9d7fccd71d4bec9a66bddb4f407ddf9b53acc76b",
    ),
    "tie_heavy": (
        build_tie_heavy,
        "6ee5fccf13e59cca8ee5d31c16400af82b9d6be08842886f87cbc50b7e1db5bd",
    ),
    "churn": (
        build_churn,
        "5499be0dfef30d59b9546ea4c33ea4a7a1034f0f764d113cca53a15896c7e0e1",
    ),
    "xtree": (
        build_xtree,
        "30bf93f7a81dfac55b618d7c648335e65cc4332e1384b0713a37c88f2bca2b89",
    ),
    "one_d": (
        build_1d,
        "ba0f4f3be64e9791f9d127e56b130d9cd30232d8231415623823e1d3e337cc00",
    ),
    "three_d": (
        build_3d,
        "da3f86931fe61b99f8df7b3639881eb2ffe53796768ff397ecd8f2115367a231",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_structure_digest_is_pinned(name):
    build, expected = GOLDEN[name]
    tree = build()
    check_invariants(getattr(tree, "tree", tree))
    assert structure_digest(tree) == expected


def test_xtree_case_has_supernodes_wider_than_a_page():
    tree = build_xtree().tree
    assert tree.supernode_count() > 0
    assert max(len(node.entries) for node in tree.pages.values()) > 32


def test_digest_sees_entry_order_and_last_bits():
    tree = build_1d()
    before = structure_digest(tree)
    leaf = next(node for node in tree.pages.values() if node.is_leaf)
    leaf.entries.reverse()
    assert structure_digest(tree) != before
    leaf.entries.reverse()
    assert structure_digest(tree) == before


def build_placed(cls, policy, points, dims, **tree_kwargs):
    tree = cls(dims, 6, policy=make_policy(policy, seed=7), seed=7,
               max_entries=10, **tree_kwargs)
    for oid, point in enumerate(points):
        tree.insert(point, oid)
    return tree


def build_str():
    points = datasets.uniform(900, 3, seed=34)
    return str_bulk_load(
        [(p, i) for i, p in enumerate(points)], dims=3, max_entries=12,
        fill_factor=0.9,
    )


def build_hilbert():
    points = datasets.uniform(1000, 2, seed=35)
    return hilbert_bulk_load(
        [(p, i) for i, p in enumerate(points)], dims=2, max_entries=10,
        fill_factor=0.8,
    )


#: ``<access method>_<policy>`` or ``<loader>_bulk`` -> digest.
PLACEMENT_DIGESTS = {
    "hilbert_bulk": (
        "71d991e039f240b0535ad51f6864da5f828d827a255f2f85869193e8e2a13bb4"
    ),
    "rstar_area_balance": (
        "b65c2e1e6dbf5390f0c9b025cb2407e2f942a047890176ed21590bf825187bcc"
    ),
    "rstar_data_balance": (
        "1ca8fd9a2a26bbeaa0fa936ae198f92c03b9b9e73312e3f435bcc4fa4d5c800d"
    ),
    "rstar_proximity": (
        "09200642f6c2ef35a02427a051b55aefa151a3268b2f8a790ba91933327698c0"
    ),
    "rstar_random": (
        "ccaf5962b024ac7d8136a69071f6c38e9e0913dab350b93da9c10b2d693b7e5a"
    ),
    "rstar_round_robin": (
        "b5e2f62812e89051f32252ffd0061bb3437b35f13b0382670de7dcdf739b474c"
    ),
    "srtree_random": (
        "21b6749185f49ebec5f1323e5d362a97f123f05619f0dbb8133555f53c87c94b"
    ),
    "srtree_round_robin": (
        "17c7575d79f7fa173a7f0e00f1e45689be85234c3206b4b5cd143694add72d12"
    ),
    "sstree_random": (
        "2374b58217243a3c608788c8d46ec9d9e45d65c111075f6eccb3be4a90e9fb93"
    ),
    "sstree_round_robin": (
        "d971a287e62f297ccf6c43fb2aee528c473732efd50e268d1f9f409f826d19fe"
    ),
    "str_bulk": (
        "7ae9a4746be7cb04ef2a6b71e8968f451f99d341cf5a6ffd1e328830932c5c99"
    ),
    "xtree_area_balance": (
        "88bb71685a3794161376513871c92b7b5a734c918d5214300ccab81634b1ef9a"
    ),
    "xtree_data_balance": (
        "8526eb82eae4e54ef174c0124ecd2e65f325274403c0b8c66a2ddcc7080dee66"
    ),
    "xtree_proximity": (
        "594cd93a134f133b4ce73cdab5853f6b60fba0b67842780e54fa06c679da7601"
    ),
    "xtree_random": (
        "46ac98f4f20af0fd5842a48668c3b10af0d9ca630197c90fac6147381fc29022"
    ),
    "xtree_round_robin": (
        "440f3c70e1f12b7182fc8481dd45cd7f4ab0f54bb24c8e5e33f8ccfc26f12d4d"
    ),
}


def placement_build(name):
    """The tree *name* pins: a loader, or an access method and a policy."""
    if name == "str_bulk":
        return build_str()
    if name == "hilbert_bulk":
        return build_hilbert()
    kind, policy = name.split("_", 1)
    if kind == "rstar":
        return build_placed(
            ParallelRStarTree, policy, datasets.uniform(1500, 2, seed=31), 2
        )
    if kind == "xtree":
        return build_placed(
            ParallelXTree, policy, datasets.gaussian(700, 6, seed=32), 6,
            max_overlap=0.05,
        )
    cls = ParallelSSTree if kind == "sstree" else ParallelSRTree
    return build_placed(cls, policy, datasets.gaussian(900, 3, seed=33), 3)


@pytest.mark.parametrize("name", sorted(PLACEMENT_DIGESTS))
def test_placement_digest_is_pinned(name):
    tree = placement_build(name)
    if not name.startswith(("sstree", "srtree")):
        check_invariants(getattr(tree, "tree", tree))
    assert structure_digest(tree) == PLACEMENT_DIGESTS[name]
