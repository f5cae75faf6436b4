"""Tests for tree persistence: the flat file is the one at-rest format.

``flatten -> save_flat`` writes a tree, ``load_flat -> rehydrate`` brings
back one that takes inserts and deletes again.  Everything the two-file
page format used to promise is asserted of this round trip — same
structure digest, same search I/O, placement resumed under the policy
the caller passes — and everything its loader used to reject is rejected
by ``load_flat`` as a :class:`FlatFormatError`, plain read and mmap
alike.
"""

import numpy as np
import pytest

from repro.core import CRSS, CountingExecutor
from repro.datasets import sample_queries, uniform
from repro.parallel import build_parallel_tree
from repro.parallel.declustering import DeclusteringPolicy
from repro.rtree import (
    FlatFormatError,
    RStarTree,
    check_invariants,
    flat,
    flatten,
    load_flat,
    save_flat,
)
from tests.rtree.test_structure_golden import structure_digest

HEADER_FIELDS = (
    "magic", "version", "flags", "dims", "height", "max_entries",
    "min_entries", "page_size", "num_disks", "num_cylinders", "size",
    "root_page_id", "next_page_id", "total_points",
)
#: Where the arrays start: the header padded to 8 bytes.
BODY = (flat._HEADER.size + 7) // 8 * 8

both_loaders = pytest.mark.parametrize("mmap", [False, True])


def round_trip(tree, path, mmap=False, **rehydrate):
    """``flatten -> save_flat -> load_flat -> rehydrate``."""
    save_flat(flatten(tree), str(path))
    return load_flat(str(path), mmap=mmap).rehydrate(**rehydrate)


def with_header(data: bytes, **changes) -> bytes:
    """*data* with the named header fields overwritten."""
    fields = dict(zip(HEADER_FIELDS, flat._HEADER.unpack_from(data)))
    fields.update(changes)
    return flat._HEADER.pack(*fields.values()) + data[flat._HEADER.size:]


def array_offsets(frozen) -> dict:
    """Byte offset of every array in the file ``save_flat`` writes."""
    tree = getattr(frozen, "tree", frozen)
    offset = BODY + 8 * tree.height
    offsets = {}
    for level in range(tree.height):
        n = len(tree.level_page_ids[level])
        for name, width in (
            ("lows", tree.dims), ("highs", tree.dims), ("page_ids", 1),
            ("object_counts", 1), ("entry_offsets", 1), ("entry_counts", 1),
        ):
            offsets[name, level] = offset
            offset += 8 * n * width
    offsets["points"] = offset
    offsets["oids"] = offset + 8 * len(tree.oids) * tree.dims
    offsets["disks"] = offsets["oids"] + 8 * len(tree.oids)
    offsets["cylinders"] = offsets["disks"] + 8 * tree.node_count()
    offsets["spans"] = offsets["cylinders"] + 8 * tree.node_count()
    return offsets


def poke(data: bytes, offset: int, value: int) -> bytes:
    """*data* with the int64 at *offset* replaced by *value*."""
    patched = bytearray(data)
    patched[offset:offset + 8] = np.int64(value).tobytes()
    return bytes(patched)


@pytest.fixture
def built_tree():
    tree = RStarTree(3, max_entries=6)
    points = uniform(300, 3, seed=71)
    for i, p in enumerate(points):
        tree.insert(p, i)
    return tree, points


@pytest.fixture
def placed_file(tmp_path):
    """A saved declustered tree: (freeze, file bytes, scratch path)."""
    points = uniform(200, 2, seed=78)
    tree = build_parallel_tree(points, dims=2, num_disks=3, max_entries=6)
    frozen = flatten(tree)
    path = tmp_path / "placed.flat"
    save_flat(frozen, str(path))
    return frozen, path.read_bytes(), path


class TestTreeRoundTrip:
    def test_round_trip_preserves_everything(self, built_tree, tmp_path):
        tree, points = built_tree
        loaded = round_trip(tree, tmp_path / "tree.flat")
        check_invariants(loaded)
        assert len(loaded) == len(tree)
        assert loaded.height == tree.height
        assert loaded.root_page_id == tree.root_page_id
        assert set(loaded.pages) == set(tree.pages)
        # Same points, same oids.
        assert sorted(loaded.iter_points()) == sorted(tree.iter_points())
        # Page ids, entry order, MBR corners to the last bit, counts.
        assert structure_digest(loaded) == structure_digest(tree)

    def test_identical_page_structure(self, built_tree, tmp_path):
        """Every page holds the same entries in the same order."""
        tree, _ = built_tree
        loaded = round_trip(tree, tmp_path / "tree.flat")
        for page_id, node in tree.pages.items():
            other = loaded.pages[page_id]
            assert other.level == node.level
            assert other.mbr == node.mbr
            assert other.object_count == node.object_count
            if node.is_leaf:
                assert [e.oid for e in other.entries] == [
                    e.oid for e in node.entries
                ]
            else:
                assert [c.page_id for c in other.entries] == [
                    c.page_id for c in node.entries
                ]

    def test_queries_identical_after_reload(self, built_tree, tmp_path):
        tree, _ = built_tree
        loaded = round_trip(tree, tmp_path / "tree.flat")
        for q in [(0.1, 0.5, 0.9), (0.5, 0.5, 0.5)]:
            assert [n.oid for n in loaded.knn(q, 12)] == [
                n.oid for n in tree.knn(q, 12)
            ]

    def test_dynamic_operations_after_reload(self, built_tree, tmp_path):
        tree, points = built_tree
        loaded = round_trip(tree, tmp_path / "tree.flat")
        for j, p in enumerate(uniform(100, 3, seed=72)):
            loaded.insert(p, 1000 + j)
        assert loaded.delete(points[0], 0)
        check_invariants(loaded)
        assert len(loaded) == 300 + 100 - 1

    def test_empty_tree_round_trip(self, tmp_path):
        tree = RStarTree(2, max_entries=8)
        for mmap in (False, True):
            loaded = round_trip(tree, tmp_path / "empty.flat", mmap=mmap)
            assert len(loaded) == 0
            assert structure_digest(loaded) == structure_digest(tree)
            loaded.insert((0.5, 0.5), 0)
            assert len(loaded) == 1


class TestCorruption:
    """Whatever is wrong with the file, the caller gets one exception
    type that names the path — never ``struct.error`` or a numpy
    buffer-size message, and never a tree."""

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.flat"
        path.write_bytes(b"NOPE" + b"\x00" * 200)
        for mmap in (False, True):
            with pytest.raises(FlatFormatError, match="magic") as caught:
                load_flat(str(path), mmap=mmap)
            assert str(path) in str(caught.value)

    def test_bad_version(self, placed_file):
        _, data, path = placed_file
        path.write_bytes(with_header(data, version=999))
        for mmap in (False, True):
            with pytest.raises(FlatFormatError, match="version 999"):
                load_flat(str(path), mmap=mmap)

    def test_truncated_file(self, placed_file):
        """Cut inside the header (every 8-byte boundary) and at ten
        places in the body: always ``FlatFormatError``."""
        _, data, path = placed_file
        body_cuts = np.linspace(BODY, len(data) - 1, 10).astype(int).tolist()
        assert len(set(body_cuts)) == 10
        for cuts, complaint in (
            (range(0, BODY, 8), "too short"), (body_cuts, "truncated"),
        ):
            for cut in cuts:
                path.write_bytes(data[:cut])
                for mmap in (False, True):
                    with pytest.raises(
                        FlatFormatError, match=complaint
                    ) as caught:
                        load_flat(str(path), mmap=mmap)
                    assert str(path) in str(caught.value)

    @both_loaders
    def test_trailing_bytes(self, placed_file, mmap):
        _, data, path = placed_file
        path.write_bytes(data + b"\xab" * 64)
        with pytest.raises(FlatFormatError, match="64 trailing bytes"):
            load_flat(str(path), mmap=mmap)

    @both_loaders
    def test_root_page_must_be_stored(self, placed_file, mmap):
        frozen, data, path = placed_file
        missing = max(frozen.tree.pages) + 7
        path.write_bytes(with_header(data, root_page_id=missing))
        with pytest.raises(FlatFormatError, match=f"root page {missing}"):
            load_flat(str(path), mmap=mmap)

    @both_loaders
    def test_child_slice_beyond_the_level_below(self, placed_file, mmap):
        """The flat twin of "page references missing child"."""
        frozen, data, path = placed_file
        offsets = array_offsets(frozen)
        top = frozen.tree.height - 1
        below = len(frozen.tree.level_page_ids[top - 1])
        for name, value in (
            ("entry_counts", below + 1),   # offset 0 + count overshoots
            ("entry_offsets", below),      # starts past the last row
            ("entry_offsets", -1),
            ("entry_counts", -1),
        ):
            path.write_bytes(poke(data, offsets[name, top], value))
            with pytest.raises(FlatFormatError, match="reach outside"):
                load_flat(str(path), mmap=mmap)
        # Leaves slice the point matrix the same way.
        path.write_bytes(
            poke(data, offsets["entry_offsets", 0], len(frozen.tree.oids))
        )
        with pytest.raises(FlatFormatError, match="reach outside"):
            load_flat(str(path), mmap=mmap)

    @both_loaders
    def test_object_count_mismatch(self, placed_file, mmap):
        frozen, data, path = placed_file
        path.write_bytes(with_header(data, size=len(frozen) + 1))
        with pytest.raises(FlatFormatError, match="object count mismatch"):
            load_flat(str(path), mmap=mmap)

    @both_loaders
    def test_duplicate_page_ids(self, placed_file, mmap):
        frozen, data, path = placed_file
        leaves = frozen.tree.level_page_ids[0]
        offset = array_offsets(frozen)["page_ids", 0]
        path.write_bytes(poke(data, offset, int(leaves[1])))
        with pytest.raises(FlatFormatError, match="duplicate page id"):
            load_flat(str(path), mmap=mmap)

    @both_loaders
    def test_valid_file_still_loads(self, placed_file, mmap):
        """The checks reject nothing ``save_flat`` writes — and an mmap
        load still hands out views into the file, not copies."""
        frozen, _, path = placed_file
        loaded = load_flat(str(path), mmap=mmap)
        assert structure_digest(loaded.rehydrate()) == structure_digest(
            frozen.rehydrate()
        )
        if mmap:
            owner = loaded.tree.points
            while owner.base is not None:
                owner = owner.base
                if isinstance(owner, np.memmap):
                    break
            assert isinstance(owner, np.memmap)


class FixedDisk(DeclusteringPolicy):
    """Places every new page on one disk — unmistakable in a histogram."""

    name = "fixed"

    def __init__(self, disk):
        self.disk = disk

    def choose_disk(self, context):
        return self.disk


class TestParallelRoundTrip:
    def test_placement_preserved(self, tmp_path):
        points = uniform(500, 2, seed=73)
        tree = build_parallel_tree(points, dims=2, num_disks=5,
                                   max_entries=8, seed=9)
        loaded = round_trip(tree, tmp_path / "t.flat", mmap=True)
        assert loaded.num_disks == 5
        assert loaded.num_cylinders == tree.num_cylinders
        assert len(loaded) == 500
        for page_id in tree.tree.pages:
            assert loaded.disk_of(page_id) == tree.disk_of(page_id)
            assert loaded.cylinder_of(page_id) == tree.cylinder_of(page_id)
        # Structure and the disk and cylinder of every page, in one hash.
        assert structure_digest(loaded) == structure_digest(tree)

    def test_identical_search_io_after_reload(self, tmp_path):
        """Reloaded trees fetch the exact same page sequence — frozen
        as loaded, and thawed back into the build form."""
        points = uniform(400, 2, seed=74)
        tree = build_parallel_tree(points, dims=2, num_disks=4, max_entries=8)
        path = str(tmp_path / "t.flat")
        save_flat(flatten(tree), path)
        frozen = load_flat(path, mmap=True)

        queries = sample_queries(points, 5, seed=75)
        original = CountingExecutor(tree)
        for restored in (
            CountingExecutor(frozen), CountingExecutor(frozen.rehydrate())
        ):
            for q in queries:
                before = original.execute(CRSS(q, 7, num_disks=4))
                after = restored.execute(CRSS(q, 7, num_disks=4))
                assert after == before
                assert restored.last_stats.pages == original.last_stats.pages

    def test_inserts_after_reload_get_placed(self, tmp_path):
        """New pages go where the policy passed to ``rehydrate`` says,
        on cylinders drawn from the seed passed with it."""
        points = uniform(300, 2, seed=76)
        tree = build_parallel_tree(points, dims=2, num_disks=3, max_entries=6)
        path = tmp_path / "t.flat"
        before = set(tree.tree.pages)
        grown = {}
        for seed in (5, 5, 6):
            loaded = round_trip(tree, path, policy=FixedDisk(2), seed=seed)
            assert loaded.policy.name == "fixed"
            for j, p in enumerate(uniform(200, 2, seed=77)):
                loaded.insert(p, 500 + j)
            check_invariants(loaded.tree)
            created = set(loaded.tree.pages) - before
            assert len(created) >= 2
            assert {loaded.disk_of(pid) for pid in created} == {2}
            for page_id in before & set(loaded.tree.pages):
                assert loaded.disk_of(page_id) == tree.disk_of(page_id)
            grown.setdefault(seed, []).append(
                [loaded.cylinder_of(pid) for pid in sorted(created)]
            )
        assert grown[5][0] == grown[5][1] != grown[6][0]
        # No policy: Proximity Index, like a fresh tree.
        assert round_trip(tree, path).policy.name == "proximity"

    def test_deletes_after_reload_free_pages(self, tmp_path):
        points = uniform(300, 2, seed=79)
        tree = build_parallel_tree(points, dims=2, num_disks=3, max_entries=6)
        loaded = round_trip(tree, tmp_path / "t.flat")
        before = set(loaded.tree.pages)
        for oid in range(260):
            assert loaded.delete(points[oid], oid)
        check_invariants(loaded.tree)
        freed = before - set(loaded.tree.pages)
        assert freed
        for page_id in freed:
            with pytest.raises(KeyError):
                loaded.disk_of(page_id)
        assert sum(loaded.placement_histogram().values()) == len(
            loaded.tree.pages
        )

    def test_missing_placement_detected(self, placed_file):
        """Placement rows are aligned with the page table, so a page
        without placement is a table that ends early: by one row, or
        right where it should start."""
        frozen, data, path = placed_file
        for cut in (len(data) - 8, array_offsets(frozen)["disks"]):
            path.write_bytes(data[:cut])
            for mmap in (False, True):
                with pytest.raises(FlatFormatError, match="truncated"):
                    load_flat(str(path), mmap=mmap)

    @both_loaders
    def test_invalid_disk_id_detected(self, placed_file, mmap):
        frozen, data, path = placed_file
        offsets = array_offsets(frozen)
        first_page = int(frozen.tree.level_page_ids[0][0])
        for value in (99, frozen.num_disks, -1):
            path.write_bytes(poke(data, offsets["disks"], value))
            with pytest.raises(
                FlatFormatError,
                match=f"page {first_page} on invalid disk {value}",
            ):
                load_flat(str(path), mmap=mmap)
        path.write_bytes(
            poke(data, offsets["cylinders"], frozen.num_cylinders)
        )
        with pytest.raises(FlatFormatError, match="invalid cylinder"):
            load_flat(str(path), mmap=mmap)

    @both_loaders
    def test_invalid_page_span_detected(self, placed_file, mmap):
        frozen, data, path = placed_file
        first_page = int(frozen.tree.level_page_ids[0][0])
        for value in (0, -2):
            path.write_bytes(poke(data, array_offsets(frozen)["spans"], value))
            with pytest.raises(
                FlatFormatError, match=f"page {first_page} spans {value} pages"
            ):
                load_flat(str(path), mmap=mmap)
