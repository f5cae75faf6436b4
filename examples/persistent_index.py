#!/usr/bin/env python3
"""Index persistence: build once, reload across restarts.

A production index outlives the process that built it.  This example
builds a declustered index, freezes it and saves it to one flat file
(level-order arrays + disk placement), "restarts" by mapping the file
back, and shows the reloaded index is operationally identical: same
answers, same page fetch sequence — straight off the mapped arrays —
and, once rehydrated, still fully dynamic (inserts keep working and
keep getting placed on disks by the policy you hand it).

Run:  python examples/persistent_index.py
"""

import os
import tempfile
import time

from repro import CRSS, CountingExecutor, build_parallel_tree
from repro.datasets import gaussian
from repro.parallel import make_policy
from repro.rtree import check_invariants, flatten, load_flat, save_flat


def main():
    print("building a 10,000-point index over 8 disks ...")
    data = gaussian(10_000, 2, seed=13)
    started = time.perf_counter()
    tree = build_parallel_tree(data, dims=2, num_disks=8, page_size=1024)
    build_seconds = time.perf_counter() - started
    print(f"  built in {build_seconds:.1f}s "
          f"({len(tree.tree.pages)} pages, height {tree.height})")

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "places.flat")

        started = time.perf_counter()
        save_flat(flatten(tree), path)
        save_seconds = time.perf_counter() - started
        print(
            f"saved: {os.path.getsize(path):,} B (arrays + placement) "
            f"in {save_seconds * 1000:.0f} ms"
        )

        print("\n--- simulated restart: mapping the index back ---")
        started = time.perf_counter()
        frozen = load_flat(path, mmap=True)
        load_seconds = time.perf_counter() - started
        print(f"loaded in {load_seconds * 1000:.0f} ms "
              f"(vs {build_seconds:.1f}s to rebuild — "
              f"{build_seconds / load_seconds:.0f}x faster)")

        # Operationally identical: same answers, same I/O — read-only
        # queries run on the mapped file as it is.
        query, k = (0.47, 0.53), 10
        before = CountingExecutor(tree)
        after = CountingExecutor(frozen)
        original = before.execute(CRSS(query, k, num_disks=8))
        restored = after.execute(CRSS(query, k, num_disks=8))
        assert [n.oid for n in original] == [n.oid for n in restored]
        assert before.last_stats.pages == after.last_stats.pages
        print(f"\n{k}-NN answers and the exact page fetch sequence match:")
        print(f"  pages fetched: {after.last_stats.pages}")

        # Still dynamic: thaw the file into the build form, naming the
        # policy that places the pages created from now on.
        reloaded = frozen.rehydrate(policy=make_policy("proximity"), seed=13)
        check_invariants(reloaded.tree)
        fresh = gaussian(500, 2, seed=14)
        for j, p in enumerate(fresh):
            reloaded.insert(p, 100_000 + j)
        check_invariants(reloaded.tree)
        print(f"\ninserted 500 new points after reload: "
              f"{len(reloaded):,} points, every page placed "
              f"(histogram {dict(sorted(reloaded.placement_histogram().items()))})")


if __name__ == "__main__":
    main()
