"""Performance layer: vectorized distance kernels and the bench harness.

Every search algorithm in :mod:`repro.core` spends its time computing
``Dmin`` / ``Dmm`` / ``Dmax`` for all entries of a fetched node and
sorting the results (Lemma 1's ``Dmax``-sorted prefix).  This package
provides numpy batch kernels that evaluate those metrics for a whole
node at once, over the flat low/high matrices cached per node by
:meth:`repro.rtree.node.Node.entry_bounds`.

The kernels are bit-for-bit equivalent to the scalar reference in
:mod:`repro.core.distances`: they accumulate per *axis* (the small
dimension) while vectorizing over *entries* (the large dimension), so
every floating-point operation happens in the same order as the scalar
loops.  The differential suite in ``tests/perf`` asserts exact float
equality on every covered configuration.

The R*-tree *build* path runs on the same matrices: ChooseSubtree and
the topological split score their candidates with
``batch_enlargement`` / ``batch_intersection_area`` /
``batch_split_scores``, exact twins of the :class:`~repro.geometry.rect.Rect`
arithmetic, so the tree that comes out is the same tree bit for bit
(``docs/performance.md``, "Build path").  There is no scalar build
path at run time; the loops live on as the test oracle in
``tests/rtree/oracle.py``.

The query path is the same story: every node of every access method is
scanned by the kernels (rectangles, and the sphere, SR and TV regions
of the extension trees), and Lemma 1 and the CRSS candidate
reduction run as array operations over the scan results.  The loops
they replaced are the test oracle in ``tests/core/oracle.py``;
:mod:`repro.core.distances` remains the public per-rectangle API the
kernels are tested against.  There is no switch.

The benchmark harness lives in :mod:`repro.perf.bench` (imported
lazily — it pulls in the whole algorithm stack) and is exposed on the
command line as ``repro bench``.
"""

from repro.perf.kernels import (
    batch_enlargement,
    batch_intersection_area,
    batch_maximum_distance_sq,
    batch_minimum_distance_sq,
    batch_minmax_distance_sq,
    batch_point_distance_sq,
    batch_split_scores,
    instrument_kernels,
    record_kernel_use,
)

__all__ = [
    "batch_enlargement",
    "batch_intersection_area",
    "batch_maximum_distance_sq",
    "batch_minimum_distance_sq",
    "batch_minmax_distance_sq",
    "batch_point_distance_sq",
    "batch_split_scores",
    "instrument_kernels",
    "record_kernel_use",
]
