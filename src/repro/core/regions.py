"""Branch-bound kernels per region family.

The paper applies its algorithms to the R*-tree but notes (§5, future
work) that they carry over to other access methods — SS-trees bound
subtrees by *spheres*, SR-trees by a rectangle ∩ sphere pair, TV-trees
by boxes over a few active dimensions.  The search algorithms only ever
need three numbers per branch: an optimistic bound (``Dmin``), a
pessimistic existence bound (``Dmm``) and the farthest possible distance
(``Dmax``).  Every internal node exposes its branches' regions as
row-aligned arrays (``entry_bounds()``) and names its region family
(``region_family``); :data:`KERNELS` maps ``(family, metric)`` to the
:mod:`repro.perf.kernels` kernel that scores those arrays, so
BBSS / FPSS / CRSS / WOPTSS run unmodified over every tree.

* ``rect`` — ``(lows, highs)``: the paper's three MBR metrics;
* ``sphere`` — ``(centres, radii)``: ``Dmin = max(0, |q - c| - r)²``,
  ``Dmm = Dmax = (|q - c| + r)²``;
* ``sr`` — ``(lows, highs, centres, radii)``: the larger ``Dmin`` and
  the smaller ``Dmax`` of the two parts, ``Dmm`` the smaller of the
  rect's MINMAXDIST and the sphere's ``Dmax``;
* ``tv`` — ``(head lows, head highs, tail lows, tail highs)``: the
  head box's bound plus the tail box's, ``Dmm = Dmax``.

``(family, "dmin_dmm")`` scores both bounds a search round needs in
one pass and returns ``(Dmin, Dmm)``, bit for bit what the two
single-metric kernels return; it counts as one call of each.

A sphere has no MINMAXDIST analogue (no face an object is guaranteed to
touch), so the only safe existence bound for a non-empty sphere is its
far side; likewise no face guarantee survives the TV projection.  Both
are conservative: CRSS makes slightly fewer "surely useful" activations
there, which is exactly the behaviour the paper's criterion prescribes
with the information available.  An SR region's objects lie in the
*intersection* of its parts, so the larger ``Dmin`` and the smaller
``Dmax`` hold; its rectangle is a true MBR, so its MINMAXDIST applies.

:data:`KERNELS` is a module-level dict so that call wrappers patched
over the kernels (the wall-clock ledger's traced pass) reach every
entry of it.
"""

from __future__ import annotations

from repro.perf import kernels

#: (region family, metric) -> batch kernel ``(query, *arrays) -> (n,)``;
#: the ``"dmin_dmm"`` kernels return a ``(Dmin, Dmm)`` pair.
KERNELS = {
    ("rect", "dmin"): kernels.batch_minimum_distance_sq,
    ("rect", "dmm"): kernels.batch_minmax_distance_sq,
    ("rect", "dmax"): kernels.batch_maximum_distance_sq,
    ("rect", "dmin_dmm"): kernels.batch_minimum_minmax_distance_sq,
    ("sphere", "dmin"): kernels.batch_sphere_minimum_distance_sq,
    ("sphere", "dmm"): kernels.batch_sphere_maximum_distance_sq,
    ("sphere", "dmax"): kernels.batch_sphere_maximum_distance_sq,
    ("sphere", "dmin_dmm"): kernels.batch_sphere_minimum_maximum_distance_sq,
    ("sr", "dmin"): kernels.batch_sr_minimum_distance_sq,
    ("sr", "dmm"): kernels.batch_sr_minmax_distance_sq,
    ("sr", "dmax"): kernels.batch_sr_maximum_distance_sq,
    ("sr", "dmin_dmm"): kernels.batch_sr_minimum_minmax_distance_sq,
    ("tv", "dmin"): kernels.batch_tv_minimum_distance_sq,
    ("tv", "dmm"): kernels.batch_tv_maximum_distance_sq,
    ("tv", "dmax"): kernels.batch_tv_maximum_distance_sq,
    ("tv", "dmin_dmm"): kernels.batch_tv_minimum_maximum_distance_sq,
}
