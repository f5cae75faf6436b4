"""Surrogates for the paper's real-life 2-d data sets.

The originals — Sequoia 2000 *California Places* (CP) and TIGER *Long
Beach* road intersections (LB) — are not available offline.  These
generators reproduce the structural properties that matter to the
experiments: both originals are strongly clustered and skewed, which is
what shapes R*-tree MBR overlap and hence the pruning behaviour of the
search algorithms.  Populations default to the paper's exact counts.

* **CP surrogate** — place names concentrate in urbanized clusters along
  a roughly coast-shaped band (plus a sparse rural background): modeled
  as a size-skewed Gaussian mixture whose centers follow a parametric
  curve bending like the California coastline.
* **LB surrogate** — road intersections form locally regular street
  grids with varying block sizes and a few diagonal arterials: modeled
  as jittered lattice points from several overlapping grid patches plus
  points along diagonal lines.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datasets.synthetic import _as_points
from repro.geometry.point import Point

#: Population of the original California Places set (paper Appendix I).
CP_POPULATION = 62_173

#: Population of the original Long Beach set (paper Appendix I).
LB_POPULATION = 53_145


def california_places_surrogate(
    n: int = CP_POPULATION, seed: int = 0, clusters: int = 120
) -> List[Point]:
    """A CP-like 2-d set: skewed clusters along a coast-shaped band.

    :param n: number of points (default: the original CP population).
    :param seed: RNG seed; same seed → identical data.
    :param clusters: number of urban clusters in the mixture.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if clusters < 1:
        raise ValueError(f"clusters must be positive, got {clusters}")
    rng = np.random.default_rng(seed)

    # Cluster centers along a south-east-bending curve (the "coast"),
    # pushed inland by a skewed offset.
    t = rng.random(clusters)
    cx = 0.15 + 0.55 * t + 0.08 * np.sin(3.0 * np.pi * t)
    cy = 0.95 - 0.85 * t + 0.05 * np.cos(2.0 * np.pi * t)
    inland = rng.exponential(scale=0.06, size=clusters)
    cx = np.clip(cx + inland, 0.0, 1.0)
    cy = np.clip(cy, 0.0, 1.0)

    # Zipf-like cluster populations: a few metropolises, many towns.
    weights = 1.0 / np.arange(1, clusters + 1) ** 0.9
    weights /= weights.sum()

    background = int(0.1 * n)  # sparse rural scatter
    clustered = n - background
    assignment = rng.choice(clusters, size=clustered, p=weights)
    spread = rng.uniform(0.004, 0.03, size=clusters)
    points = np.empty((n, 2))
    points[:clustered, 0] = cx[assignment] + rng.normal(
        0.0, spread[assignment]
    )
    points[:clustered, 1] = cy[assignment] + rng.normal(
        0.0, spread[assignment]
    )
    points[clustered:] = rng.random((background, 2))
    return _as_points(np.clip(points, 0.0, 1.0))


def long_beach_surrogate(
    n: int = LB_POPULATION, seed: int = 0, patches: int = 9
) -> List[Point]:
    """An LB-like 2-d set: jittered street-grid intersections.

    :param n: number of points (default: the original LB population).
    :param seed: RNG seed; same seed → identical data.
    :param patches: number of grid patches with distinct block sizes.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if patches < 1:
        raise ValueError(f"patches must be positive, got {patches}")
    rng = np.random.default_rng(seed)

    arterial = int(0.05 * n)  # points along diagonal arterials
    grid_total = n - arterial
    per_patch = np.full(patches, grid_total // patches)
    per_patch[: grid_total % patches] += 1

    chunks = []
    for count in per_patch:
        # Each patch: a rectangular neighborhood with its own block size.
        origin = rng.random(2) * 0.7
        size = rng.uniform(0.2, 0.4, size=2)
        block = rng.uniform(0.004, 0.012)
        nx = max(2, int(size[0] / block))
        ny = max(2, int(size[1] / block))
        xs = rng.integers(0, nx, size=count) * block + origin[0]
        ys = rng.integers(0, ny, size=count) * block + origin[1]
        jitter = rng.normal(0.0, block * 0.05, size=(count, 2))
        chunks.append(np.column_stack([xs, ys]) + jitter)

    if arterial:
        # Diagonal arterials crossing the county.
        t = rng.random(arterial)
        slope_pick = rng.integers(0, 2, size=arterial)
        xs = t
        ys = np.where(slope_pick == 0, 0.1 + 0.8 * t, 0.9 - 0.8 * t)
        noise = rng.normal(0.0, 0.002, size=(arterial, 2))
        chunks.append(np.column_stack([xs, ys]) + noise)

    points = np.vstack(chunks)
    return _as_points(np.clip(points, 0.0, 1.0))
