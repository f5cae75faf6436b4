"""Synthetic data sets: uniform (SU) and Gaussian (SG).

Both generators are deterministic in their seed and return points as
tuples of floats in the unit hyper-cube — the address-space convention
used throughout the experiments.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geometry.point import Point


def _as_points(array: np.ndarray) -> List[Point]:
    # tolist() yields the same Python floats as float() per coordinate.
    return list(map(tuple, array.tolist()))


def uniform(n: int, dims: int, seed: int = 0) -> List[Point]:
    """The SU set: *n* points uniform in ``[0, 1]^dims``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if dims < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    return _as_points(rng.random((n, dims)))


def gaussian(
    n: int, dims: int, seed: int = 0, sigma: float = 0.15
) -> List[Point]:
    """The SG set: *n* points from a normal blob centered in the cube.

    Coordinates are drawn from ``N(0.5, sigma)`` per axis and clipped to
    ``[0, 1]``, matching the single dense blob of the paper's Figure 15.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if dims < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    cloud = rng.normal(loc=0.5, scale=sigma, size=(n, dims))
    return _as_points(np.clip(cloud, 0.0, 1.0))
