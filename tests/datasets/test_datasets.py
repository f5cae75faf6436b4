"""Tests for the dataset generators."""

import statistics

import pytest

from repro.datasets import (
    CP_POPULATION,
    LB_POPULATION,
    california_places_surrogate,
    gaussian,
    long_beach_surrogate,
    sample_queries,
    uniform,
)


class TestUniform:
    def test_shape(self):
        data = uniform(100, 3, seed=1)
        assert len(data) == 100
        assert all(len(p) == 3 for p in data)
        assert all(0.0 <= c <= 1.0 for p in data for c in p)

    def test_deterministic(self):
        assert uniform(50, 2, seed=9) == uniform(50, 2, seed=9)
        assert uniform(50, 2, seed=9) != uniform(50, 2, seed=10)

    def test_roughly_uniform_mean(self):
        data = uniform(5000, 1, seed=2)
        mean = statistics.fmean(p[0] for p in data)
        assert mean == pytest.approx(0.5, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            uniform(-1, 2)
        with pytest.raises(ValueError, match="dims"):
            uniform(10, 0)

    def test_empty(self):
        assert uniform(0, 2) == []


class TestGaussian:
    def test_shape_and_clipping(self):
        data = gaussian(500, 4, seed=3, sigma=0.4)
        assert len(data) == 500
        assert all(0.0 <= c <= 1.0 for p in data for c in p)

    def test_concentrated_around_center(self):
        data = gaussian(5000, 2, seed=4)
        mean_x = statistics.fmean(p[0] for p in data)
        assert mean_x == pytest.approx(0.5, abs=0.02)
        # Gaussian data is denser near the center than uniform data.
        near_center = sum(
            1 for p in data if abs(p[0] - 0.5) < 0.15 and abs(p[1] - 0.5) < 0.15
        )
        assert near_center / len(data) > 0.3

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian(10, 2, sigma=0.0)


class TestPointConversion:
    """``_as_points`` hands numpy rows over as tuples of Python floats."""

    @pytest.mark.parametrize("seed", [0, 11000])
    @pytest.mark.parametrize("dims", [1, 2, 10])
    def test_same_points_as_a_per_coordinate_conversion(self, seed, dims):
        import numpy as np

        rng = np.random.default_rng(seed)
        expected_uniform = [
            tuple(float(c) for c in row) for row in rng.random((257, dims))
        ]
        rng = np.random.default_rng(seed)
        cloud = rng.normal(loc=0.5, scale=0.15, size=(257, dims))
        expected_gaussian = [
            tuple(float(c) for c in row) for row in np.clip(cloud, 0.0, 1.0)
        ]
        for got, expected in (
            (uniform(257, dims, seed=seed), expected_uniform),
            (gaussian(257, dims, seed=seed), expected_gaussian),
        ):
            assert got == expected
            assert all(type(p) is tuple and len(p) == dims for p in got)
            assert all(type(c) is float for p in got for c in p)


class TestSurrogates:
    def test_default_populations_match_paper(self):
        # Construct tiny versions to keep the test fast, but check the
        # documented defaults equal the paper's counts.
        assert CP_POPULATION == 62_173
        assert LB_POPULATION == 53_145

    def test_cp_shape(self):
        data = california_places_surrogate(n=2000, seed=5)
        assert len(data) == 2000
        assert all(len(p) == 2 for p in data)
        assert all(0.0 <= c <= 1.0 for p in data for c in p)

    def test_cp_is_clustered(self):
        """The CP surrogate must be far more clustered than uniform: the
        average nearest-neighbor distance is much smaller."""
        import math

        def mean_nn(points):
            total = 0.0
            for i, p in enumerate(points):
                total += min(
                    math.dist(p, q)
                    for j, q in enumerate(points)
                    if i != j
                )
            return total / len(points)

        cp = california_places_surrogate(n=300, seed=6)
        uni = uniform(300, 2, seed=6)
        assert mean_nn(cp) < 0.6 * mean_nn(uni)

    def test_lb_shape_and_grid_structure(self):
        data = long_beach_surrogate(n=3000, seed=7)
        assert len(data) == 3000
        assert all(0.0 <= c <= 1.0 for p in data for c in p)
        # Grid structure: many x-coordinates repeat (same street).
        from collections import Counter

        rounded = Counter(round(p[0], 3) for p in data)
        assert rounded.most_common(1)[0][1] > 5

    @pytest.mark.parametrize("generator, expected", [
        (california_places_surrogate,
         "8bb6521b97e4e9f5b7dae50d2be418255767a3c7e4edae2e01a3f756cfc99ff8"),
        (long_beach_surrogate,
         "aa23073f8ecd5679b1bc096efa4e107bee46e259c0ecdade08702108dbbef592"),
    ])
    def test_points_are_pinned_python_floats(self, generator, expected):
        """Every coordinate, bit for bit, as tuples of Python floats."""
        import hashlib

        data = generator(1000, seed=12)
        assert all(type(p) is tuple and len(p) == 2 for p in data)
        assert all(type(c) is float for p in data for c in p)
        assert hashlib.sha256(
            repr([c.hex() for p in data for c in p]).encode()
        ).hexdigest() == expected

    def test_deterministic(self):
        assert california_places_surrogate(500, seed=1) == (
            california_places_surrogate(500, seed=1)
        )
        assert long_beach_surrogate(500, seed=1) == (
            long_beach_surrogate(500, seed=1)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            california_places_surrogate(-5)
        with pytest.raises(ValueError, match="n must"):
            long_beach_surrogate(-5)


class TestSampleQueries:
    def test_follows_data(self):
        data = gaussian(1000, 2, seed=8)
        queries = sample_queries(data, 50, seed=9, jitter=0.01)
        assert len(queries) == 50
        # Every query is within jitter distance of some data point in
        # each coordinate; cheap necessary check: inside the unit cube
        # expanded by the jitter.
        assert all(-0.01 <= c <= 1.01 for q in queries for c in q)

    def test_deterministic(self):
        data = uniform(100, 2, seed=1)
        assert sample_queries(data, 10, seed=2) == sample_queries(
            data, 10, seed=2
        )

    def test_zero_count(self):
        assert sample_queries([(0.5, 0.5)], 0) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_queries([(0.0,)], -1)
        with pytest.raises(ValueError, match="empty"):
            sample_queries([], 5)
