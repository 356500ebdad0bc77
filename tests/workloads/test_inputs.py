import math
import random

import pytest

from repro.workloads.inputs import (
    clustered_values,
    diagonally_dominant_matrix,
    smooth_grid,
    smooth_series,
)


class TestSmoothSeries:
    def test_length_and_finiteness(self):
        rng = random.Random(0)
        xs = smooth_series(rng, 100)
        assert len(xs) == 100
        assert all(math.isfinite(v) for v in xs)

    def test_noise_scales_roughness(self):
        def roughness(noise):
            rng = random.Random(1)
            xs = smooth_series(rng, 200, noise_rel=noise, period=80)
            return sum(abs(xs[i + 1] - xs[i]) for i in range(199))

        assert roughness(0.3) > roughness(0.0)

    def test_deterministic_given_rng(self):
        assert smooth_series(random.Random(7), 50) == smooth_series(random.Random(7), 50)


class TestClusteredValues:
    def test_values_near_centers(self):
        rng = random.Random(0)
        centers = (1.0, 10.0, 100.0)
        xs = clustered_values(rng, 300, centers, jitter_rel=0.01)
        for x in xs:
            assert any(abs(x / c - 1.0) <= 0.011 for c in centers)

    def test_all_centers_used(self):
        rng = random.Random(0)
        xs = clustered_values(rng, 300, (1.0, 2.0), jitter_rel=0.0)
        assert {1.0, 2.0} == set(xs)


class TestGrids:
    def test_smooth_grid_shape(self):
        rng = random.Random(0)
        cells = smooth_grid(rng, 6, 9)
        assert len(cells) == 54

    def test_diagonally_dominant(self):
        rng = random.Random(0)
        n = 12
        cells = diagonally_dominant_matrix(rng, n)
        for i in range(n):
            off = sum(abs(cells[i * n + j]) for j in range(n) if j != i)
            assert abs(cells[i * n + i]) > off


class TestRoughSeries:
    def test_trendless(self):
        import random as _random

        from repro.core import slope_changes_of
        from repro.workloads.inputs import rough_series

        rng = _random.Random(0)
        values = rough_series(rng, 200)
        changes = slope_changes_of(values)
        # hostile by construction: most slope changes are violent
        violent = sum(1 for c in changes if c > 0.5)
        assert violent > len(changes) * 0.6

    def test_signs_mixed(self):
        import random as _random

        from repro.workloads.inputs import rough_series

        rng = _random.Random(1)
        values = rough_series(rng, 300)
        assert any(v > 0 for v in values) and any(v < 0 for v in values)
