"""Equivalence and unit tests for the fast Algorithm 1 implementation."""

import numpy as np
import pytest

from repro.core.algorithm import a_posteriori_reference
from repro.core.fast import (
    _window_grid_correction,
    a_posteriori_fast,
    grid_distance_sums,
)
from repro.exceptions import LabelingError


class TestGridDistanceSums:
    def test_matches_naive(self, rng):
        x = rng.standard_normal((40, 3))
        grid = np.arange(0, 40, 4)
        fast = grid_distance_sums(x, grid)
        naive = np.zeros_like(fast)
        for p in range(40):
            for f in range(3):
                naive[p, f] = np.abs(x[p, f] - x[grid, f]).sum()
        assert np.allclose(fast, naive)

    def test_full_grid(self, rng):
        x = rng.standard_normal((25, 2))
        grid = np.arange(25)
        fast = grid_distance_sums(x, grid)
        for f in range(2):
            naive = np.abs(x[:, f][:, None] - x[:, f][None, :]).sum(axis=1)
            assert np.allclose(fast[:, f], naive)


def brute_correction(x, window, step):
    """Triple loop over windows, window points and in-window grid points."""
    length, n_feat = x.shape
    out = np.zeros((length - window, n_feat))
    for i in range(length - window):
        inside = [k for k in range(0, length, step) if i <= k < i + window]
        for p in range(i, i + window):
            for k in inside:
                out[i] += np.abs(x[p] - x[k])
    return out


class TestWindowGridCorrection:
    @pytest.mark.parametrize(
        "length,window,step",
        [
            (12, 10, 4),  # L - W < s
            (30, 3, 5),  # W < s: some windows hold no grid point
            (20, 1, 3),  # W = 1: every term is |x_g - x_g|
            (25, 6, 1),  # s = 1: the grid is every point
            (40, 4, 9),  # s > 2W: most windows hold no grid point
            (15, 14, 4),  # L - W = 1: a single window
            (37, 11, 4),
            (50, 17, 3),
        ],
    )
    def test_matches_brute_force(self, rng, length, window, step):
        x = rng.standard_normal((length, 3))
        np.testing.assert_allclose(
            _window_grid_correction(x, window, step),
            brute_correction(x, window, step),
            rtol=1e-12,
        )


class TestEquivalence:
    @pytest.mark.parametrize(
        "length,window,n_feat,step",
        [
            (50, 7, 3, 4),
            (80, 10, 1, 4),
            (64, 5, 2, 1),
            (123, 11, 5, 3),
            (200, 30, 10, 4),
            (90, 40, 4, 7),
            (33, 2, 2, 4),
        ],
    )
    def test_distances_identical(self, rng, length, window, n_feat, step):
        x = rng.standard_normal((length, n_feat))
        ref = a_posteriori_reference(x, window, grid_step=step)
        fast = a_posteriori_fast(x, window, grid_step=step)
        assert fast.position == ref.position
        assert np.allclose(fast.distances, ref.distances, atol=1e-10)

    def test_equivalence_with_planted_anomaly(self, rng):
        x = rng.standard_normal((150, 6))
        x[60:75] += 5.0
        ref = a_posteriori_reference(x, 15)
        fast = a_posteriori_fast(x, 15)
        assert fast.position == ref.position == pytest.approx(60, abs=2)
        assert np.allclose(fast.distances, ref.distances)

    def test_equivalence_without_normalization(self, rng):
        x = 100.0 * rng.standard_normal((70, 3)) + 50.0
        ref = a_posteriori_reference(x, 9, normalize=False)
        fast = a_posteriori_fast(x, 9, normalize=False)
        assert np.allclose(fast.distances, ref.distances)

    def test_equivalence_with_constant_feature(self, rng):
        x = rng.standard_normal((60, 3))
        x[:, 2] = 7.0
        assert np.allclose(
            a_posteriori_fast(x, 8).distances,
            a_posteriori_reference(x, 8).distances,
        )


class TestFastValidation:
    def test_window_too_large_raises(self, rng):
        with pytest.raises(LabelingError):
            a_posteriori_fast(rng.standard_normal((10, 2)), 10)

    def test_invalid_grid_step_raises(self, rng):
        with pytest.raises(LabelingError):
            a_posteriori_fast(rng.standard_normal((50, 2)), 5, grid_step=-1)

    def test_large_instance_runs(self, rng):
        x = rng.standard_normal((1000, 10))
        x[500:560] += 3.0
        result = a_posteriori_fast(x, 60)
        assert abs(result.position - 500) <= 3
