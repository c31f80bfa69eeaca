"""Unit tests for Rényi, Shannon and spectral entropies."""

import math

import numpy as np
import pytest

from repro.entropy.renyi import renyi_entropy
from repro.entropy.shannon import shannon_entropy, spectral_entropy
from repro.exceptions import SignalError


class TestRenyi:
    def test_uniform_data_near_max(self, rng):
        x = rng.uniform(0, 1, 100000)
        h = renyi_entropy(x, alpha=2.0, bins=16)
        assert h > 0.95 * math.log2(16)

    def test_constant_zero(self):
        assert renyi_entropy(np.full(100, 3.3)) == 0.0

    def test_empty_zero(self):
        assert renyi_entropy(np.array([])) == 0.0

    def test_alpha_one_equals_shannon(self, rng):
        x = rng.standard_normal(5000)
        assert np.isclose(
            renyi_entropy(x, alpha=1.0, bins=16), shannon_entropy(x, bins=16)
        )

    def test_renyi_decreasing_in_alpha(self, rng):
        x = rng.standard_normal(5000)
        h1 = renyi_entropy(x, alpha=0.5)
        h2 = renyi_entropy(x, alpha=2.0)
        h3 = renyi_entropy(x, alpha=5.0)
        assert h1 >= h2 >= h3

    def test_normalized_in_unit_interval(self, rng):
        h = renyi_entropy(rng.standard_normal(500), alpha=2.0, normalize=True)
        assert 0.0 <= h <= 1.0

    @pytest.mark.parametrize("alpha,bins", [(-1.0, 16), (2.0, 1)])
    def test_invalid_params_raise(self, alpha, bins, rng):
        with pytest.raises(SignalError):
            renyi_entropy(rng.standard_normal(100), alpha=alpha, bins=bins)


class TestShannon:
    def test_two_level_signal_one_bit(self):
        x = np.tile([0.0, 1.0], 500)
        assert np.isclose(shannon_entropy(x, bins=2), 1.0)

    def test_constant_zero(self):
        assert shannon_entropy(np.full(64, 7.0)) == 0.0

    def test_bounded_by_log_bins(self, rng):
        h = shannon_entropy(rng.standard_normal(1000), bins=32)
        assert h <= math.log2(32)

    @pytest.mark.parametrize(
        "row, expected",
        [
            # A range too small for 16 finite-width bins (np.histogram
            # raises on it) counts as constant; a normal row is
            # unaffected.
            ([5e-324, 0.0, 0.0, 0.0], 0.0),
            ([1.0, 2.0, 3.0, 4.0], 2.0),
            # A wider spread, still below 16 finite-width bins.
            ([0.0, 24 * 5e-324, 0.0, 0.0], 0.0),
        ],
        ids=["subnormal", "normal", "wider-subnormal"],
    )
    def test_subnormal_spread_is_zero(self, row, expected):
        assert shannon_entropy(np.array(row)) == expected

    def test_invalid_bins_raises(self, rng):
        with pytest.raises(SignalError):
            shannon_entropy(rng.standard_normal(100), bins=1)


class TestSpectralEntropy:
    def test_white_noise_near_one(self, rng):
        h = spectral_entropy(rng.standard_normal(4096), fs=256.0)
        assert h > 0.85

    def test_pure_tone_low(self):
        t = np.arange(0, 8, 1 / 256.0)
        h = spectral_entropy(np.sin(2 * np.pi * 10 * t), fs=256.0)
        assert h < 0.5

    def test_tone_lower_than_noise(self, rng):
        t = np.arange(0, 4, 1 / 256.0)
        tone = np.sin(2 * np.pi * 6 * t)
        assert spectral_entropy(tone, 256.0) < spectral_entropy(
            rng.standard_normal(t.size), 256.0
        )

    def test_zero_signal(self):
        assert spectral_entropy(np.zeros(256), 256.0) == 0.0


class TestDegenerateDistributions:
    """Constant and near-constant inputs must stay finite — never NaN —
    for every alpha, including the Shannon limit."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_constant_defined_for_all_alphas(self, alpha):
        h = renyi_entropy(np.full(128, 2.5), alpha=alpha)
        assert h == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_normalized_constant_still_zero(self, alpha):
        assert renyi_entropy(np.full(64, -3.0), alpha=alpha, normalize=True) == 0.0

    def test_two_spikes_on_flat_baseline_finite(self):
        x = np.zeros(64)
        x[10] = 5.0
        x[40] = -5.0
        for alpha in (0.5, 1.0, 2.0):
            assert np.isfinite(renyi_entropy(x, alpha=alpha))
        assert np.isfinite(shannon_entropy(x))

    def test_single_sample_zero(self):
        assert shannon_entropy(np.array([4.2])) == 0.0
        assert renyi_entropy(np.array([4.2]), alpha=2.0) == 0.0
