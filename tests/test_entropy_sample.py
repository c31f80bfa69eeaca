"""Unit tests for sample and approximate entropy."""

import numpy as np
import pytest

from repro.entropy.sample import (
    approximate_entropy,
    sample_entropy,
    tolerance_std,
)
from repro.exceptions import SignalError


class TestSampleEntropy:
    def test_regular_signal_low_entropy(self):
        x = np.tile([1.0, 2.0], 100)
        assert sample_entropy(x, m=2, k=0.2) < 0.1

    def test_random_higher_than_periodic(self, rng):
        periodic = np.sin(2 * np.pi * np.arange(200) / 20)
        noise = rng.standard_normal(200)
        assert sample_entropy(noise, m=2, k=0.2) > sample_entropy(
            periodic, m=2, k=0.2
        )

    def test_constant_series_zero(self):
        assert sample_entropy(np.full(50, 2.5)) == 0.0

    def test_short_series_zero(self):
        assert sample_entropy(np.array([1.0, 2.0, 3.0]), m=2) == 0.0

    def test_no_matches_returns_finite_bound(self):
        # Strictly exploding series: no template matches at tolerance.
        x = np.array([2.0**i for i in range(12)])
        h = sample_entropy(x, m=2, k=0.1)
        assert np.isfinite(h) and h > 0

    def test_larger_tolerance_not_higher_entropy(self, rng):
        x = rng.standard_normal(150)
        h_tight = sample_entropy(x, m=2, k=0.2)
        h_loose = sample_entropy(x, m=2, k=0.35)
        assert h_loose <= h_tight + 1e-9

    def test_absolute_tolerance_override(self, rng):
        x = rng.standard_normal(100)
        assert np.isclose(
            sample_entropy(x, m=2, r=0.2 * x.std()),
            sample_entropy(x, m=2, k=0.2),
        )

    def test_paper_subband_size(self, rng):
        # Level-6 subband of a 4 s window: 16 coefficients.
        h = sample_entropy(rng.standard_normal(16), m=2, k=0.2)
        assert np.isfinite(h)

    @pytest.mark.parametrize("m", [0, -1])
    def test_invalid_m_raises(self, m, rng):
        with pytest.raises(SignalError):
            sample_entropy(rng.standard_normal(50), m=m)

    def test_2d_raises(self):
        with pytest.raises(SignalError):
            sample_entropy(np.ones((5, 5)))


class TestApproximateEntropy:
    def test_always_finite(self, rng):
        for n in (10, 16, 64, 200):
            h = approximate_entropy(rng.standard_normal(n), m=2, k=0.2)
            assert np.isfinite(h)

    def test_regular_lower_than_random(self, rng):
        periodic = np.sin(2 * np.pi * np.arange(300) / 30)
        noise = rng.standard_normal(300)
        assert approximate_entropy(periodic, 2, 0.2) < approximate_entropy(
            noise, 2, 0.2
        )

    def test_constant_zero(self):
        assert approximate_entropy(np.full(64, 1.0)) == 0.0

    def test_short_series_zero(self):
        assert approximate_entropy(np.array([1.0, 2.0])) == 0.0

    def test_invalid_m_raises(self, rng):
        with pytest.raises(SignalError):
            approximate_entropy(rng.standard_normal(50), m=0)


class TestEmbeddingIndices:
    """The shared embedding grid both the scalar path and the batched
    kernels build their template vectors from."""

    def test_grid_values(self):
        from repro.entropy.sample import embedding_indices

        np.testing.assert_array_equal(
            embedding_indices(5, 2), [[0, 1], [1, 2], [2, 3], [3, 4]]
        )

    def test_delay_spaces_columns(self):
        from repro.entropy.sample import embedding_indices

        grid = embedding_indices(7, 3, delay=2)
        np.testing.assert_array_equal(grid, [[0, 2, 4], [1, 3, 5], [2, 4, 6]])

    def test_too_short_series_is_empty(self):
        from repro.entropy.sample import embedding_indices

        assert embedding_indices(2, 3).shape == (0, 3)

    def test_scalar_entropy_consistent_with_grid(self, rng):
        # sample_entropy's own embedding must be x[grid]: recomputing
        # through the public helper reproduces the value exactly.
        from repro.entropy.sample import _count_matches, embedding_indices

        x = rng.standard_normal(64)
        r = 0.2 * float(np.std(x))
        b = _count_matches(x[embedding_indices(x.size, 2)], r)
        a = _count_matches(x[embedding_indices(x.size, 3)], r)
        assert a > 0 and b > 0
        assert sample_entropy(x, m=2, k=0.2) == -np.log(a / b)


class TestToleranceStd:
    def test_equals_np_std_on_ordinary_rows(self, rng):
        x = rng.standard_normal((5, 64)) * [[1e-300], [1.0], [1e3], [1e150], [0.0]]
        np.testing.assert_array_equal(tolerance_std(x), np.std(x, axis=1))
        assert tolerance_std(x[1]) == np.std(x[1])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_is_rescaled_exactly(self, rng):
        y = rng.standard_normal((3, 64))
        big = y * 2.0**996
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.std(big, axis=1)).any()
        np.testing.assert_array_equal(
            tolerance_std(big), np.ldexp(np.std(y, axis=1), 996)
        )
        assert tolerance_std(big[0]) == np.ldexp(np.std(y[0]), 996)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_rows_are_left_alone(self):
        x = np.array([[1.0, np.inf, 2.0], [1.0, 2.0, 4.0]])
        with np.errstate(invalid="ignore"):
            sd = tolerance_std(x)
        assert np.isnan(sd[0]) and sd[1] == np.std(x[1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entropy", [sample_entropy, approximate_entropy])
    def test_entropy_invariant_to_power_of_two_scale(self, entropy, rng):
        y = rng.standard_normal(96)
        assert entropy(y * 2.0**996) == entropy(y)
        assert entropy(y * 2.0**-40) == entropy(y)
