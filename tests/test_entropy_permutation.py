"""Unit tests for permutation entropy (Bandt-Pompe)."""

import math

import numpy as np
import pytest

from repro.entropy.permutation import ordinal_patterns, permutation_entropy
from repro.exceptions import SignalError


class TestOrdinalPatterns:
    def test_monotone_series_single_pattern(self):
        codes = ordinal_patterns(np.arange(10.0), order=3)
        assert np.all(codes == codes[0])
        assert codes.size == 8

    def test_distinct_patterns_get_distinct_codes(self):
        up = ordinal_patterns(np.array([1.0, 2.0, 3.0]), order=3)
        down = ordinal_patterns(np.array([3.0, 2.0, 1.0]), order=3)
        assert up[0] != down[0]

    def test_code_range(self, rng):
        codes = ordinal_patterns(rng.standard_normal(500), order=4)
        assert codes.min() >= 0
        assert codes.max() < math.factorial(4)

    def test_all_patterns_reachable(self):
        # Enumerate all 3! orderings explicitly.
        seqs = [
            [1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1],
        ]
        codes = {ordinal_patterns(np.array(s, float), 3)[0] for s in seqs}
        assert len(codes) == 6

    def test_delay_reduces_vector_count(self, rng):
        x = rng.standard_normal(20)
        assert ordinal_patterns(x, 3, delay=2).size == 20 - 4

    def test_short_series_returns_empty(self):
        assert ordinal_patterns(np.ones(3), order=5).size == 0

    @pytest.mark.parametrize("order,delay", [(1, 1), (3, 0)])
    def test_invalid_params_raise(self, order, delay):
        with pytest.raises(SignalError):
            ordinal_patterns(np.arange(10.0), order, delay)

    def test_2d_raises(self):
        with pytest.raises(SignalError):
            ordinal_patterns(np.ones((3, 3)), 3)

    def test_nan_raises(self):
        # Stable argsort would rank NaN highest while every comparison
        # with NaN is false: an ordinal pattern with NaN is undefined.
        x = np.array([0.3, np.nan, 0.1, 0.7, 0.2, np.nan, 0.5, 0.9])
        with pytest.raises(SignalError, match="NaN"):
            ordinal_patterns(x, order=3)
        with pytest.raises(SignalError, match="NaN"):
            permutation_entropy(x, order=3)


class TestPermutationEntropy:
    def test_monotone_series_zero_entropy(self):
        assert permutation_entropy(np.arange(50.0), order=3) == 0.0

    def test_random_series_near_max(self, rng):
        h = permutation_entropy(rng.standard_normal(20000), order=3)
        assert h > 0.98

    def test_normalized_bounds(self, rng):
        for order in (3, 5):
            h = permutation_entropy(rng.standard_normal(300), order=order)
            assert 0.0 <= h <= 1.0

    def test_unnormalized_max_value(self, rng):
        h = permutation_entropy(rng.standard_normal(20000), order=3, normalize=False)
        assert h <= math.log2(6) + 1e-9

    def test_periodic_lower_than_random(self, rng):
        t = np.arange(1000)
        periodic = np.sin(2 * np.pi * t / 25)
        noisy = rng.standard_normal(1000)
        assert permutation_entropy(periodic, 5) < permutation_entropy(noisy, 5)

    def test_short_series_returns_zero(self):
        # Level-7 subbands of a 4 s window have 8 samples; order 7 must work.
        assert permutation_entropy(np.ones(4), order=7) == 0.0

    def test_eight_samples_order_seven(self, rng):
        h = permutation_entropy(rng.standard_normal(8), order=7)
        assert 0.0 <= h <= 1.0

    def test_invariance_to_monotone_scaling(self, rng):
        x = rng.standard_normal(200)
        h1 = permutation_entropy(x, 4)
        h2 = permutation_entropy(3.0 * x + 7.0, 4)
        assert np.isclose(h1, h2)


class TestLehmerCodes:
    """The factorial-number-system pattern encoding shared by the scalar
    path and the batched kernel."""

    def test_identity_ranks_code_zero(self):
        from repro.entropy.permutation import lehmer_codes

        ranks = np.array([[0, 1, 2, 3]])
        np.testing.assert_array_equal(lehmer_codes(ranks), [0])

    def test_reversed_ranks_code_max(self):
        from repro.entropy.permutation import lehmer_codes

        ranks = np.array([[3, 2, 1, 0]])
        np.testing.assert_array_equal(
            lehmer_codes(ranks), [math.factorial(4) - 1]
        )

    def test_bijective_over_order_three(self):
        from itertools import permutations

        from repro.entropy.permutation import lehmer_codes

        ranks = np.array(list(permutations(range(3))))
        codes = lehmer_codes(ranks)
        assert sorted(codes) == list(range(6))


class TestDelayedPatterns:
    """delay > 1 embeds every ``delay``-th sample (Sec. III-A uses 1,
    but the kernel contract gates the general case)."""

    def test_interleaved_monotone_collapses_at_delay_two(self):
        x = np.empty(32)
        x[0::2] = np.arange(16)
        x[1::2] = 100.0 + np.arange(16)
        assert permutation_entropy(x, order=3, delay=2) == 0.0
        assert permutation_entropy(x, order=3, delay=1) > 0.0

    def test_delay_two_equals_split_subsequences(self, rng):
        # Ordinal patterns at delay 2 are exactly the union of the
        # delay-1 patterns of the even- and odd-offset subsequences.
        x = rng.standard_normal(64)
        together = np.sort(ordinal_patterns(x, order=3, delay=2))
        split = np.sort(
            np.concatenate(
                [
                    ordinal_patterns(x[0::2], order=3, delay=1),
                    ordinal_patterns(x[1::2], order=3, delay=1),
                ]
            )
        )
        np.testing.assert_array_equal(together, split)
