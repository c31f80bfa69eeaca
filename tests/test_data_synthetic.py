"""Unit tests for the background EEG generator."""

import numpy as np
import pytest

from repro.data.synthetic import (
    BackgroundEEGModel,
    draw_block_entropy,
    pink_noise,
    smooth_envelope,
)
from repro.exceptions import DataError
from repro.signals.spectral import band_power

FS = 256.0


def background(model, duration_s, rng, n_channels=2):
    """The background of a ``duration_s`` record: its concatenated
    generation blocks under an entropy key drawn from ``rng``."""
    blocks = model.iter_blocks(
        int(round(duration_s * FS)), FS, draw_block_entropy(rng), n_channels
    )
    return np.concatenate(list(blocks), axis=1)


class TestPinkNoise:
    def test_unit_variance(self, rng):
        x = pink_noise(int(60 * FS), rng, fs=FS)
        assert np.isclose(x.std(), 1.0)

    def test_spectral_slope_negative(self, rng):
        # Power in low band should exceed equal-width high band for 1/f.
        x = pink_noise(int(120 * FS), rng, fs=FS)
        low = band_power(x, FS, (1.0, 11.0))
        high = band_power(x, FS, (60.0, 70.0))
        assert low > 3 * high

    def test_no_dc(self, rng):
        x = pink_noise(4096, rng)
        assert abs(x.mean()) < 0.05

    def test_too_short_raises(self, rng):
        with pytest.raises(DataError):
            pink_noise(1, rng)


class TestSmoothEnvelope:
    def test_bounds(self, rng):
        env = smooth_envelope(int(30 * FS), rng, FS)
        assert env.min() >= 0.0
        assert env.max() <= 1.0

    def test_slow_variation(self, rng):
        env = smooth_envelope(int(30 * FS), rng, FS, timescale_s=4.0)
        # Per-sample increments must be small for a 4 s timescale.
        assert np.max(np.abs(np.diff(env))) < 0.05

    def test_invalid_timescale_raises(self, rng):
        with pytest.raises(DataError):
            smooth_envelope(100, rng, FS, timescale_s=0.0)

    @pytest.mark.parametrize(
        "n, fs, timescale_s",
        [
            (500, 1.0, 2.0),  # kernel 2
            (int(60 * FS), FS, 3.0),  # kernel 768, one generation block
            (100, FS, 3.0),  # n < kernel
            (1, FS, 3.0),  # a single sample
        ],
        ids=["kernel-2", "kernel-768", "n-below-kernel", "n-1"],
    )
    def test_matches_direct_convolution(self, n, fs, timescale_s):
        # The running-sum form must reproduce the double box filter it
        # replaced, written out here with np.convolve.
        env = smooth_envelope(n, np.random.default_rng(7), fs, timescale_s)
        kernel = max(2, int(round(timescale_s * fs)))
        raw = np.random.default_rng(7).standard_normal(n + 2 * kernel)
        box = np.ones(kernel) / kernel
        sm = np.convolve(np.convolve(raw, box, mode="valid"), box, mode="valid")[:n]
        sm = (sm - sm.mean()) / (sm.std() + 1e-12)
        expected = 1.0 / (1.0 + np.exp(-2.0 * sm))
        assert env.shape == (n,)
        assert np.allclose(env, expected, rtol=0.0, atol=1e-12)


class TestBackgroundModel:
    def test_shape_and_amplitude(self, rng):
        model = BackgroundEEGModel(amplitude_uv=30.0)
        data = background(model, 20.0, rng)
        assert data.shape == (2, int(20 * FS))
        assert np.isclose(data.std(axis=1), 30.0, rtol=0.05).all()

    def test_channels_partially_correlated(self, rng):
        model = BackgroundEEGModel(shared_fraction=0.5)
        data = background(model, 60.0, rng)
        corr = np.corrcoef(data)[0, 1]
        assert 0.1 < corr < 0.9

    def test_zero_shared_fraction_decorrelates(self, rng):
        model = BackgroundEEGModel(shared_fraction=0.0)
        data = background(model, 60.0, rng)
        assert abs(np.corrcoef(data)[0, 1]) < 0.15

    def test_alpha_band_present(self, rng):
        model = BackgroundEEGModel(alpha_fraction=1.5)
        weak = BackgroundEEGModel(alpha_fraction=0.0)
        strong_data = background(model, 60.0, rng)[0]
        weak_data = background(weak, 60.0, rng)[0]
        strong_rel = band_power(strong_data, FS, "alpha") / strong_data.var()
        weak_rel = band_power(weak_data, FS, "alpha") / weak_data.var()
        assert strong_rel > weak_rel

    def test_line_noise_injection(self, rng):
        model = BackgroundEEGModel(line_noise_uv=20.0)
        data = background(model, 20.0, rng)[0]
        assert band_power(data, FS, (49.0, 51.0)) > band_power(data, FS, (44.0, 46.0))

    def test_n_channels(self, rng):
        data = background(BackgroundEEGModel(), 5.0, rng, n_channels=4)
        assert data.shape[0] == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"amplitude_uv": 0.0},
            {"shared_fraction": 1.5},
            {"alpha_fraction": -0.1},
        ],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(DataError):
            BackgroundEEGModel(**kwargs)

    def test_invalid_duration_raises(self, rng):
        with pytest.raises(DataError):
            background(BackgroundEEGModel(), 0.0, rng)
