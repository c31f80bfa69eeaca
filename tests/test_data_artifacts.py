"""Unit tests for the artifact generator (the failure-mode substrate)."""

import numpy as np
import pytest

from repro.data.artifacts import ArtifactSpec, artifact_waveforms, generate_artifact
from repro.exceptions import DataError
from repro.signals.spectral import band_power

FS = 256.0


class TestArtifactSpec:
    def test_valid_kinds(self):
        for kind in ("muscle", "movement", "rhythmic", "pop"):
            ArtifactSpec(kind=kind, start_s=0.0, duration_s=5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "blink", "start_s": 0.0, "duration_s": 1.0},
            {"kind": "muscle", "start_s": -1.0, "duration_s": 1.0},
            {"kind": "muscle", "start_s": 0.0, "duration_s": 0.0},
            {"kind": "muscle", "start_s": 0.0, "duration_s": 1.0, "amplitude_gain": 0.0},
        ],
    )
    def test_invalid_spec_raises(self, kwargs):
        with pytest.raises(DataError):
            ArtifactSpec(**kwargs)


class TestGenerateArtifact:
    def test_muscle_is_high_frequency(self, rng):
        spec = ArtifactSpec("muscle", 0.0, 10.0, amplitude_gain=5.0)
        wave = generate_artifact(spec, FS, 30.0, rng)
        assert band_power(wave, FS, (20.0, 70.0)) > band_power(wave, FS, (0.5, 8.0))

    def test_movement_is_low_frequency(self, rng):
        spec = ArtifactSpec("movement", 0.0, 10.0, amplitude_gain=5.0)
        wave = generate_artifact(spec, FS, 30.0, rng)
        assert band_power(wave, FS, (0.5, 4.0)) > band_power(wave, FS, (13.0, 70.0))

    def test_rhythmic_covers_delta_and_theta(self, rng):
        spec = ArtifactSpec("rhythmic", 0.0, 20.0, amplitude_gain=5.0)
        wave = generate_artifact(spec, FS, 30.0, rng)
        delta = band_power(wave, FS, "delta")
        theta = band_power(wave, FS, "theta")
        beta = band_power(wave, FS, "beta")
        assert delta > beta and theta > beta

    def test_pop_decays(self, rng):
        spec = ArtifactSpec("pop", 0.0, 8.0, amplitude_gain=10.0)
        wave = generate_artifact(spec, FS, 30.0, rng)
        assert abs(wave[0]) > 10 * abs(wave[-int(FS)])

    def test_peak_amplitude_matches_gain(self, rng):
        spec = ArtifactSpec("movement", 0.0, 10.0, amplitude_gain=8.0)
        wave = generate_artifact(spec, FS, 30.0, rng)
        assert np.isclose(np.abs(wave).max(), 8.0 * 30.0)

    def test_too_short_raises(self, rng):
        spec = ArtifactSpec("muscle", 0.0, 0.005)
        with pytest.raises(DataError):
            generate_artifact(spec, FS, 30.0, rng)


class TestMuscleBand:
    """The muscle burst is white noise band-limited to 20 Hz ..
    ``min(70, 0.95 * fs / 2)`` Hz by an FFT mask."""

    @pytest.mark.parametrize("fs", [256.0, 64.0])
    def test_power_lies_in_the_passband(self, rng, fs):
        spec = ArtifactSpec("muscle", 0.0, 10.0, amplitude_gain=5.0)
        wave = generate_artifact(spec, fs, 30.0, rng)
        power = np.abs(np.fft.rfft(wave)) ** 2
        freqs = np.fft.rfftfreq(wave.size, d=1.0 / fs)
        band = (freqs >= 20.0) & (freqs <= min(70.0, 0.95 * fs / 2.0))
        assert power[band].sum() >= 0.99 * power.sum()

    def test_rate_without_the_band_raises(self, rng):
        # At 40 Hz the band's upper edge (19 Hz) sits below its lower one.
        with pytest.raises(DataError, match="40 Hz"):
            generate_artifact(ArtifactSpec("muscle", 0.0, 2.0), 40.0, 30.0, rng)

    def test_burst_without_a_band_bin_raises(self, rng):
        # 4 samples at 64 Hz resolve 0, 16 and 32 Hz: none in 20-30.4 Hz.
        spec = ArtifactSpec("muscle", 0.0, 4 / 64.0)
        with pytest.raises(DataError, match="no frequency"):
            generate_artifact(spec, 64.0, 30.0, rng)


def inject(spec, n_samples, rng, n_channels=2):
    """A zero background with the burst's per-channel patches added."""
    out = np.zeros((n_channels, n_samples))
    for ch, i0, wave in artifact_waveforms(
        spec, FS, 30.0, rng, n_channels, n_samples
    ):
        out[ch, i0 : i0 + wave.size] += wave
    return out


class TestInjectArtifact:
    """Where a burst lands: :func:`artifact_waveforms`' patches."""

    def test_injection_is_local(self, rng):
        spec = ArtifactSpec("movement", 20.0, 10.0, amplitude_gain=5.0)
        out = inject(spec, int(60 * FS), rng)
        assert out[:, : int(19 * FS)].std() == 0.0
        assert out[:, int(30 * FS) :].std() == 0.0
        assert out[:, int(22 * FS) : int(28 * FS)].std() > 0.0

    def test_channel_subset(self, rng):
        spec = ArtifactSpec("movement", 5.0, 5.0, channels=(1,))
        out = inject(spec, int(30 * FS), rng)
        assert out[0].std() == 0.0
        assert out[1].std() > 0.0

    def test_out_of_bounds_raises(self, rng):
        spec = ArtifactSpec("movement", 8.0, 5.0)
        with pytest.raises(DataError, match="does not fit"):
            artifact_waveforms(spec, FS, 30.0, rng, 2, int(10 * FS))

    def test_bad_channel_raises(self, rng):
        spec = ArtifactSpec("movement", 0.0, 5.0, channels=(7,))
        with pytest.raises(DataError, match="channel"):
            artifact_waveforms(spec, FS, 30.0, rng, 2, int(30 * FS))
