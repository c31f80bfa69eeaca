"""Unit tests for the ictal waveform generator."""

import numpy as np
import pytest

from repro.data.seizures import SeizureMorphology, generate_ictal, seizure_overlay
from repro.data.sources import SignalPatch, SyntheticRecordSource
from repro.data.synthetic import BackgroundEEGModel
from repro.exceptions import DataError
from repro.signals.spectral import band_power, peak_frequency

FS = 256.0


class TestMorphology:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"onset_freq_hz": 0.0},
            {"sharpness": 0.0},
            {"sharpness": 1.5},
            {"chaos": 1.0},
            {"buildup_fraction": 0.6},
            {"amplitude_gain": -1.0},
        ],
    )
    def test_invalid_params_raise(self, kwargs):
        with pytest.raises(DataError):
            SeizureMorphology(**kwargs)


class TestGenerateIctal:
    def test_shape(self, rng):
        ict = generate_ictal(30.0, FS, SeizureMorphology(), 30.0, rng)
        assert ict.shape == (2, int(30 * FS))

    def test_amplitude_scales_with_gain(self, rng):
        m_small = SeizureMorphology(amplitude_gain=1.0)
        m_big = SeizureMorphology(amplitude_gain=4.0)
        small = generate_ictal(30.0, FS, m_small, 30.0, rng)
        big = generate_ictal(30.0, FS, m_big, 30.0, rng)
        assert big.std() > 2.5 * small.std()

    def test_power_concentrates_in_theta_delta(self, rng):
        morph = SeizureMorphology(onset_freq_hz=6.0, offset_freq_hz=2.5)
        ict = generate_ictal(60.0, FS, morph, 30.0, rng)[0]
        low = band_power(ict, FS, (0.5, 8.0))
        high = band_power(ict, FS, (13.0, 30.0))
        assert low > 3 * high

    def test_frequency_chirps_down(self, rng):
        morph = SeizureMorphology(onset_freq_hz=7.0, offset_freq_hz=2.0, chaos=0.05)
        ict = generate_ictal(60.0, FS, morph, 30.0, rng)[0]
        n = ict.size
        f_start = peak_frequency(ict[n // 8 : n // 4], FS)
        f_end = peak_frequency(ict[-n // 4 : -n // 8], FS)
        assert f_start > f_end

    def test_envelope_ramps(self, rng):
        ict = generate_ictal(40.0, FS, SeizureMorphology(), 30.0, rng)[0]
        edge = np.abs(ict[: int(1.0 * FS)]).mean()
        middle = np.abs(ict[int(15 * FS) : int(25 * FS)]).mean()
        assert middle > 3 * edge

    def test_too_short_raises(self, rng):
        with pytest.raises(DataError):
            generate_ictal(0.01, FS, SeizureMorphology(), 30.0, rng)

    def test_negative_duration_raises(self, rng):
        with pytest.raises(DataError):
            generate_ictal(-5.0, FS, SeizureMorphology(), 30.0, rng)


def place(record_s, ictal, onset_sample, crossfade_s=1.0):
    """A zero background of ``record_s`` seconds with the seizure's
    overlay added at ``onset_sample``, one patch per channel."""
    out = np.zeros((ictal.shape[0], int(record_s * FS)))
    for ch, row in enumerate(seizure_overlay(ictal, FS, crossfade_s)):
        SignalPatch(ch, onset_sample, row).apply(out, 0)
    return out


def source_with(ictal, onset_sample, n_samples, n_channels=2):
    """A record source carrying the seizure's overlay patches."""
    return SyntheticRecordSource(
        model=BackgroundEEGModel(),
        entropy=(0, 0, 0, 0),
        n_samples=n_samples,
        fs=FS,
        patches=tuple(
            SignalPatch(ch, onset_sample, row)
            for ch, row in enumerate(seizure_overlay(ictal, FS))
        ),
        n_channels=n_channels,
    )


class TestInsertSeizure:
    """Placing a discharge in a record: the cross-faded overlay, and the
    record source's check that its patches fit."""

    def test_inserted_energy(self, rng):
        ict = generate_ictal(10.0, FS, SeizureMorphology(), 30.0, rng)
        out = place(60.0, ict, int(20 * FS))
        assert out[:, : int(19 * FS)].std() == 0.0
        assert out[:, int(30 * FS) :].std() == 0.0
        assert out[:, int(22 * FS) : int(28 * FS)].std() > 0.0

    def test_inputs_not_modified(self, rng):
        ict = generate_ictal(5.0, FS, SeizureMorphology(), 30.0, rng)
        before = ict.copy()
        overlay = seizure_overlay(ict, FS)
        assert np.array_equal(ict, before)
        assert not np.shares_memory(overlay, ict)

    def test_crossfade_softens_boundaries(self, rng):
        ict = np.ones((2, int(10 * FS))) * 100.0
        out = place(60.0, ict, int(20 * FS), crossfade_s=1.0)
        onset_idx = int(20 * FS)
        # First inserted sample is faded near zero, mid-seizure is full.
        assert abs(out[0, onset_idx]) < 1.0
        assert np.isclose(out[0, onset_idx + int(5 * FS)], 100.0)

    def test_out_of_bounds_raises(self, rng):
        ict = generate_ictal(5.0, FS, SeizureMorphology(), 30.0, rng)
        with pytest.raises(DataError, match="does not fit"):
            source_with(ict, int(8 * FS), int(10 * FS))

    def test_channel_mismatch_raises(self, rng):
        ict = generate_ictal(5.0, FS, SeizureMorphology(), 30.0, rng)
        with pytest.raises(DataError, match="channel"):
            source_with(ict, 0, int(30 * FS), n_channels=1)
