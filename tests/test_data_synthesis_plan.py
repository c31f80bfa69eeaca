"""The background generator's version-3 source: the control grid spans
every sample and keeps the envelope's 3 s timescale at any rate, tiny
and folded blocks stay finite, the drawn pink bins carry white noise's
spectrum, and streaming still re-slices the same blocks."""

import numpy as np
import pytest

from repro.data import synthetic
from repro.data.sources import SyntheticRecordSource
from repro.data.synthetic import (
    CONTROL_STEP,
    GEN_BLOCK_S,
    GENERATOR_VERSION,
    BackgroundEEGModel,
    pink_noise,
)

ENTROPY = (11, 22, 33, 44)


def block_samples(fs):
    return max(2, int(round(GEN_BLOCK_S * fs)))


def envelope_calls(monkeypatch, n, fs):
    """``(m, control_fs, timescale_s)`` of each envelope one ``n``-sample
    source draws at ``fs`` Hz."""
    calls = []
    real = synthetic.smooth_envelope

    def spy(m, rng, control_fs, timescale_s):
        calls.append((m, control_fs, timescale_s))
        return real(m, rng, control_fs, timescale_s)

    monkeypatch.setattr(synthetic, "smooth_envelope", spy)
    BackgroundEEGModel()._one_source(n, fs, np.random.default_rng(0))
    return calls


class TestControlGrid:
    @pytest.mark.parametrize("fs", [1.0, 64.0, 256.0])
    @pytest.mark.parametrize("n", [2, 16, 17, 18, 33, 15360])
    def test_grid_spans_every_sample(self, monkeypatch, n, fs):
        ((m, control_fs, _),) = envelope_calls(monkeypatch, n, fs)
        step = fs / control_fs
        # The last sample lies inside the grid, and no point is spare.
        assert m - 2 < (n - 1) / step <= m - 1

    def test_full_step_at_eeg_rates(self, monkeypatch):
        for fs in (11.0, 64.0, 256.0, 512.0):
            ((_, control_fs, _),) = envelope_calls(monkeypatch, 1000, fs)
            assert fs / control_fs == CONTROL_STEP

    @pytest.mark.parametrize(
        "fs", [0.7, 1.0, 2.0, 4.0, 7.0, 8.0, 10.0, 10.7, 11.0, 64.0, 256.0]
    )
    def test_envelope_keeps_its_timescale_at_low_rates(self, monkeypatch, fs):
        # smooth_envelope's kernel is max(2, round(timescale * rate))
        # points of its own rate; on the control grid each point is
        # ``step`` samples, so the kernel must still span 3 s to within
        # half a step -- also where the two-point minimum binds.
        ((_, control_fs, timescale_s),) = envelope_calls(monkeypatch, 500, fs)
        kernel = max(2, int(round(timescale_s * control_fs)))
        step_s = 1.0 / control_fs
        assert timescale_s == 3.0
        assert abs(kernel * step_s - 3.0) <= step_s / 2 + 1e-12


class TestPinkBins:
    @pytest.mark.parametrize("n", [16, 17])
    def test_white_spectrum_including_nyquist(self, n):
        # With a flat shaping the drawn bins must be white noise's
        # spectrum: equal mean power in every non-DC bin, the real-only
        # Nyquist bin of an even length included.
        rng = np.random.default_rng(3)
        draws = np.stack([
            pink_noise(n, rng, exponent=0.0, fs=float(n), f_floor=0.5)
            for _ in range(4000)
        ])
        power = (np.abs(np.fft.rfft(draws, axis=1)) ** 2).mean(axis=0)
        assert power[0] < 1e-20
        assert np.allclose(power[1:] / power[1:].mean(), 1.0, atol=0.1)

    def test_block_and_tail_lengths_share_the_contract(self):
        for n in (block_samples(256.0), 1000, 2, 3):
            x = pink_noise(n, np.random.default_rng(n), fs=256.0)
            assert np.isclose(x.std(), 1.0)
            assert abs(x.mean()) < 1e-12


class TestTinyBlocks:
    @pytest.mark.parametrize("fs", [1.0, 64.0, 256.0])
    def test_tiny_records_generate_finite_output(self, fs):
        model = BackgroundEEGModel(line_noise_uv=5.0)
        for n in range(2, 18):
            (block,) = model.iter_blocks(n, fs, ENTROPY)
            assert block.shape == (2, n)
            assert np.isfinite(block).all(), (fs, n)

    def test_folded_block(self):
        # A 1-sample remainder folds into the previous block, which is
        # then one sample longer than a full block.
        fs = 64.0
        n = block_samples(fs) + 1
        (block,) = BackgroundEEGModel().iter_blocks(n, fs, ENTROPY)
        assert block.shape == (2, n)
        assert np.isfinite(block).all()
        assert np.allclose(block.std(axis=1), 30.0)


class TestChunkInvariance:
    @pytest.mark.parametrize(
        "n_blocks, tail", [(2, 1000), (1, 1), (3, 0)],
        ids=["tail-block", "folded-sample", "whole-blocks"],
    )
    @pytest.mark.parametrize("chunk_s", [0.5, 7.3, 60.0, 600.0])
    def test_streaming_re_slices_the_same_blocks(self, n_blocks, tail, chunk_s):
        assert GENERATOR_VERSION == 3
        fs = 64.0
        n = n_blocks * block_samples(fs) + tail
        model = BackgroundEEGModel(line_noise_uv=5.0)
        source = SyntheticRecordSource(model, ENTROPY, n, fs)
        blocks = np.concatenate(list(model.iter_blocks(n, fs, ENTROPY)), axis=1)
        streamed = np.concatenate(list(source.iter_chunks(chunk_s)), axis=1)
        assert np.array_equal(streamed, blocks)
