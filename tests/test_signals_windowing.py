"""Unit tests for the sliding-window machinery."""

import numpy as np
import pytest

from repro.exceptions import SignalError
from repro.signals.windowing import WindowSpec, sliding_windows, window_count, window_matrix

FS = 256.0


class TestWindowSpec:
    def test_paper_defaults_give_75_percent_overlap(self):
        spec = WindowSpec(4.0, 1.0)
        assert np.isclose(spec.overlap, 0.75)

    def test_sample_conversions(self):
        spec = WindowSpec(4.0, 1.0)
        assert spec.length_samples(FS) == 1024
        assert spec.step_samples(FS) == 256

    def test_n_windows_formula(self):
        spec = WindowSpec(4.0, 1.0)
        # 10 s of signal -> windows starting at 0..6 s = 7 windows.
        assert spec.n_windows(int(10 * FS), FS) == 7

    def test_n_windows_short_signal(self):
        spec = WindowSpec(4.0, 1.0)
        assert spec.n_windows(100, FS) == 0

    def test_time_index_roundtrip(self):
        spec = WindowSpec(4.0, 1.0)
        for i in (0, 5, 99):
            assert spec.window_index_for_time(spec.window_start_time(i)) == i

    @pytest.mark.parametrize("length,step", [(0.0, 1.0), (4.0, 0.0), (2.0, 3.0)])
    def test_invalid_geometry_raises(self, length, step):
        with pytest.raises(SignalError):
            WindowSpec(length, step)

    @pytest.mark.parametrize(
        "length,step",
        [(float("nan"), 1.0), (float("inf"), 1.0), (4.0, float("nan"))],
    )
    def test_non_finite_geometry_raises_signal_error(self, length, step):
        # Accepted once, these failed later with a bare ValueError or
        # OverflowError when resolved against a sampling rate.
        with pytest.raises(SignalError, match="finite and positive"):
            WindowSpec(length, step)


class TestIteration:
    def test_windows_cover_expected_ranges(self):
        spec = WindowSpec(4.0, 1.0)
        wins = list(sliding_windows(int(8 * FS), FS, spec))
        assert len(wins) == 5
        assert wins[0] == (0, 0, 1024)
        assert wins[-1] == (4, 4 * 256, 4 * 256 + 1024)

    def test_window_count_helper(self):
        spec = WindowSpec(2.0, 0.5)
        assert window_count(int(6 * FS), FS, spec) == 9


class TestWindowMatrix:
    def test_matrix_matches_manual_slices(self, rng):
        x = rng.standard_normal(int(10 * FS))
        spec = WindowSpec(4.0, 1.0)
        mat = window_matrix(x, FS, spec)
        assert mat.shape == (7, 1024)
        for i in range(7):
            start = i * 256
            assert np.array_equal(mat[i], x[start : start + 1024])

    def test_empty_for_short_signal(self, rng):
        mat = window_matrix(rng.standard_normal(10), FS, WindowSpec(4.0, 1.0))
        assert mat.shape == (0, 1024)

    def test_2d_raises(self):
        with pytest.raises(SignalError):
            window_matrix(np.ones((2, 100)), FS, WindowSpec(1.0, 1.0))
