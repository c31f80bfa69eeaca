"""Sliding-view DWT: overlapping windows decomposed once as a stream.

``WaveletPlan.details_batch`` decomposes a batch whose rows are one
sliding view of a single buffer as one stream, and computes only the
wrapped coefficients per window (see
:class:`repro.kernels.plans.WaveletPlan`).  The batteries of
``test_kernels_parity.py`` feed contiguous, independent windows, so
they never reach that path.  This suite feeds the views that
``window_tensor`` and ``StreamingFeatureExtractor`` hand over and checks
every detail level bitwise against the per-window path (the same
windows copied contiguous) and against the reference backend.  Layouts
outside the sliding form's rule must fall back and still match.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.kernels
from repro.core.streaming import StreamingFeatureExtractor
from repro.data.records import EEGRecord
from repro.exceptions import FeatureError
from repro.features.extraction import extract_features, window_tensor
from repro.features.paper10 import Paper10FeatureExtractor
from repro.kernels import get_kernel, wavelet_plan
from repro.kernels.plans import _SLIDING_MIN_ROWS, WaveletPlan
from repro.signals.windowing import WindowSpec

FS = 256.0
#: The paper's 4 s window at 256 Hz.
N = 1024


def sliding(stream: np.ndarray, n: int, hop: int) -> np.ndarray:
    """Every ``n``-sample row of ``stream`` starting ``hop`` apart, as a
    view."""
    return np.lib.stride_tricks.sliding_window_view(stream, n)[::hop]


def record_signal(seconds: float, seed: int = 2019) -> np.ndarray:
    """Two channels of seeded EEG-like signal: noise, a theta tone and
    a slow drift."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * FS)) / FS
    tone = 40.0 * np.sin(2 * np.pi * 6.0 * t) + 15.0 * np.sin(2 * np.pi * 0.3 * t)
    return rng.standard_normal((2, t.size)) * 30.0 + tone


def assert_levels_bitwise(actual: dict, expected: dict) -> None:
    assert set(actual) == set(expected)
    for lvl in expected:
        got, want = actual[lvl], expected[lvl]
        assert got.shape == want.shape, lvl
        assert got.flags.c_contiguous, lvl
        np.testing.assert_array_equal(
            got.view(np.int64), np.asarray(want).view(np.int64),
            err_msg=f"level {lvl}",
        )


@contextmanager
def sliding_calls():
    """A spy counting the batches that take the sliding form."""
    with mock.patch.object(
        WaveletPlan, "_sliding_details", autospec=True,
        side_effect=WaveletPlan._sliding_details,
    ) as spy:
        yield spy


def check(windows: np.ndarray, level: int, slides: bool, wavelet: int = 4) -> dict:
    """Decompose ``windows`` and require the per-window path's bits and
    the reference's; ``slides`` says whether the sliding form must run."""
    plan = wavelet_plan(wavelet, level)
    with sliding_calls() as spy:
        details = plan.details_batch(windows)
    assert spy.call_count == int(slides)
    contiguous = np.ascontiguousarray(windows, dtype=float)
    assert_levels_bitwise(details, plan.details_batch(contiguous))
    reference = get_kernel("dwt_details", prefer="reference")
    assert_levels_bitwise(details, reference(contiguous, level=level, wavelet=wavelet))
    return details


def slides_at(rows: int, n: int, hop: int, level: int) -> bool:
    """The sliding form's rule for a float64 sliding view."""
    block = 1 << level
    return (
        rows >= _SLIDING_MIN_ROWS and 0 < hop < n
        and hop % block == 0 and n % block == 0
    )


class TestWindowTensor:
    """The F8T4 rows of ``window_tensor``, the whole-record path."""

    @pytest.mark.parametrize("level", range(1, 9))
    @pytest.mark.parametrize("hop", (128, 256, 512))
    @pytest.mark.parametrize("rows", (7, 8, 9, 57))
    def test_every_level_matches(self, rows, hop, level):
        spec = WindowSpec(length_s=4.0, step_s=hop / FS)
        data = record_signal(((rows - 1) * hop + N + hop // 2) / FS, seed=rows)
        n_win = spec.n_windows(data.shape[1], FS)
        assert n_win == rows
        windows = window_tensor(data, FS, spec, n_win)[:, 1]
        check(windows, level, slides_at(rows, N, hop, level))

    def test_whole_record(self):
        # ~800 windows: a 14 min record through extract_features.
        data = record_signal(803.0)
        spec = WindowSpec(length_s=4.0, step_s=1.0)
        n_win = spec.n_windows(data.shape[1], FS)
        assert n_win == 800
        check(window_tensor(data, FS, spec, n_win)[:, 1], 7, slides=True)

    def test_features_equal_the_window_loop(self):
        extractor = Paper10FeatureExtractor()
        record = EEGRecord(data=record_signal(90.0), fs=FS)
        with sliding_calls() as spy:
            batch = extract_features(record, extractor).values
        assert spy.call_count == 1
        spec = WindowSpec(length_s=4.0, step_s=1.0)
        windows = window_tensor(record.data, FS, spec, batch.shape[0])
        looped = np.stack([extractor.extract_window(w, FS) for w in windows])
        np.testing.assert_array_equal(batch.view(np.int64), looped.view(np.int64))


class TestStreaming:
    """The views ``StreamingFeatureExtractor.push`` hands over: each
    call checked as it happens, while its buffer is live."""

    @pytest.mark.parametrize("chunk_s", (0.5, 7.3, 60.0, None), ids=str)
    def test_pushed_views_match(self, chunk_s):
        signal = record_signal(300.0, seed=7)
        calls = []

        def checked_dwt(windows, level=7, wavelet=4):
            calls.append(windows.shape[0])
            return check(windows, level, slides_at(windows.shape[0], N, 256, level))

        def resolving(name, prefer=None):
            if name == "dwt_details" and prefer is None:
                return checked_dwt
            return get_kernel(name, prefer)

        step = signal.shape[1] if chunk_s is None else int(chunk_s * FS)
        extractor = Paper10FeatureExtractor()
        stream = StreamingFeatureExtractor(extractor, fs=FS)
        with mock.patch.object(repro.kernels, "get_kernel", resolving):
            rows = [
                stream.push(signal[:, pos : pos + step])
                for pos in range(0, signal.shape[1], step)
            ]
        assert sum(calls) == stream.windows_emitted == 297
        if chunk_s == 7.3:
            # Pushes of 7 and 8 windows: both sides of the threshold.
            assert {7, 8} <= set(calls)
        batch = extract_features(EEGRecord(data=signal, fs=FS), extractor).values
        streamed = np.concatenate(rows)
        np.testing.assert_array_equal(streamed.view(np.int64), batch.view(np.int64))


class TestFallbacks:
    """Batches outside the sliding form's rule run per window."""

    @pytest.fixture()
    def stream(self):
        return record_signal(60.0)[1]

    def test_hop_not_a_multiple_of_the_level_block(self, stream):
        for hop in (192, 100):
            check(sliding(stream, N, hop)[:57], level=7, slides=False)
        # The same hop qualifies at a level whose block divides it.
        check(sliding(stream, N, 192)[:57], level=6, slides=True)

    def test_window_length_not_divisible(self, stream):
        check(sliding(stream, 1000, 256)[:40], level=7, slides=False)
        check(sliding(stream, 1000, 256)[:40], level=3, slides=True)

    def test_float32_input(self, stream):
        windows = sliding(stream.astype(np.float32), N, 256)[:40]
        check(windows, level=7, slides=False)

    @pytest.mark.parametrize("hop", (N, 2 * N))
    def test_non_overlapping_rows(self, stream, hop):
        windows = sliding(stream, N, hop)
        assert windows.shape[0] >= _SLIDING_MIN_ROWS
        check(windows, level=7, slides=False)

    def test_reversed_rows(self, stream):
        check(sliding(stream, N, 256)[:40][::-1], level=7, slides=False)

    def test_strided_samples(self, stream):
        windows = np.lib.stride_tricks.sliding_window_view(stream[::2], N)[::256][:20]
        check(windows, level=7, slides=False)

    def test_below_the_row_threshold(self, stream):
        rows = _SLIDING_MIN_ROWS - 1
        check(sliding(stream, N, 256)[:rows], level=7, slides=False)
        check(sliding(stream, N, 256)[: rows + 1], level=7, slides=True)


class TestNonFinite:
    """A non-finite sample anywhere in the stream raises the per-window
    path's error."""

    @pytest.mark.parametrize("where", (0, -1), ids=("first", "last"))
    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf), ids=str)
    def test_raises_per_window_error(self, where, value):
        stream = record_signal(40.0)[1]
        windows = sliding(stream, N, 256)
        stream[(windows.shape[0] - 1) * 256 + N - 1 if where else 0] = value
        plan = wavelet_plan(4, 7)
        with sliding_calls() as spy, pytest.raises(FeatureError) as sliding_error:
            plan.details_batch(windows)
        assert spy.call_count == 1
        with pytest.raises(FeatureError) as per_window_error:
            plan.details_batch(np.ascontiguousarray(windows))
        assert str(sliding_error.value) == str(per_window_error.value)
        assert "NaN or infinite" in str(sliding_error.value)

    def test_extractor_batch_raises(self):
        data = record_signal(40.0)
        data[1, -1] = np.nan
        with pytest.raises(FeatureError, match="NaN or infinite"):
            extract_features(EEGRecord(data=data, fs=FS), Paper10FeatureExtractor())


@st.composite
def sliding_batches(draw):
    """A sliding view the sliding form takes, over a stream from one
    family: normal, constant, tie-heavy, subnormal-spread or +-1e300,
    with ``(windows, level, wavelet)``."""
    level = draw(st.integers(1, 8))
    block = 1 << level
    k = draw(st.integers(2, max(2, 512 // block)))
    n = block * k
    hop = block * draw(st.integers(1, k - 1))
    rows = draw(st.integers(_SLIDING_MIN_ROWS, 40))
    lead = draw(st.integers(0, 3))  # the view need not start the buffer
    family = draw(
        st.sampled_from(("normal", "constant", "quantized", "subnormal", "huge"))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = lead + (rows - 1) * hop + n
    if family == "normal":
        stream = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4)
    elif family == "constant":
        stream = np.full(size, rng.uniform(-1e3, 1e3))
    elif family == "quantized":
        stream = rng.integers(-2, 3, size) / 2.0
    elif family == "subnormal":
        stream = rng.integers(0, 40, size) * 5e-324
    else:
        stream = rng.choice((-1e300, 1e300, 0.0, 1.0), size)
    windows = sliding(stream[lead:], n, hop)
    assert windows.shape[0] == rows
    return windows, level, draw(st.sampled_from((1, 2, 3, 4)))


class TestSlidingDifferentialFuzz:
    """Generated streams and geometries: the sliding form equals the
    per-window path and the reference bitwise.  CI reruns this class
    under the ``deep`` hypothesis profile (see conftest.py)."""

    @settings(deadline=None)
    @given(case=sliding_batches())
    def test_sliding_equals_per_window_and_reference(self, case):
        windows, level, wavelet = case
        check(windows, level, slides=True, wavelet=wavelet)


def test_registry_kernel_runs_the_sliding_form():
    # The kernel the extractors resolve reaches the plan's sliding form.
    windows = sliding(record_signal(80.0)[1], N, 256)
    with sliding_calls() as spy:
        details = get_kernel("dwt_details")(windows, level=7)
    assert spy.call_count == 1
    reference = get_kernel("dwt_details", prefer="reference")
    assert_levels_bitwise(details, reference(np.ascontiguousarray(windows), level=7))
