"""Differential parity harness for the batched feature-kernel registry.

The shipped ``vectorized`` backend of every kernel in
:mod:`repro.kernels` is checked *bitwise* against the looped scalar
reference on a seeded case battery, and the registry's resolution and
refusal semantics are pinned.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.entropy.permutation import permutation_entropy
from repro.entropy.renyi import renyi_entropy
from repro.entropy.sample import embedding_indices, sample_entropy
from repro.exceptions import FeatureError, KernelError, SignalError
from repro.features.paper10 import Paper10FeatureExtractor
from repro.signals.spectral import band_power, welch_psd
from repro.kernels import (
    available_backends,
    band_plan,
    embedding_plan,
    get_kernel,
    hann_window,
    registered_kernels,
    wavelet_plan,
)
from repro.features.wavelet_features import dwt_details as scalar_dwt_details

KERNELS = sorted(registered_kernels())

#: Per-kernel parameter sets and base window lengths of the battery.
CONTRACTS = {
    "sample_entropy": (
        (
            {"m": 2, "k": 0.2},
            {"m": 2, "k": 0.35},
            {"m": 2, "k": (0.2, 0.35)},
            {"m": 3},
            {"m": 2, "r": 0.5},
        ),
        (4, 8, 16, 48),
    ),
    "permutation_entropy": (
        (
            {"order": 3},
            {"order": 5},
            {"order": 7},
            {"order": 3, "delay": 2},
            {"order": 5, "normalize": False},
        ),
        (4, 8, 16, 64),
    ),
    "renyi_entropy": (
        (
            {"alpha": 2.0},
            {"alpha": 1.0},
            {"alpha": 0.5, "bins": 8, "normalize": True},
            {"alpha": 3.0, "bins": 32},
        ),
        (8, 16, 64),
    ),
    # db4 is the paper's wavelet; orders 1-5 are the whole contract
    # (6 and up are refused, see TestRegistryResolution).
    "dwt_details": (
        (
            {"level": 2},
            {"level": 7},
            *(
                {"level": level, "wavelet": wavelet}
                for wavelet in (1, 2, 3, 5)
                for level in (2, 7)
            ),
        ),
        (256, 257),
    ),
    "band_powers": (
        (
            {"fs": 256.0, "bands": ((4.0, 8.0), (0.0, 128.0), (0.5, 4.0))},
            # (10.0, 10.1) covers fewer than 2 bins at every battery
            # length: the nearest-bin fallback.
            {"fs": 256.0, "bands": ((10.0, 10.1), "delta", (60.0, 61.0))},
            {"fs": 64.0, "bands": ((0.5, 4.0), "theta", (0.0, 32.0))},
        ),
        (64, 256),
    ),
}

#: Kernels whose battery windows are long enough to embed/decompose at
#: arbitrary lengths are exercised on extra lengths beyond the base ones.
EXTRA_LENGTHS = {
    "sample_entropy": (5, 33, 129),
    "permutation_entropy": (5, 33, 129),
    "renyi_entropy": (5, 33, 129),
    "dwt_details": (320, 640),
    "band_powers": (128, 640),
}


def contract_battery(
    n_samples: tuple[int, ...], n_windows: int = 7, seed: int = 2019
) -> list[np.ndarray]:
    """Deterministic batched input battery.

    One ``(n_windows, n)`` array per window length and case family:
    white noise, constant rows, ramps, sparse spikes on a flat baseline,
    a sinusoid mix, float32-quantized noise and tie-heavy noise rounded
    to half-units — NaN-free by construction, covering the signal shapes
    the extractors actually see (DWT subbands, raw windows) plus the
    degenerate ones (zero-variance, barely-embeddable short series).
    """
    rng = np.random.default_rng(seed)
    cases: list[np.ndarray] = []
    for n in n_samples:
        cases.append(rng.standard_normal((n_windows, n)))
        cases.append(np.tile(rng.standard_normal((n_windows, 1)), (1, n)))
        ramp = np.arange(n, dtype=float)[None, :] * rng.uniform(
            0.1, 3.0, (n_windows, 1)
        )
        cases.append(ramp - ramp.mean(axis=1, keepdims=True))
        spikes = np.zeros((n_windows, n))
        for i in range(n_windows):
            hits = rng.integers(0, n, size=max(1, n // 8))
            spikes[i, hits] = rng.standard_normal(hits.size) * 10.0
        cases.append(spikes)
        t = np.arange(n) / 256.0
        cases.append(
            np.sin(2 * np.pi * rng.uniform(1.0, 40.0, (n_windows, 1)) * t)
            + 0.1 * rng.standard_normal((n_windows, n))
        )
        cases.append(
            rng.standard_normal((n_windows, n)).astype(np.float32).astype(float)
        )
        cases.append(np.round(2.0 * rng.standard_normal((n_windows, n))))
    return cases


def _battery(name):
    """The kernel's parameter sets and a larger, seed-97 battery."""
    params, lengths = CONTRACTS[name]
    lengths = lengths + EXTRA_LENGTHS.get(name, ())
    return params, contract_battery(lengths, n_windows=11, seed=97)


def _pairs(ref_out, out):
    """Yield comparable (reference, candidate) array pairs."""
    if isinstance(ref_out, dict):
        assert set(ref_out) == set(out)
        for key in ref_out:
            yield np.asarray(ref_out[key]), np.asarray(out[key])
    else:
        yield np.asarray(ref_out), np.asarray(out)


def _assert_bitwise(name, params_sets, battery):
    reference = get_kernel(name, prefer="reference")
    vectorized = get_kernel(name, prefer="vectorized")
    for params in params_sets:
        for windows in battery:
            ref_out = reference(windows, **params)
            out = vectorized(windows, **params)
            for ref_arr, arr in _pairs(ref_out, out):
                np.testing.assert_array_equal(arr, ref_arr)


class TestDifferentialHarness:
    """Seeded random-signal battery, parameterized over the registry."""

    def test_all_five_kernels_registered(self):
        assert KERNELS == [
            "band_powers",
            "dwt_details",
            "permutation_entropy",
            "renyi_entropy",
            "sample_entropy",
        ]
        for name in KERNELS:
            backends = available_backends(name)
            assert "reference" in backends
            assert "vectorized" in backends

    @pytest.mark.parametrize("name", KERNELS)
    def test_vectorized_is_bitwise_identical(self, name):
        """The shipped vectorized backend must match the reference
        bit-for-bit — that is what keeps cohort reports byte-identical
        across backends."""
        _assert_bitwise(name, *_battery(name))

    @pytest.mark.parametrize("name", KERNELS)
    def test_vectorized_is_bitwise_identical_on_base_battery(self, name):
        """The battery at its defaults (seed 2019, 7 windows, base
        lengths only), beside the larger seed-97 battery above."""
        params, lengths = CONTRACTS[name]
        _assert_bitwise(name, params, contract_battery(lengths))

    @pytest.mark.parametrize("name", KERNELS)
    def test_strided_and_float32_inputs_match_contiguous(self, name):
        """Kernels normalize input layout: a strided view and its
        contiguous copy produce bitwise-identical results."""
        params, lengths = CONTRACTS[name]
        rng = np.random.default_rng(1234)
        n = max(lengths)
        base = rng.standard_normal((9, 2 * n))
        strided = base[::2, ::2]  # non-contiguous in both axes
        assert not strided.flags["C_CONTIGUOUS"]
        kern = get_kernel(name)
        for ref_arr, arr in _pairs(
            kern(np.ascontiguousarray(strided), **params[0]),
            kern(strided, **params[0]),
        ):
            np.testing.assert_array_equal(arr, ref_arr)

    @pytest.mark.parametrize("name", KERNELS)
    def test_batch_size_invariance(self, name):
        """Row ``i`` of a batched call equals the single-row call — no
        cross-window leakage through the batched reductions."""
        params_sets, lengths = CONTRACTS[name]
        rng = np.random.default_rng(777)
        windows = rng.standard_normal((8, max(lengths)))
        params = params_sets[-1]
        kern = get_kernel(name)
        full = kern(windows, **params)
        for i in (0, 3, 7):
            single = kern(windows[i : i + 1], **params)
            for full_arr, one_arr in _pairs(full, single):
                np.testing.assert_array_equal(one_arr[0], full_arr[i])


class TestRegistryResolution:
    def test_default_prefers_vectorized(self):
        assert get_kernel("sample_entropy") is get_kernel(
            "sample_entropy", prefer="vectorized"
        )

    def test_prefer_reference_is_strict(self):
        ref = get_kernel("sample_entropy", prefer="reference")
        vec = get_kernel("sample_entropy", prefer="vectorized")
        assert ref is not vec

    def test_unknown_kernel_raises(self):
        with pytest.raises(KernelError, match="unknown kernel"):
            get_kernel("does_not_exist")
        with pytest.raises(KernelError, match="unknown kernel"):
            available_backends("does_not_exist")

    def test_unknown_backend_raises(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            get_kernel("sample_entropy", prefer="turbo")

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    @pytest.mark.parametrize("wavelet", (6, 8))
    def test_dwt_wavelet_outside_the_contract_raises(self, backend, wavelet):
        kern = get_kernel("dwt_details", prefer=backend)
        with pytest.raises(KernelError, match="Daubechies orders 1-5"):
            kern(np.zeros((2, 256)), level=2, wavelet=wavelet)

    def test_kernel_error_is_a_feature_error(self):
        assert issubclass(KernelError, FeatureError)


class TestEntropyEdgeCases:
    """Degenerate signals must have *defined* behavior — the same one —
    on the scalar, batched-reference and vectorized paths."""

    ENTROPY_KERNELS = (
        "sample_entropy",
        "permutation_entropy",
        "renyi_entropy",
    )

    @pytest.mark.parametrize("name", ENTROPY_KERNELS)
    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_constant_signal_is_zero_not_nan(self, name, backend):
        windows = np.full((4, 64), 3.25)
        out = get_kernel(name, prefer=backend)(windows)
        np.testing.assert_array_equal(out, np.zeros(4))

    @pytest.mark.parametrize("name", ("renyi_entropy",))
    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_subnormal_spread_is_zero(self, name, backend):
        kern = get_kernel(name, prefer=backend)
        cases = (
            # A range too small for 16 finite-width bins (np.histogram
            # raises on it) counts as constant; a normal row beside it
            # is unaffected.
            ([[5e-324, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]], [0.0, 2.0]),
            # A constant row in the same batch must not change how the
            # subnormal row's edges are computed (an array-endpoint
            # linspace switches formula for every row when any row's
            # step is 0, which once scored this row 0.678).
            ([[0.0, 24 * 5e-324, 0.0, 0.0], [3.25] * 4], [0.0, 0.0]),
        )
        for windows, expected in cases:
            np.testing.assert_array_equal(kern(np.array(windows)), expected)
            for row, value in zip(windows, expected):
                assert kern(np.array([row]))[0] == value

    def test_renyi_power_sum_log_matches_scalar(self):
        # np.log2 and math.log2 of this row's power sum differ in the
        # last bit; the scalar path takes np.log2, as the kernel does.
        row = np.array([10.0, 15, 16, 9, 38, 1, 29, 30, 17])
        expected = float.fromhex("0x1.0bc41dbaf5450p+1")
        assert renyi_entropy(row) == expected
        for backend in ("reference", "vectorized"):
            out = get_kernel("renyi_entropy", prefer=backend)(row[None, :])
            assert out[0] == expected

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_permutation_nan_raises_inf_does_not(self, backend):
        kern = get_kernel("permutation_entropy", prefer=backend)
        row = np.array([0.3, np.nan, 0.1, 0.7, 0.2, np.nan, 0.5, 0.9])
        with pytest.raises(SignalError, match="NaN"):
            kern(np.stack([np.zeros(8), row]), order=3)
        infs = np.array([[np.inf, 1.0, -np.inf, 2.0, np.inf, 0.0, 3.0, 3.0]])
        finite = np.array([[9.0, 1.0, -9.0, 2.0, 9.0, 0.0, 3.0, 3.0]])
        np.testing.assert_array_equal(kern(infs, order=3), kern(finite, order=3))
        assert kern(infs, order=3)[0] == permutation_entropy(infs[0], order=3)

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_window_shorter_than_embedding_is_zero(self, backend, rng):
        # n < m + 2: the scalar contract returns 0.0; batched paths agree.
        windows = rng.standard_normal((5, 3))
        out = get_kernel("sample_entropy", prefer=backend)(windows, m=2)
        np.testing.assert_array_equal(out, np.zeros(5))
        # n < order: no complete ordinal vector -> entropy 0.
        out = get_kernel("permutation_entropy", prefer=backend)(
            windows, order=5
        )
        np.testing.assert_array_equal(out, np.zeros(5))

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_permutation_delay_two(self, backend, rng):
        windows = rng.standard_normal((6, 48))
        kern = get_kernel("permutation_entropy", prefer=backend)
        batched = kern(windows, order=3, delay=2)
        scalar = np.array(
            [permutation_entropy(row, order=3, delay=2) for row in windows]
        )
        np.testing.assert_array_equal(batched, scalar)
        # delay=2 skips every other sample: two interleaved increasing
        # subsequences look monotone at lag 2, so the delay-2 entropy
        # collapses to zero while the delay-1 entropy does not.
        saw = np.empty(32)
        saw[0::2] = np.arange(16)  # 0, 1, 2, ...
        saw[1::2] = 100.0 + np.arange(16)  # 100, 101, 102, ...
        assert permutation_entropy(saw, order=3, delay=2) == 0.0
        assert permutation_entropy(saw, order=3, delay=1) > 0.0
        np.testing.assert_array_equal(
            kern(saw[None, :], order=3, delay=2), np.zeros(1)
        )

    def test_sample_entropy_zero_variance_with_absolute_r(self):
        # With an absolute tolerance the constant row is still live and
        # every template matches: both paths give the same finite value.
        windows = np.full((3, 32), -1.5)
        ref = get_kernel("sample_entropy", prefer="reference")(
            windows, m=2, r=0.5
        )
        vec = get_kernel("sample_entropy", prefer="vectorized")(
            windows, m=2, r=0.5
        )
        np.testing.assert_array_equal(ref, vec)
        assert np.all(np.isfinite(ref))
        assert ref[0] == sample_entropy(windows[0], m=2, r=0.5)

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_sample_entropy_tolerance_tuple_is_one_column_per_k(
        self, backend, rng
    ):
        kern = get_kernel("sample_entropy", prefer=backend)
        windows = rng.standard_normal((5, 16))
        windows[2] = 1.5  # constant: 0.0 in every column
        both = kern(windows, m=2, k=(0.2, 0.35))
        assert both.shape == (5, 2)
        np.testing.assert_array_equal(both[:, 0], kern(windows, m=2, k=0.2))
        np.testing.assert_array_equal(both[:, 1], kern(windows, m=2, k=0.35))
        assert kern(np.zeros((0, 16)), k=(0.2, 0.35)).shape == (0, 2)
        with pytest.raises(SignalError, match="explicit r"):
            kern(windows, k=(0.2, 0.35), r=0.5)
        with pytest.raises(SignalError, match="at least one"):
            kern(windows, k=())

    @pytest.mark.parametrize("order", (6, 7))
    def test_permutation_rows_past_one_pairwise_block(self, order, rng):
        # 400-sample rows have ~390 distinct patterns at these orders:
        # more operands than one block of numpy's pairwise sum.
        windows = rng.standard_normal((5, 400))
        windows[3] = np.round(windows[3])  # fewer patterns in one row
        ref = get_kernel("permutation_entropy", prefer="reference")
        vec = get_kernel("permutation_entropy", prefer="vectorized")
        np.testing.assert_array_equal(
            vec(windows, order=order).view(np.int64),
            ref(windows, order=order).view(np.int64),
        )

    def test_compacted_row_sums_match_numpy_sum(self, rng):
        # The exact per-row sum behind the permutation and Renyi
        # kernels, against np.sum of each compacted row, at operand
        # counts on both sides of every pairwise-summation boundary.
        from repro.kernels.vectorized import _compacted_row_sums

        for width in (1, 5, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 300):
            mask = rng.random((6, width)) < rng.uniform(0.2, 1.0, (6, 1))
            mask[:, 0] = True
            mask[0] = True
            values = -rng.random((6, width)) * 10.0 ** rng.integers(-8, 8, (6, width))
            expected = [np.sum(values[r][mask[r]]) for r in range(6)]
            got = _compacted_row_sums(values[mask], mask)
            np.testing.assert_array_equal(
                got.view(np.int64), np.array(expected).view(np.int64)
            )

    def test_embedding_indices_short_series(self):
        assert embedding_indices(3, 5).shape == (0, 5)
        grid = embedding_indices(6, 2, delay=2)
        np.testing.assert_array_equal(
            grid, [[0, 2], [1, 3], [2, 4], [3, 5]]
        )


#: Differential fuzz targets: every histogram and ordinal-pattern kernel
#: configuration the extractors use, plus order 3, and the two-tolerance
#: SampEn call of the Paper-10 extractor.
FUZZ_CASES = (
    ("permutation_entropy", {"order": 3}),
    ("permutation_entropy", {"order": 5}),
    ("permutation_entropy", {"order": 7}),
    ("renyi_entropy", {"alpha": 2.0}),
    ("sample_entropy", {"m": 2, "k": (0.2, 0.35)}),
)


@st.composite
def mixed_batches(draw):
    """A ``(rows, n)`` batch whose rows each come from one family:
    normal, constant, subnormal-spread, few-level quantized (tie-heavy)
    or +-1e300."""
    n = draw(st.integers(1, 40))
    families = draw(
        st.lists(
            st.sampled_from(
                ("normal", "constant", "subnormal", "quantized", "huge")
            ),
            min_size=1,
            max_size=6,
        )
    )
    rows = []
    for family in families:
        if family == "normal":
            row = draw(hnp.arrays(float, n, elements=st.floats(-1e3, 1e3)))
        elif family == "constant":
            row = np.full(n, draw(st.floats(-1e3, 1e3)))
        elif family == "subnormal":
            steps = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 40)))
            row = steps * 5e-324
        elif family == "quantized":
            levels = draw(hnp.arrays(np.int64, n, elements=st.integers(-2, 2)))
            row = levels / 2.0
        else:
            row = draw(
                hnp.arrays(
                    float,
                    n,
                    elements=st.sampled_from((-1e300, 1e300, 0.0, 1.0)),
                )
            )
        rows.append(row.astype(float))
    return np.stack(rows)


class TestDifferentialFuzz:
    """Generated batches mixing degenerate and ordinary rows: the
    vectorized kernels must equal the reference bitwise.  CI reruns this
    class under the ``deep`` hypothesis profile (see conftest.py)."""

    @settings(deadline=None)
    @given(windows=mixed_batches())
    @example(windows=np.array([[10.0, 15, 16, 9, 38, 1, 29, 30, 17]]))
    @example(windows=np.array([[0.0, 24 * 5e-324, 0.0, 0.0], [3.25] * 4]))
    def test_vectorized_equals_reference(self, windows):
        for name, params in FUZZ_CASES:
            ref = get_kernel(name, prefer="reference")(windows, **params)
            out = get_kernel(name, prefer="vectorized")(windows, **params)
            np.testing.assert_array_equal(
                out.view(np.int64), ref.view(np.int64), err_msg=name
            )


class TestSampEnOverflow:
    """A window whose squared deviations overflow keeps its tolerance:
    SampEn is invariant to a power-of-two scale, even one that takes
    ``np.std`` past the float range, and no overflow warning escapes."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_scaled_past_overflow_equals_unscaled(self, backend):
        y = np.random.default_rng(5).standard_normal((6, 48))
        y[3] = np.repeat([0.5, -0.25], 24)
        kernel = get_kernel("sample_entropy", prefer=backend)
        for params in ({"m": 2, "k": (0.2, 0.35)}, {"m": 3, "k": 0.2}):
            out = kernel(y * 2.0**996, **params)
            ref = kernel(y, **params)
            np.testing.assert_array_equal(
                out.view(np.int64), ref.view(np.int64), err_msg=str(params)
            )
        for row in y:
            assert sample_entropy(row * 2.0**996) == sample_entropy(row)


class TestShortWindowContract:
    """Windows too short to decompose raise FeatureError on every path."""

    def test_kernel_path(self):
        for backend in ("reference", "vectorized"):
            with pytest.raises(FeatureError, match="too short"):
                get_kernel("dwt_details", prefer=backend)(
                    np.zeros((3, 1)), level=7
                )

    def test_scalar_path(self):
        with pytest.raises(FeatureError, match="too short"):
            scalar_dwt_details(np.zeros(1), level=7)

    def test_batch_path(self):
        extractor = Paper10FeatureExtractor()
        with pytest.raises(FeatureError, match="too short"):
            extractor.extract_batch(np.zeros((2, 2, 1)), 256.0)

    def test_window_path(self):
        extractor = Paper10FeatureExtractor()
        with pytest.raises(FeatureError, match="too short"):
            extractor.extract_window(np.zeros((2, 1)), 256.0)

    def test_streaming_path(self):
        from repro.core.streaming import StreamingFeatureExtractor
        from repro.signals.windowing import WindowSpec

        stream = StreamingFeatureExtractor(
            fs=4.0, spec=WindowSpec(length_s=0.25, step_s=0.25)
        )
        assert stream.spec.length_samples(4.0) == 1  # 1-sample windows
        with pytest.raises(FeatureError, match="too short"):
            stream.push(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "path", ("reference", "vectorized", "batch", "scalar", "window")
    )
    def test_deep_level_runs_out(self, path, rng):
        # 32 samples halve to 1 by level 6 of a 7-level decomposition:
        # past the entry check, only the per-level check catches it.
        windows = rng.standard_normal((2, 2, 32))
        extractor = Paper10FeatureExtractor()
        with pytest.raises(FeatureError, match="too short.*level 6"):
            if path in ("reference", "vectorized"):
                get_kernel("dwt_details", prefer=path)(windows[:, 1], level=7)
            elif path == "batch":
                extractor.extract_batch(windows, 256.0)
            elif path == "scalar":
                scalar_dwt_details(windows[0, 1], level=7)
            else:
                extractor.extract_window(windows[0], 256.0)

    def test_batch_rejects_nan(self):
        extractor = Paper10FeatureExtractor()
        windows = np.zeros((2, 2, 1024))
        windows[1, 0, 5] = np.nan
        with pytest.raises(FeatureError, match="NaN"):
            extractor.extract_batch(windows, 256.0)

    def test_band_powers_contract_matches_scalar(self):
        # The spectral kernels keep the scalar SignalError contract for
        # bad inputs (too short for Welch, invalid band name).
        for backend in ("reference", "vectorized"):
            kern = get_kernel("band_powers", prefer=backend)
            with pytest.raises(SignalError, match="too short"):
                kern(np.zeros((2, 4)), fs=256.0, bands=("theta",))
            with pytest.raises(SignalError, match="invalid band"):
                kern(np.ones((2, 64)), fs=256.0, bands=((8.0, 4.0),))
            with pytest.raises(KeyError):
                kern(np.ones((2, 64)), fs=256.0, bands=("not_a_band",))


_ROWS = np.random.default_rng(3).standard_normal((3, 64))

#: Each kernel parameter that must be finite (and positive, or >= 0 for
#: a tolerance), set to a bad value through every entry point: both
#: backends of the kernel and the scalar functions behind them.
_PARAMETER_CALLS = {
    f"band_powers[{b}] fs": lambda v, b=b: get_kernel("band_powers", b)(
        _ROWS, fs=v, bands=("theta",)
    )
    for b in ("reference", "vectorized")
} | {
    f"renyi_entropy[{b}] alpha": lambda v, b=b: get_kernel(
        "renyi_entropy", b
    )(_ROWS, alpha=v)
    for b in ("reference", "vectorized")
} | {
    f"sample_entropy[{b}] {name}": lambda v, b=b, name=name: get_kernel(
        "sample_entropy", b
    )(_ROWS, **{name: v})
    for b in ("reference", "vectorized")
    for name in ("k", "r")
} | {
    "sample_entropy[vectorized] k tuple": lambda v: get_kernel(
        "sample_entropy"
    )(_ROWS, k=(0.2, v)),
    "welch_psd fs": lambda v: welch_psd(_ROWS[0], v),
    "band_power fs": lambda v: band_power(_ROWS[0], v, "theta"),
    "renyi_entropy alpha": lambda v: renyi_entropy(_ROWS[0], alpha=v),
    "sample_entropy k": lambda v: sample_entropy(_ROWS[0], k=v),
    "sample_entropy r": lambda v: sample_entropy(_ROWS[0], r=v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("call", sorted(_PARAMETER_CALLS))
def test_non_finite_or_negative_parameter_raises(call, value):
    # NaN used to flow through to NaN features or a SampEn count, inf
    # to a bare ZeroDivisionError (fs) or NaN with warnings (alpha).
    with pytest.raises(SignalError, match="must be finite"):
        _PARAMETER_CALLS[call](value)


class TestBandPowerLanes:
    """A ``(windows, lanes, samples)`` band-power batch is the 2-D call
    on each lane's rows, bit for bit, on both backends: the Paper-10
    extractor passes both channels of a sliding view as lanes."""

    @pytest.mark.parametrize("n_windows", [1, 4, 17, 64])
    def test_lanes_equal_rows(self, rng, n_windows):
        stream = 30.0 * rng.standard_normal((2, (n_windows + 3) * 256))
        view = np.lib.stride_tricks.sliding_window_view(
            stream, 1024, axis=1
        )[:, ::256].transpose(1, 0, 2)
        bands = ("theta", (0.0, 128.0), "delta")
        for backend in ("reference", "vectorized"):
            kern = get_kernel("band_powers", prefer=backend)
            lanes = kern(view, fs=256.0, bands=bands)
            assert lanes.shape == (view.shape[0], 2, 3)
            for lane in range(2):
                rows = kern(
                    np.ascontiguousarray(view[:, lane]), fs=256.0, bands=bands
                )
                np.testing.assert_array_equal(
                    lanes[:, lane].view(np.int64), rows.view(np.int64)
                )


class TestPlans:
    def test_embedding_plan_cached_and_read_only(self):
        a = embedding_plan(64, 2)
        b = embedding_plan(64, 2)
        assert a is b
        assert not a.flags.writeable
        np.testing.assert_array_equal(a, embedding_indices(64, 2))

    def test_hann_window_matches_numpy(self):
        win = hann_window(1024)
        assert not win.flags.writeable
        np.testing.assert_array_equal(win, np.hanning(1024))

    def test_band_plan_cached_and_read_only(self):
        bands = ("theta", (0.0, 128.0))
        plan = band_plan(1024, 256.0, bands)
        assert band_plan(1024, 256.0, bands) is plan
        _, spacing = plan.bands[0]
        assert not spacing.flags.writeable

    def test_band_plan_keyed_on_rate_and_bands(self, rng):
        # One window length under two rates and two band tuples: a plan
        # keyed on the length alone would reuse the first one's norm
        # and bins.
        windows = rng.standard_normal((3, 256))
        reference = get_kernel("band_powers", prefer="reference")
        vectorized = get_kernel("band_powers", prefer="vectorized")
        for fs in (256.0, 100.0):
            for bands in (
                ("theta", (0.0, fs / 2.0)),
                ((1.0, 1.1), (2.0, 30.0), "delta"),
            ):
                np.testing.assert_array_equal(
                    vectorized(windows, fs=fs, bands=bands),
                    reference(windows, fs=fs, bands=bands),
                )

    def test_wavelet_plan_cached(self):
        assert wavelet_plan(4, 7) is wavelet_plan(4, 7)
        assert wavelet_plan(4, 2) is not wavelet_plan(4, 7)

    @pytest.mark.parametrize("level", (7.0, 1.5, True, 0, "7"), ids=repr)
    def test_wavelet_plan_refuses_non_integer_level(self, level, rng):
        # 7.0 == 7 shares the plan cache's key: a plan built for it
        # would be handed to every later level-7 caller.
        with pytest.raises(FeatureError, match="level must be an integer >= 1"):
            get_kernel("dwt_details")(rng.standard_normal((2, 256)), level=level)
        assert wavelet_plan(4, 7).level == 7
        details = get_kernel("dwt_details")(rng.standard_normal((2, 256)), level=7)
        assert sorted(details) == list(range(1, 8))

    def test_details_batch_rows_match_scalar_dwt(self, rng):
        windows = rng.standard_normal((5, 1024))
        batched = wavelet_plan(4, 7).details_batch(windows)
        for i in range(5):
            scalar = scalar_dwt_details(windows[i], level=7)
            assert set(batched) == set(scalar)
            for lvl in scalar:
                np.testing.assert_array_equal(batched[lvl][i], scalar[lvl])
