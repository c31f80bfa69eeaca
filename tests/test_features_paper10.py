"""Unit tests for the paper's 10 selected features."""

import numpy as np
import pytest

from repro.data.seizures import SeizureMorphology, generate_ictal
from repro.features.paper10 import PAPER10_FEATURE_NAMES, Paper10FeatureExtractor

FS = 256.0


@pytest.fixture(scope="module")
def extractor():
    return Paper10FeatureExtractor()


def window(rng, kind="noise"):
    n = int(4 * FS)
    if kind == "noise":
        return rng.standard_normal((2, n)) * 30.0
    if kind == "theta":
        t = np.arange(n) / FS
        tone = 80.0 * np.sin(2 * np.pi * 6.0 * t)
        return np.vstack([tone, tone]) + rng.standard_normal((2, n)) * 5.0
    raise ValueError(kind)


class TestDefinition:
    def test_ten_features(self, extractor):
        assert extractor.n_features == 10
        assert extractor.feature_names == PAPER10_FEATURE_NAMES

    def test_channel_attribution(self):
        # 3 features from F7T3, 7 from F8T4, per Sec. III-A.
        f7 = [n for n in PAPER10_FEATURE_NAMES if n.startswith("F7T3")]
        f8 = [n for n in PAPER10_FEATURE_NAMES if n.startswith("F8T4")]
        assert len(f7) == 3 and len(f8) == 7


class TestValues:
    def test_output_shape_and_finiteness(self, extractor, rng):
        values = extractor.extract_window(window(rng), FS)
        assert values.shape == (10,)
        assert np.all(np.isfinite(values))

    def test_theta_tone_dominates_theta_features(self, extractor, rng):
        noise = extractor.extract_window(window(rng, "noise"), FS)
        theta = extractor.extract_window(window(rng, "theta"), FS)
        names = list(PAPER10_FEATURE_NAMES)
        for feat in ("F7T3_theta_power", "F7T3_rel_theta_power", "F8T4_rel_theta_power"):
            idx = names.index(feat)
            assert theta[idx] > noise[idx]

    def test_relative_powers_bounded(self, extractor, rng):
        values = extractor.extract_window(window(rng), FS)
        names = list(PAPER10_FEATURE_NAMES)
        for feat in ("F7T3_rel_theta_power", "F8T4_rel_theta_power"):
            v = values[names.index(feat)]
            assert 0.0 <= v <= 1.0

    def test_entropy_features_in_unit_range(self, extractor, rng):
        values = extractor.extract_window(window(rng), FS)
        names = list(PAPER10_FEATURE_NAMES)
        for feat in (
            "F8T4_perm_entropy_L7_n5",
            "F8T4_perm_entropy_L7_n7",
            "F8T4_perm_entropy_L6_n7",
        ):
            v = values[names.index(feat)]
            assert 0.0 <= v <= 1.0

    def test_ictal_window_separates_from_background(self, extractor, rng):
        bg = rng.standard_normal((2, int(4 * FS))) * 30.0
        ict = generate_ictal(4.0, FS, SeizureMorphology(buildup_fraction=0.05), 30.0, rng)
        v_bg = extractor.extract_window(bg, FS)
        v_ict = extractor.extract_window(bg + ict, FS)
        names = list(PAPER10_FEATURE_NAMES)
        theta_idx = names.index("F7T3_theta_power")
        assert v_ict[theta_idx] > 2 * v_bg[theta_idx]

    def test_deterministic(self, extractor, rng):
        w = window(rng)
        a = extractor.extract_window(w, FS)
        b = extractor.extract_window(w, FS)
        assert np.array_equal(a, b)

    def test_extra_channels_ignored(self, extractor, rng):
        w3 = np.vstack([window(rng), rng.standard_normal((1, int(4 * FS)))])
        values = extractor.extract_window(w3, FS)
        assert values.shape == (10,)


def special_windows(rng, n_windows=57):
    """A ``(n_windows, 2, 1024)`` battery mixing ordinary windows with
    the degenerate ones the batched kernels must still match bit for
    bit: constant, tie-heavy (piecewise constant, so most detail
    coefficients tie at zero), subnormal-spread and +-1e300 windows."""
    n = int(4 * FS)
    kinds = ("noise", "quiet", "theta", "constant", "blocky", "subnormal", "huge")
    out = np.empty((n_windows, 2, n))
    for i in range(n_windows):
        kind = kinds[i % len(kinds)]
        if kind == "noise":
            w = rng.standard_normal((2, n)) * 30.0
        elif kind == "quiet":
            w = rng.standard_normal((2, n)) * 1e-3
        elif kind == "theta":
            w = window(rng, "theta")
        elif kind == "constant":
            w = np.full((2, n), rng.uniform(-50.0, 50.0))
        elif kind == "blocky":
            w = np.repeat(rng.integers(-2, 3, (2, 8)), n // 8, axis=1) * 10.0
        elif kind == "subnormal":
            w = rng.integers(0, 40, (2, n)) * 5e-324
        else:
            w = rng.choice((-1e300, 1e300, 0.0, 1.0), (2, n))
        out[i] = w
    return out


def assert_bitwise(actual, expected):
    np.testing.assert_array_equal(
        np.asarray(actual).view(np.int64), np.asarray(expected).view(np.int64)
    )


class TestSmallBatchParity:
    """The service extracts 1-4 windows per call and the cohort engine
    57: every batch size must give the looped per-window bits."""

    @pytest.fixture(scope="class")
    def battery(self):
        return special_windows(np.random.default_rng(2019))

    @pytest.fixture(scope="class")
    def looped(self, battery):
        extractor = Paper10FeatureExtractor()
        with np.errstate(all="ignore"):
            return np.stack([extractor.extract_window(w, FS) for w in battery])

    def test_battery_spans_distinct_count_groups(self, battery):
        # The rows must not all share one permutation/Renyi operand
        # count, or a per-count grouping bug could not show.
        from repro.entropy.permutation import ordinal_patterns
        from repro.features.wavelet_features import dwt_details

        pe_counts, renyi_counts = set(), set()
        for w in battery[:14]:
            details = dwt_details(w[1], level=7)
            pe_counts.add(np.unique(ordinal_patterns(details[6], 7)).size)
            hist, _ = np.histogram(details[3], bins=16)
            renyi_counts.add(int((hist > 0).sum()))
        assert len(pe_counts) >= 3
        assert len(renyi_counts) >= 3
        assert max(renyi_counts) >= 8  # lanes of numpy's unrolled sum

    def test_full_batch_equals_loop(self, battery, looped):
        with np.errstate(all="ignore"):
            full = Paper10FeatureExtractor().extract_batch(battery, FS)
        assert_bitwise(full, looped)

    @pytest.mark.parametrize("size", (1, 2, 4))
    def test_small_batches_equal_loop_and_full_batch(self, battery, looped, size):
        extractor = Paper10FeatureExtractor()
        with np.errstate(all="ignore"):
            full = extractor.extract_batch(battery, FS)
            for start in range(0, 14, size):
                rows = slice(start, start + size)
                small = extractor.extract_batch(battery[rows], FS)
                assert_bitwise(small, looped[rows])
                assert_bitwise(small, full[rows])

    def test_one_second_chunks_equal_batch(self, battery):
        # A stream through every window family, fed at the service's
        # 1 s chunk size, must produce the batch rows exactly.
        from repro.core.streaming import StreamingFeatureExtractor
        from repro.data.records import EEGRecord
        from repro.features.extraction import extract_features

        signal = np.concatenate(list(battery[:14]), axis=1)
        extractor = Paper10FeatureExtractor()
        stream = StreamingFeatureExtractor(extractor, fs=FS)
        step = int(FS)
        with np.errstate(all="ignore"):
            batch = extract_features(EEGRecord(data=signal, fs=FS), extractor).values
            rows = [
                stream.push(signal[:, pos : pos + step])
                for pos in range(0, signal.shape[1], step)
            ]
        streamed = np.concatenate(rows)
        assert streamed.shape == batch.shape
        assert_bitwise(streamed, batch)
