"""Property-based tests (hypothesis) on core invariants.

These cover the guarantees the rest of the system leans on: DWT perfect
reconstruction and energy preservation, entropy bounds, z-score
invariances of Algorithm 1, reference/fast equivalence, metric bounds,
and battery-model monotonicity.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.api import extract
from repro.core.algorithm import a_posteriori_reference
from repro.core.deviation import deviation, normalized_deviation
from repro.core.fast import a_posteriori_fast
from repro.core.aggregation import geometric_mean
from repro.data.records import EEGRecord, SeizureAnnotation
from repro.features.base import FeatureExtractor
from repro.features.extraction import extract_features
from repro.entropy.permutation import permutation_entropy
from repro.entropy.renyi import renyi_entropy
from repro.entropy.shannon import shannon_entropy
from repro.ml.metrics import geometric_mean_score, sensitivity, specificity
from repro.platform.battery import WearablePlatform
from repro.signals.wavelet import wavedec, waverec

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=16, max_value=128),
    elements=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


class TestWaveletProperties:
    @given(x=finite_arrays, level=st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_perfect_reconstruction(self, x, level):
        rec = waverec(wavedec(x, level))
        assert np.allclose(rec[: x.size], x, atol=1e-6 * (1 + np.abs(x).max()))

    @given(x=finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_parseval_dyadic_lengths(self, x):
        # Energy is preserved exactly only when no stage needs odd-length
        # padding, i.e. the length is divisible by 2^level.
        x = x[: 4 * (x.size // 4)]
        coeffs = wavedec(x, 2)
        total = sum(float((c**2).sum()) for c in coeffs)
        assert math.isclose(total, float((x**2).sum()), rel_tol=1e-9, abs_tol=1e-6)


class TestEntropyProperties:
    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(min_value=10, max_value=200),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ),
        order=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_entropy_normalized_bounds(self, x, order):
        h = permutation_entropy(x, order=order)
        assert 0.0 <= h <= 1.0 + 1e-12

    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(min_value=4, max_value=100),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ),
        bins=st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_shannon_bounded_by_log_bins(self, x, bins):
        assert 0.0 <= shannon_entropy(x, bins=bins) <= math.log2(bins) + 1e-9

    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(min_value=4, max_value=100),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_renyi_nonnegative(self, x):
        assert renyi_entropy(x, alpha=2.0) >= 0.0


class TestAlgorithmProperties:
    @given(
        data=st.data(),
        length=st.integers(min_value=20, max_value=70),
        n_feat=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_reference_equals_fast(self, data, length, n_feat):
        window = data.draw(st.integers(min_value=1, max_value=length - 2))
        grid_step = data.draw(st.integers(min_value=1, max_value=6))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        x = np.random.default_rng(seed).standard_normal((length, n_feat))
        ref = a_posteriori_reference(x, window, grid_step=grid_step)
        fast = a_posteriori_fast(x, window, grid_step=grid_step)
        assert np.allclose(fast.distances, ref.distances, atol=1e-9)
        if fast.position != ref.position:
            # The two implementations accumulate in different orders, so
            # their distances differ in the last float bits; when maxima
            # are numerically tied (e.g. window ~ signal length), argmax
            # may land on different tied candidates.  Divergence is only
            # legal across such ties.
            assert np.isclose(
                ref.distances[fast.position],
                ref.distances[ref.position],
                atol=1e-9,
            )

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_label_always_inside_signal(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(30, 120))
        window = int(rng.integers(1, length // 2))
        x = rng.standard_normal((length, 3))
        det = a_posteriori_fast(x, window)
        lo, hi = det.label_range
        assert 0 <= lo and hi <= length

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_shift_and_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 3))
        y = x * rng.uniform(0.5, 100.0, size=3) + rng.uniform(-50, 50, size=3)
        a = a_posteriori_fast(x, 8)
        b = a_posteriori_fast(y, 8)
        assert a.position == b.position
        assert np.allclose(a.distances, b.distances, atol=1e-8)


#: Low sampling rate keeps hypothesis-driven extraction cheap while the
#: window geometry (4 s / 1 s) stays the paper's.
_FS_SMALL = 32.0


class _CheapStatsExtractor(FeatureExtractor):
    """Three O(n) features — fast enough to window under hypothesis."""

    @property
    def feature_names(self) -> tuple[str, ...]:
        return ("mean", "std", "ptp")

    def extract_window(self, window, fs):
        window = self._check_window(window)
        return np.array(
            [window.mean(), window.std(), float(window.max() - window.min())]
        )


def _random_record(seed: int, duration_s: float) -> EEGRecord:
    rng = np.random.default_rng(seed)
    n = int(duration_s * _FS_SMALL)
    return EEGRecord(data=rng.standard_normal((2, n)), fs=_FS_SMALL)


class TestEngineChunkedProperties:
    """The engine's chunked invocation preserves every core equivalence."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        duration=st.floats(min_value=4.0, max_value=40.0),
        chunk_s=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunked_extraction_matches_batch(self, seed, duration, chunk_s):
        record = _random_record(seed, duration)
        extractor = _CheapStatsExtractor()
        batch = extract_features(record, extractor)
        chunked = extract(record, extractor, chunk_s=chunk_s)
        assert chunked.values.shape == batch.values.shape
        assert np.array_equal(chunked.values, batch.values)

    @given(
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**31),
        duration=st.floats(min_value=8.0, max_value=60.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_fast_equals_reference_under_chunked_invocation(
        self, data, seed, duration
    ):
        record = _random_record(seed, duration)
        chunk_s = data.draw(st.floats(min_value=1.0, max_value=30.0))
        feats = extract(
            record, _CheapStatsExtractor(), chunk_s=chunk_s
        ).values
        length = feats.shape[0]
        # W up to L - 1 includes the degenerate single-candidate search.
        window = data.draw(st.integers(min_value=1, max_value=length - 1))
        grid_step = data.draw(st.integers(min_value=1, max_value=6))
        ref = a_posteriori_reference(feats, window, grid_step=grid_step)
        fast = a_posteriori_fast(feats, window, grid_step=grid_step)
        assert np.allclose(fast.distances, ref.distances, atol=1e-9)
        if fast.position != ref.position:
            # The two computations round differently (decomposed vs
            # direct sums), so when two candidate positions are
            # *numerically tied* their argmaxes may legitimately part
            # ways — hypothesis finds records where two distances agree
            # to the last few ulps.  Any position disagreement beyond
            # such a tie is still a real bug.
            assert np.isclose(
                ref.distances[fast.position],
                ref.distances[ref.position],
                rtol=1e-9,
                atol=1e-9,
            )

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        duration=st.floats(min_value=5.0, max_value=20.0),
        grid_step=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_degenerate_single_window_record(self, seed, duration, grid_step):
        # L = W + 1: exactly one candidate window.  Both implementations
        # must survive the degenerate geometry and agree on the single
        # distance instead of erroring or disagreeing on normalization.
        feats = extract(
            _random_record(seed, duration), _CheapStatsExtractor(), chunk_s=3.0
        ).values
        window = feats.shape[0] - 1
        ref = a_posteriori_reference(feats, window, grid_step=grid_step)
        fast = a_posteriori_fast(feats, window, grid_step=grid_step)
        assert ref.position == 0
        assert fast.position == 0
        assert ref.distances.size == 1
        assert np.allclose(fast.distances, ref.distances, atol=1e-9)


class TestMetricProperties:
    @given(
        data=st.data(),
        length=st.floats(min_value=100.0, max_value=5000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_delta_norm_in_unit_interval(self, data, length):
        t0 = data.draw(st.floats(min_value=0.0, max_value=length - 2.0))
        t1 = data.draw(st.floats(min_value=t0 + 1.0, max_value=length))
        p0 = data.draw(st.floats(min_value=0.0, max_value=length - 2.0))
        p1 = data.draw(st.floats(min_value=p0 + 1.0, max_value=length))
        truth, pred = SeizureAnnotation(t0, t1), SeizureAnnotation(p0, p1)
        v = normalized_deviation(truth, pred, length)
        assert 0.0 <= v <= 1.0

    @given(
        t0=st.floats(min_value=0.0, max_value=1000.0),
        dur=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_delta_identity_is_zero(self, t0, dur):
        ann = SeizureAnnotation(t0, t0 + dur)
        assert deviation(ann, ann) == 0.0

    @given(
        y=hnp.arrays(np.int64, st.integers(10, 60), elements=st.integers(0, 1)),
        p=hnp.arrays(np.int64, st.integers(10, 60), elements=st.integers(0, 1)),
    )
    @settings(max_examples=50, deadline=None)
    def test_gmean_bounded_by_rates(self, y, p):
        n = min(y.size, p.size)
        y, p = y[:n], p[:n]
        g = geometric_mean_score(y, p)
        assert 0.0 <= g <= 1.0
        assert g <= max(sensitivity(y, p), specificity(y, p)) + 1e-12

    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_geometric_mean_between_min_and_max(self, values):
        g = geometric_mean(values)
        assert min(values) - 1e-12 <= g <= max(values) + 1e-12


class TestPlatformProperties:
    @given(f=st.floats(min_value=0.0, max_value=5.9))
    @settings(max_examples=30, deadline=None)
    def test_lifetime_decreases_with_seizure_frequency(self, f):
        platform = WearablePlatform()
        base = platform.lifetime(platform.full_system_budget(0.0)).hours
        with_seizures = platform.lifetime(platform.full_system_budget(f)).hours
        assert with_seizures <= base + 1e-9

    @given(f=st.floats(min_value=0.0, max_value=5.9))
    @settings(max_examples=30, deadline=None)
    def test_energy_shares_always_sum_to_one(self, f):
        budget = WearablePlatform().full_system_budget(f)
        assert math.isclose(sum(budget.energy_shares().values()), 1.0)
