"""Unit tests for streaming feature extraction and the streaming labeler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import (
    RELEASE_WINDOWS,
    RollingFeatureBuffer,
    StreamingFeatureExtractor,
    StreamingLabeler,
)
from repro.data.records import EEGRecord
from repro.exceptions import FeatureError, LabelingError
from repro.features.extraction import extract_features
from repro.features.paper10 import Paper10FeatureExtractor

FS = 256.0


def record_of(duration, seed=0):
    rng = np.random.default_rng(seed)
    return EEGRecord(data=30.0 * rng.standard_normal((2, int(duration * FS))), fs=FS)


class TestStreamingExtractor:
    def test_matches_batch_extraction(self):
        rec = record_of(20.0)
        batch = extract_features(rec, Paper10FeatureExtractor()).values
        stream = StreamingFeatureExtractor(fs=FS)
        rows = []
        rng = np.random.default_rng(1)
        pos = 0
        while pos < rec.n_samples:
            n = int(rng.integers(50, 2000))
            rows.append(stream.push(rec.data[:, pos : pos + n]))
            pos += n
        streamed = np.vstack([r for r in rows if r.size])
        assert streamed.shape == batch.shape
        assert np.allclose(streamed, batch)

    def test_single_sample_chunks(self):
        rec = record_of(6.0)
        stream = StreamingFeatureExtractor(fs=FS)
        total = 0
        for i in range(rec.n_samples):
            total += stream.push(rec.data[:, i : i + 1]).shape[0]
        # 6 s -> windows at t=0,1,2 (each 4 s long).
        assert total == 3

    def test_no_rows_before_first_window(self):
        stream = StreamingFeatureExtractor(fs=FS)
        out = stream.push(np.zeros((2, 512)))  # 2 s < 4 s window
        assert out.shape[0] == 0

    def test_finalize_returns_total_windows(self):
        rng = np.random.default_rng(8)
        stream = StreamingFeatureExtractor(fs=FS)
        stream.push(rng.standard_normal((2, int(6.0 * FS))))
        assert stream.finalize() == 3  # 6 s -> windows at t = 0, 1, 2

    def test_finalize_short_stream_raises(self):
        # A stream shorter than one window must error like the batch
        # path, never end silently with zero rows emitted.
        stream = StreamingFeatureExtractor(fs=FS)
        stream.push(np.zeros((2, 512)))  # 2 s < 4 s window
        with pytest.raises(FeatureError, match="shorter than one"):
            stream.finalize()

    def test_buffer_stays_bounded(self):
        stream = StreamingFeatureExtractor(fs=FS)
        for _ in range(50):
            stream.push(np.zeros((2, 1024)))
        # Never retains more than one window + one chunk of samples.
        assert stream._buffer.shape[1] <= 1024 + 1024

    def test_wrong_channel_count_raises(self):
        stream = StreamingFeatureExtractor(fs=FS)
        with pytest.raises(FeatureError):
            stream.push(np.zeros((3, 100)))

    def test_1d_chunk_accepted_for_single_channel(self):
        from repro.features.base import FeatureExtractor

        class MeanExtractor(FeatureExtractor):
            channel_names = ("X",)

            @property
            def feature_names(self):
                return ("mean",)

            def extract_window(self, window, fs):
                return np.array([np.asarray(window)[0].mean()])

        stream = StreamingFeatureExtractor(
            extractor=MeanExtractor(), fs=FS, n_channels=1
        )
        out = stream.push(np.ones(int(6 * FS)))
        assert out.shape == (3, 1)
        assert np.allclose(out, 1.0)


def bits(rows):
    return np.ascontiguousarray(rows).view(np.int64)


class TestPushChunks:
    """``push_chunks(blocks)`` is one push of the blocks' concatenation:
    same rows to the bit, same stream state afterwards."""

    STREAM = 30.0 * np.random.default_rng(5).standard_normal((2, 120 * 256))

    @settings(deadline=None)
    @given(
        lead=st.integers(min_value=0, max_value=3000),
        sizes=st.lists(st.integers(min_value=0, max_value=3000), max_size=8),
        tail=st.integers(min_value=1, max_value=1500),
    )
    def test_equals_push_of_concatenation(self, lead, sizes, tail):
        stream = self.STREAM
        joined = StreamingFeatureExtractor(fs=FS)
        split = StreamingFeatureExtractor(fs=FS)
        edges = np.cumsum([lead, *sizes, tail])
        assert edges[-1] <= stream.shape[1]
        blocks = np.split(stream[:, : edges[-1]], edges[:-1], axis=1)
        for extractor in (joined, split):
            extractor.push(blocks[0])
        middle = stream[:, edges[0] : edges[-2]]
        assert np.array_equal(
            bits(split.push_chunks(blocks[1:-1])), bits(joined.push(middle))
        )
        assert split.windows_emitted == joined.windows_emitted
        # The next push continues both streams alike.
        assert np.array_equal(
            bits(split.push(blocks[-1])), bits(joined.push(blocks[-1]))
        )

    def test_invalid_block_leaves_stream_untouched(self):
        stream = StreamingFeatureExtractor(fs=FS)
        with pytest.raises(FeatureError):
            stream.push_chunks([np.zeros((2, 600)), np.zeros((3, 600))])
        assert stream.push(np.zeros((2, 1024))).shape[0] == 1

    def test_block_buffer_is_released(self):
        # A 64 s block grows the buffer past the bound; once its windows
        # are out the stream keeps only the samples the next window
        # needs, within RELEASE_WINDOWS windows plus steps.
        stream = StreamingFeatureExtractor(fs=FS)
        bound = RELEASE_WINDOWS * (1024 + 256)
        assert stream.release_samples == bound
        stream.push_chunks(np.split(self.STREAM[:, : 64 * 256], 16, axis=1))
        assert stream._buffer.shape[1] <= bound
        assert stream._buffer.shape[1] < 1024  # less than one window

    @pytest.mark.parametrize("seconds", [1, 4])
    def test_live_chunks_stay_below_the_bound(self, seconds):
        # Live 1 s and 4 s chunks never grow the buffer to the release
        # bound, so they never pay for a release.
        stream = StreamingFeatureExtractor(fs=FS)
        width = seconds * 256
        widest = 0
        for start in range(0, 60 * 256, width):
            stream.push(self.STREAM[:, start : start + width])
            widest = max(widest, stream._buffer.shape[1])
        assert widest <= stream.release_samples

    @pytest.mark.parametrize("seconds", [1, 4])
    def test_live_stream_settles_on_one_buffer(self, seconds):
        # Once the first window is out, the retained samples move to the
        # front of the buffer in place: a live stream stops allocating.
        stream = StreamingFeatureExtractor(fs=FS)
        width = seconds * 256
        replaced, buffer = 0, None
        for start in range(0, 32 * 256, width):
            stream.push(self.STREAM[:, start : start + width])
            if stream.windows_emitted:
                replaced += buffer is not None and stream._buffer is not buffer
                buffer = stream._buffer
        assert stream.windows_emitted == 29
        assert replaced <= 1


class TestStreamingExtractorGuards:
    @pytest.mark.parametrize("fs", [float("nan"), float("inf")])
    def test_non_finite_fs_raises_feature_error(self, fs):
        # The sign-only guard let NaN through to a bare ValueError and
        # inf to a bare OverflowError.
        with pytest.raises(FeatureError, match="finite and positive"):
            StreamingFeatureExtractor(fs=fs)


class TestRollingBuffer:
    def test_capacity_enforced(self):
        buf = RollingFeatureBuffer(capacity=5, n_features=2)
        buf.extend(np.arange(14.0).reshape(7, 2))
        assert len(buf) == 5
        assert buf.first_index == 2
        assert buf.rows[0, 0] == 4.0  # rows 0,1 evicted

    def test_extend_empty_noop(self):
        buf = RollingFeatureBuffer(capacity=3, n_features=2)
        buf.extend(np.empty((0, 2)))
        assert len(buf) == 0

    def test_invalid_capacity_raises(self):
        with pytest.raises(FeatureError):
            RollingFeatureBuffer(capacity=0, n_features=2)

    def test_nan_capacity_raises(self):
        with pytest.raises(FeatureError, match="capacity must be >= 1"):
            RollingFeatureBuffer(capacity=float("nan"), n_features=2)

    @pytest.mark.parametrize("capacity", [2.5, 3.0, True, float("nan"), "3"])
    def test_non_integer_capacity_raises(self, capacity):
        # 2.5 was accepted and its first overflowing extend raised a
        # bare TypeError from the slice arithmetic.
        with pytest.raises(FeatureError, match="integral"):
            RollingFeatureBuffer(capacity=capacity, n_features=2)

    def test_numpy_integer_capacity_accepted(self):
        buf = RollingFeatureBuffer(capacity=np.int64(2), n_features=1)
        buf.extend(np.arange(3.0).reshape(3, 1))
        assert buf.rows.ravel().tolist() == [1.0, 2.0]

    def test_wrong_feature_count_raises(self):
        buf = RollingFeatureBuffer(capacity=3, n_features=2)
        with pytest.raises(FeatureError, match="rows must be"):
            buf.extend(np.ones((2, 1)))

    @pytest.mark.parametrize("capacity", [1, 7, 60])
    def test_matches_naive_concatenation(self, capacity):
        # The reference keeps the latest ``capacity`` rows by
        # re-concatenating on every push, as the buffer once did.
        rng = np.random.default_rng(capacity)
        buf = RollingFeatureBuffer(capacity=capacity, n_features=3)
        ref = np.empty((0, 3))
        dropped = 0
        held = []
        for _ in range(300):
            n = int(rng.choice([0, 1, 2, 5, capacity - 1, capacity + 3]))
            rows = rng.standard_normal((max(n, 0), 3))
            buf.extend(rows)
            ref = np.concatenate([ref, rows])
            dropped += max(0, ref.shape[0] - capacity)
            ref = ref[-capacity:]
            assert len(buf) == ref.shape[0]
            assert buf.first_index == dropped
            assert np.array_equal(buf.rows, ref)
            held.append((buf.rows, ref))
        # Rows handed out earlier are never overwritten.
        for rows, expected in held:
            assert np.array_equal(rows, expected)

    def test_extend_cost_is_amortized(self):
        # One push per second of an hour's lookback copies each row a
        # bounded number of times, not the whole lookback per push.
        buf = RollingFeatureBuffer(capacity=3600, n_features=10)
        rows = np.ones((1, 10))
        backings = set()
        for _ in range(4 * 3600):
            buf.extend(rows)
            backings.add(id(buf._data))
        assert len(buf) == 3600
        assert buf._data.shape[0] <= 2 * 3600
        # Doubling to the capacity, then one compaction per capacity rows.
        assert len(backings) <= 16


class TestStreamingLabeler:
    def test_finds_streamed_seizure(self, dataset):
        rec = dataset.generate_sample(8, 0, 0)
        truth = rec.annotations[0]
        labeler = StreamingLabeler(
            avg_seizure_duration_s=dataset.mean_seizure_duration(8),
            fs=rec.fs,
            lookback_s=rec.duration_s + 10.0,
        )
        pos = 0
        while pos < rec.n_samples:
            labeler.push(rec.data[:, pos : pos + 4096])
            pos += 4096
        ann, detection = labeler.trigger()
        assert abs(ann.onset_s - truth.onset_s) < 30.0
        assert ann.source == "algorithm"

    def test_eviction_keeps_stream_time(self, dataset):
        # Buffer shorter than the record: positions must stay in stream
        # time even after rows are evicted.
        rec = dataset.generate_sample(8, 1, 0)
        truth = rec.annotations[0]
        # Retain the seizure plus a minute before it, and no more.
        lookback = rec.duration_s - truth.onset_s + 60.0
        assert lookback < rec.duration_s, "the draw leaves nothing to evict"
        labeler = StreamingLabeler(
            avg_seizure_duration_s=dataset.mean_seizure_duration(8),
            fs=rec.fs,
            lookback_s=lookback,
        )
        pos = 0
        while pos < rec.n_samples:
            labeler.push(rec.data[:, pos : pos + 8192])
            pos += 8192
        ann, _ = labeler.trigger()
        assert abs(ann.onset_s - truth.onset_s) < 60.0

    def test_trigger_without_data_raises(self):
        labeler = StreamingLabeler(avg_seizure_duration_s=50.0, lookback_s=600.0)
        with pytest.raises(LabelingError):
            labeler.trigger()

    def test_invalid_config_raises(self):
        with pytest.raises(LabelingError):
            StreamingLabeler(avg_seizure_duration_s=0.0)
        with pytest.raises(LabelingError):
            StreamingLabeler(avg_seizure_duration_s=100.0, lookback_s=150.0)

    def test_seconds_buffered(self):
        labeler = StreamingLabeler(avg_seizure_duration_s=10.0, lookback_s=120.0)
        labeler.push(np.zeros((2, int(10 * FS))))
        # 10 s of signal -> 7 windows -> 7 s of feature history.
        assert labeler.seconds_buffered == 7.0
