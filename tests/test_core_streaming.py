"""Unit tests for streaming feature extraction and the streaming labeler."""

import numpy as np
import pytest

from repro.core.streaming import (
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
