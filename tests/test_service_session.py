"""DetectorSession: push/poll lifecycle and the batch-parity contract."""

import re

import numpy as np
import pytest

from repro.core.streaming import StreamingFeatureExtractor
from repro.exceptions import FeatureError, ServiceError
from repro.features.paper10 import Paper10FeatureExtractor
from repro.ml.validation import build_balanced_training_set
from repro.selflearning.detector import RealTimeDetector
from repro.service import (
    DetectorSession,
    FeatureThresholdDetector,
    ForestWindowDetector,
    ServiceConfig,
    batch_window_decisions,
    decisions_from_scores,
)


def stream_decisions(record, chunk_samples, detector=None, config=None):
    """Push a record through a fresh session in fixed-size chunks."""
    session = DetectorSession("t", config, detector)
    for lo in range(0, record.n_samples, chunk_samples):
        session.push_chunk(record.data[:, lo : lo + chunk_samples])
    events = session.poll_events()
    session.finalize()
    return events, session


class TestBatchParity:
    @pytest.mark.parametrize("chunk_samples", [256, 997, 4096, 10**9])
    def test_streamed_equals_batch_any_chunking(
        self, sample_record, chunk_samples
    ):
        batch = batch_window_decisions(sample_record)
        events, _ = stream_decisions(sample_record, chunk_samples)
        assert events == batch

    def test_scores_are_feature_values(self, sample_record):
        from repro.features.extraction import extract_features

        config = ServiceConfig()
        feats = extract_features(sample_record, config.extractor, config.spec)
        events, _ = stream_decisions(sample_record, 1024)
        assert [e.score for e in events] == [
            float(v) for v in feats.values[:, 0]
        ]

    def test_window_indices_and_onsets_are_stream_time(self, sample_record):
        events, _ = stream_decisions(sample_record, 777)
        assert [e.window_index for e in events] == list(range(len(events)))
        assert events[5].onset_s == 5 * ServiceConfig().spec.step_s

    def test_forest_detector_matches_batch_probabilities(
        self, dataset, sample_record
    ):
        ex = Paper10FeatureExtractor()
        seiz = [dataset.generate_sample(8, k, 0) for k in (0, 1)]
        free = [dataset.generate_seizure_free(8, 180.0, 0)]
        ts = build_balanced_training_set(seiz, free, ex, context_s=30.0)
        rt = RealTimeDetector(extractor=ex, n_estimators=10).fit(ts)

        detector = ForestWindowDetector(rt)
        events, _ = stream_decisions(sample_record, 2048, detector)
        batch_proba = rt.window_probabilities(sample_record)
        assert [e.score for e in events] == [float(p) for p in batch_proba]
        assert [e.positive for e in events] == [
            bool(p >= rt.threshold) for p in batch_proba
        ]

    def test_forest_detector_requires_fitted(self):
        with pytest.raises(ServiceError):
            ForestWindowDetector(
                RealTimeDetector(extractor=Paper10FeatureExtractor())
            )


class TestLifecycle:
    def test_partial_window_emits_nothing(self):
        session = DetectorSession("t")
        fs = int(session.config.fs)
        assert session.push_chunk(np.zeros((2, 3 * fs))) == 0
        assert session.pending_events == 0
        # The 4th second completes the first 4 s window.
        assert session.push_chunk(np.zeros((2, fs))) == 1
        assert session.pending_events == 1

    def test_poll_events_drains_in_order(self, sample_record):
        session = DetectorSession("t")
        session.push_chunk(sample_record.data[:, : 10 * 256])
        first = session.poll_events(max_events=3)
        rest = session.poll_events()
        assert [e.window_index for e in first] == [0, 1, 2]
        assert [e.window_index for e in rest] == list(
            range(3, 3 + len(rest))
        )
        assert session.pending_events == 0

    def test_poll_events_bad_max_raises(self):
        with pytest.raises(ServiceError):
            DetectorSession("t").poll_events(max_events=0)

    @pytest.mark.parametrize("bad", ["1", [1], 1.5, True, 2.0])
    def test_poll_events_mistyped_max_is_a_service_error(
        self, sample_record, bad
    ):
        # With events buffered, a float once reached range() as a
        # TypeError that escaped every dispatch error handler.
        session = DetectorSession("t")
        session.push_chunk(sample_record.data[:, : 10 * 256])
        with pytest.raises(ServiceError, match=re.escape(repr(bad))):
            session.poll_events(max_events=bad)
        assert session.pending_events == 7  # nothing drained

    def test_poll_events_accepts_numpy_ints(self, sample_record):
        session = DetectorSession("t")
        session.push_chunk(sample_record.data[:, : 10 * 256])
        assert len(session.poll_events(max_events=np.int64(2))) == 2

    def test_push_after_finalize_raises(self, sample_record):
        session = DetectorSession("t")
        session.push_chunk(sample_record.data[:, : 10 * 256])
        session.finalize()
        with pytest.raises(ServiceError):
            session.push_chunk(sample_record.data[:, :256])

    def test_finalize_emits_no_trailing_windows(self, sample_record):
        # 10.5 s of signal: 7 complete windows; the half-built 8th must
        # be discarded on finalize, exactly as in batch extraction.
        session = DetectorSession("t")
        session.push_chunk(sample_record.data[:, : int(10.5 * 256)])
        before = session.windows_emitted
        total = session.finalize()
        assert total == before == 7
        assert session.pending_events == 7  # still pollable after close

    def test_finalize_short_stream_matches_streaming_error(self):
        # The service must report the same short-stream failure the
        # shared streaming extractor raises.
        config = ServiceConfig()
        stream = StreamingFeatureExtractor(
            config.extractor, config.fs, config.spec, config.n_channels
        )
        stream.push(np.zeros((2, 256)))
        with pytest.raises(FeatureError) as ref:
            stream.finalize()

        session = DetectorSession("t", config)
        session.push_chunk(np.zeros((2, 256)))
        with pytest.raises(FeatureError) as got:
            session.finalize()
        assert str(got.value) == str(ref.value)

    def test_counters(self, sample_record):
        session = DetectorSession("t")
        session.push_chunk(sample_record.data[:, :1000])
        session.push_chunk(sample_record.data[:, 1000:1500])
        assert session.chunks_ingested == 2
        assert session.samples_ingested == 1500


class TestServiceConfig:
    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"fs": float("nan")}, "fs must be finite and positive, got nan"),
            ({"fs": float("inf")}, "fs must be finite and positive, got inf"),
            ({"fs": 0.0}, "fs must be finite and positive, got 0.0"),
            ({"threshold": float("nan")}, "threshold must be a number, got nan"),
        ],
    )
    def test_non_finite_knobs_refused(self, knobs, message):
        with pytest.raises(ServiceError, match=re.escape(message)):
            ServiceConfig(**knobs)

    def test_infinite_threshold_is_never_or_always_positive(self):
        scores = np.array([-1e300, 0.0, 1e300])
        for threshold, positive in ((float("inf"), False), (-float("inf"), True)):
            config = ServiceConfig(threshold=threshold)
            decisions = decisions_from_scores(scores, 0, 1.0, config.threshold)
            assert [d.positive for d in decisions] == [positive] * 3


class TestDetectors:
    def test_threshold_detector_selects_column(self):
        det = FeatureThresholdDetector(feature_index=2, threshold=1.0)
        rows = np.arange(12, dtype=float).reshape(3, 4)
        assert det.scores(rows).tolist() == [2.0, 6.0, 10.0]

    def test_threshold_detector_validates(self):
        with pytest.raises(ServiceError):
            FeatureThresholdDetector(feature_index=-1)
        with pytest.raises(ServiceError):
            FeatureThresholdDetector(feature_index=5).scores(np.zeros((2, 3)))

    def test_threshold_detector_refuses_nan_threshold(self):
        # ServiceConfig's rule and message; +-inf stays allowed there too.
        with pytest.raises(
            ServiceError, match=re.escape("threshold must be a number, got nan")
        ):
            FeatureThresholdDetector(threshold=float("nan"))
        for threshold in (float("inf"), -float("inf")):
            assert FeatureThresholdDetector(threshold=threshold).threshold == threshold

    def test_decisions_from_scores_threshold_boundary(self):
        decisions = decisions_from_scores(
            np.array([0.4, 0.5, 0.6]), 10, 1.0, 0.5
        )
        assert [d.positive for d in decisions] == [False, True, True]
        assert [d.window_index for d in decisions] == [10, 11, 12]
        assert [d.onset_s for d in decisions] == [10.0, 11.0, 12.0]

    def test_decision_to_dict_round_trip(self):
        (d,) = decisions_from_scores(np.array([1.5]), 3, 2.0, 1.0)
        assert d.to_dict() == {
            "window_index": 3,
            "onset_s": 6.0,
            "score": 1.5,
            "positive": True,
        }
