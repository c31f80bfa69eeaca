"""Replayer: wall-clock pacing and the seeded-record parity gate."""

import numpy as np
import pytest

from repro.data.records import EEGRecord
from repro.data.sources import ArrayRecordSource
from repro.exceptions import ServiceError
from repro.service import (
    Replayer,
    ServiceConfig,
    SessionManager,
    batch_window_decisions,
)


@pytest.fixture(scope="module")
def source(dataset):
    return dataset.sample_source(1, 0, 0)


@pytest.fixture(scope="module")
def batch(source):
    return batch_window_decisions(source.materialize())


def short_source(seconds=8.0, fs=256.0):
    rng = np.random.default_rng(7)
    record = EEGRecord(
        data=rng.normal(size=(2, int(seconds * fs))),
        fs=fs,
        record_id="short",
    )
    return ArrayRecordSource(record)


class TestParity:
    # The PR's acceptance criterion: replaying the seeded synthetic
    # record yields per-window detections byte-identical to the batch
    # pipeline, at any transport chunking.
    @pytest.mark.parametrize("chunk_s", [0.5, 1.0, 7.3])
    def test_replay_equals_batch(self, source, batch, chunk_s):
        report = Replayer(speed=0, chunk_s=chunk_s).replay(source)
        assert list(report.decisions) == batch
        assert report.windows == len(batch)
        assert report.error is None
        assert report.shed == 0

    def test_report_accounting(self, source, batch):
        report = Replayer(speed=0, chunk_s=2.0).replay(source)
        assert report.record_id == source.record_id
        assert report.patient_id == source.patient_id
        assert report.media_s == pytest.approx(source.duration_s)
        assert report.chunks == int(np.ceil(source.duration_s / 2.0))
        body = report.to_dict()
        assert body["windows"] == len(batch)
        assert body["positive_windows"] == sum(d.positive for d in batch)
        # Wall-clock-dependent numbers stay out of the stable dict.
        assert "wall_s" not in body and "max_lag_s" not in body


class TestPacing:
    def test_paced_replay_takes_media_time_over_speed(self):
        src = short_source(8.0)
        report = Replayer(speed=40.0, chunk_s=1.0).replay(src)
        # The pacer sleeps up to each chunk's deadline, so 8 media
        # seconds at 40x takes at least 7 chunk deadlines of wall time;
        # bound it loosely both ways for CI jitter.
        assert report.wall_s >= 7.0 / 40.0 - 0.02
        assert report.wall_s < 5.0
        assert report.speed == 40.0

    def test_unpaced_replay_has_zero_lag(self):
        report = Replayer(speed=0, chunk_s=1.0).replay(short_source(8.0))
        assert report.max_lag_s == 0.0
        assert report.speed == 0.0
        assert report.realtime_factor > 1.0

    def test_speed_none_means_unpaced(self):
        report = Replayer(speed=None, chunk_s=1.0).replay(short_source(8.0))
        assert report.speed == 0.0


class TestValidation:
    def test_bad_speed_raises(self):
        for speed in (-1.0, float("nan")):
            with pytest.raises(ServiceError):
                Replayer(speed=speed)

    def test_bad_chunk_raises(self):
        for chunk_s in (0.0, float("nan")):
            with pytest.raises(ServiceError):
                Replayer(chunk_s=chunk_s)

    def test_geometry_mismatch_raises(self):
        manager = SessionManager(ServiceConfig(fs=512.0))
        with pytest.raises(ServiceError, match="fs"):
            Replayer(manager, speed=0).replay(short_source(8.0))

    def test_short_record_reports_finalize_error(self):
        report = Replayer(speed=0, chunk_s=1.0).replay(short_source(2.0))
        assert report.windows == 0
        assert report.error is not None
        assert "FeatureError" in report.error


class TestSharedManager:
    def test_replay_feeds_caller_telemetry(self, source):
        # The passed-in manager must be the one actually used (an empty
        # manager is falsy via __len__ — guard against `or` defaulting).
        manager = SessionManager()
        Replayer(manager, speed=0, chunk_s=2.0).replay(source)
        snapshot = manager.snapshot()
        assert snapshot["sessions"]["opened"] == 1
        assert snapshot["sessions"]["closed"] == 1
        assert snapshot["chunks"]["ingested"] > 0
        assert snapshot["latency"]["count"] == snapshot["chunks"]["processed"]
