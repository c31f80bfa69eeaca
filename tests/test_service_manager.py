"""SessionManager: bounded queues, ordering, backpressure, close semantics."""

import json

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.features.base import FeatureExtractor
from repro.service import (
    IngestResult,
    ServiceConfig,
    SessionManager,
    SessionSummary,
    WindowDecision,
    batch_window_decisions,
)

FS = 256


class MeanExtractor(FeatureExtractor):
    """Minimal single-channel extractor for geometry tests."""

    channel_names = ("C1",)

    @property
    def feature_names(self):
        return ("mean",)

    def extract_window(self, window, fs):
        return np.array([window.mean()])


def small_manager(depth=2, policy="reject"):
    return SessionManager(
        ServiceConfig(queue_depth=depth, backpressure=policy)
    )


def chunk(seconds=1.0, value=0.0):
    return np.full((2, int(seconds * FS)), value)


class TestLifecycle:
    def test_duplicate_session_raises(self):
        manager = SessionManager()
        manager.open_session("a")
        with pytest.raises(ServiceError):
            manager.open_session("a")

    def test_unknown_session_raises(self):
        manager = SessionManager()
        with pytest.raises(ServiceError):
            manager.ingest("ghost", chunk())
        with pytest.raises(ServiceError):
            manager.pump("ghost")
        with pytest.raises(ServiceError):
            manager.close_session("ghost")

    def test_close_deregisters(self):
        manager = SessionManager()
        manager.open_session("a")
        manager.ingest("a", chunk(5.0))
        manager.close_session("a")
        assert len(manager) == 0
        manager.open_session("a")  # the id is reusable after close

    def test_ingest_into_closed_underlying_session_raises(self):
        manager = SessionManager()
        session = manager.open_session("a")
        manager.ingest("a", chunk(5.0))
        manager.pump("a")
        session.finalize()
        with pytest.raises(ServiceError):
            manager.ingest("a", chunk())


class TestUndecidableChunks:
    """A chunk the detector would fail on is refused at ingest: it once
    killed the consumer and left every later barrier blocked."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_are_refused(self, bad):
        manager = SessionManager()
        manager.open_session("a")
        block = chunk(5.0)
        block[1, 10] = bad
        with pytest.raises(ServiceError, match="NaN or infinite"):
            manager.ingest("a", block, seq=0)
        assert manager.queue_depth("a") == 0
        # The refused chunk took no sequence number.
        assert manager.ingest("a", chunk(5.0), seq=0).accepted
        assert manager.pump("a") == 2

    @pytest.mark.parametrize("shape", [(3, FS), (1, FS), (FS,), (2, 2, FS)])
    def test_wrong_channel_count_is_refused(self, shape):
        manager = SessionManager()
        manager.open_session("a")
        with pytest.raises(ServiceError, match=r"\(2, n\) samples"):
            manager.ingest("a", np.zeros(shape), seq=0)
        assert manager.queue_depth("a") == 0
        assert manager.snapshot()["chunks"]["ingested"] == 0
        assert manager.ingest("a", chunk(), seq=0).accepted


class TestOrdering:
    def test_sequenced_ingest_accepts_in_order(self):
        manager = SessionManager()
        manager.open_session("a")
        for seq in range(3):
            assert manager.ingest("a", chunk(), seq=seq).accepted

    def test_out_of_order_seq_raises(self):
        manager = SessionManager()
        manager.open_session("a")
        manager.ingest("a", chunk(), seq=0)
        with pytest.raises(ServiceError, match="out-of-order"):
            manager.ingest("a", chunk(), seq=2)
        with pytest.raises(ServiceError, match="out-of-order"):
            manager.ingest("a", chunk(), seq=0)  # replay is also an error

    def test_1d_chunk_promoted_in_single_channel_config(self):
        manager = SessionManager(
            ServiceConfig(n_channels=1, extractor=MeanExtractor())
        )
        manager.open_session("a")
        manager.ingest("a", np.zeros(5 * FS))
        assert manager.pump("a") == 2  # 5 s -> two 4s/1s windows


class TestBackpressure:
    def test_reject_policy_surfaces_full_queue(self):
        manager = small_manager(depth=2, policy="reject")
        manager.open_session("a")
        assert manager.ingest("a", chunk()).accepted
        assert manager.ingest("a", chunk()).accepted
        result = manager.ingest("a", chunk())
        assert not result.accepted
        assert "reject" in result.reason
        assert manager.queue_depth("a") == 2
        assert manager.snapshot()["chunks"]["rejected"] == 1

    def test_shed_oldest_drops_head_and_counts(self):
        manager = small_manager(depth=2, policy="shed-oldest")
        manager.open_session("a")
        manager.ingest("a", chunk(value=1.0))
        manager.ingest("a", chunk(value=2.0))
        result = manager.ingest("a", chunk(value=3.0))
        assert result.accepted
        assert result.shed == 1
        assert result.reason == "shed-oldest"
        assert manager.queue_depth("a") == 2
        snapshot = manager.snapshot()
        assert snapshot["chunks"]["shed"] == 1
        # The oldest chunk (value 1.0) is the one that was dropped.
        summary = manager.close_session("a")
        assert summary.shed == 1
        assert summary.samples == 2 * FS

    def test_drained_queue_accepts_again(self):
        manager = small_manager(depth=1, policy="reject")
        manager.open_session("a")
        manager.ingest("a", chunk())
        assert not manager.ingest("a", chunk()).accepted
        manager.pump("a")
        assert manager.ingest("a", chunk()).accepted


class TestPump:
    def test_pump_decides_and_counts_windows(self, sample_record):
        manager = SessionManager()
        manager.open_session("a")
        manager.ingest("a", sample_record.data[:, : 10 * FS])
        assert manager.pump("a") == 7
        events = manager.poll_events("a")
        assert [e.window_index for e in events] == list(range(7))

    def test_pump_drains_every_queued_chunk(self):
        manager = SessionManager()
        manager.open_session("a")
        for _ in range(3):
            manager.ingest("a", chunk(2.0))
        assert manager.pump("a") == 3  # 6 s of samples -> 3 windows
        assert manager.queue_depth("a") == 0

    def test_pump_all_round_robin(self):
        manager = SessionManager()
        for sid in ("a", "b"):
            manager.open_session(sid)
            manager.ingest(sid, chunk(5.0))
        assert manager.pump_all() == 4  # two 5 s streams -> 2 windows each
        assert manager.queue_depth("a") == manager.queue_depth("b") == 0


class TestClose:
    def test_close_drains_queued_chunks(self, sample_record):
        # Close must decide admitted-but-unpumped chunks: a disconnect
        # never discards data the service accepted.
        manager = SessionManager()
        manager.open_session("a")
        manager.ingest("a", sample_record.data[:, : 10 * FS])
        summary = manager.close_session("a")
        assert summary.windows == 7
        assert summary.shed == 0
        assert [e.window_index for e in summary.trailing_events] == list(
            range(7)
        )

    def test_finalize_on_disconnect_matches_batch_decisions(
        self, sample_record
    ):
        # A client that pushes a whole record and vanishes: close() must
        # deliver exactly the batch path's decisions as trailing events.
        # ~86 chunks sit queued with no pump, so the queue must fit them.
        manager = SessionManager(ServiceConfig(queue_depth=128))
        manager.open_session("a")
        for lo in range(0, sample_record.n_samples, 4 * FS):
            manager.ingest("a", sample_record.data[:, lo : lo + 4 * FS])
        summary = manager.close_session("a")
        assert summary.error is None
        assert list(summary.trailing_events) == batch_window_decisions(
            sample_record
        )

    def test_close_short_stream_reports_feature_error(self):
        manager = SessionManager()
        manager.open_session("a")
        manager.ingest("a", chunk(1.0))
        summary = manager.close_session("a")
        assert summary.error is not None
        assert summary.error.startswith("FeatureError")
        assert summary.windows == 0
        assert len(manager) == 0  # still deregistered

    def test_close_all(self):
        manager = SessionManager()
        for i in range(5):
            manager.open_session(f"s{i}")
            manager.ingest(f"s{i}", chunk(5.0))
        summaries = manager.close_all()
        assert len(summaries) == 5
        assert all(s.windows == 2 for s in summaries)
        assert len(manager) == 0


class TestManySessions:
    def test_sessions_are_independent(self, sample_record):
        # Interleave 40 sessions fed different slices; each must decide
        # exactly its own stream.
        manager = SessionManager()
        n = 40
        for i in range(n):
            manager.open_session(f"s{i}")
        for step in range(3):
            for i in range(n):
                lo = (i * 1000 + step * 5 * FS) % (
                    sample_record.n_samples - 5 * FS
                )
                manager.ingest(
                    f"s{i}", sample_record.data[:, lo : lo + 5 * FS], seq=step
                )
        manager.pump_all()
        snapshot = manager.snapshot()
        assert snapshot["sessions"]["active"] == n
        assert snapshot["chunks"]["ingested"] == 3 * n
        for i in range(n):
            events = manager.poll_events(f"s{i}")
            # 15 s of signal -> 12 windows, regardless of neighbors.
            assert len(events) == 12
        manager.close_all()
        assert manager.snapshot()["sessions"]["active"] == 0


class TestTelemetryCounters:
    def test_snapshot_counts(self):
        manager = SessionManager()
        manager.open_session("a")
        manager.ingest("a", chunk(5.0))
        manager.ingest("a", chunk(5.0))
        manager.pump("a")
        snapshot = manager.snapshot()
        assert snapshot["sessions"] == {
            "opened": 1,
            "closed": 0,
            "active": 1,
        }
        assert snapshot["chunks"]["ingested"] == 2
        assert snapshot["chunks"]["processed"] == 2
        assert snapshot["queue"]["high_water"] == 2
        assert snapshot["latency"]["count"] == 2
        assert snapshot["windows"]["decided"] == 7


class TestReplies:
    """The ``chunk`` and ``close`` ok-replies, pinned key by key: the
    wire protocol serializes them with ``json.dumps``, so their key
    order is part of the reply bytes."""

    def test_ingest_reply(self):
        result = IngestResult(
            session_id="p", accepted=False, queued=3, shed=1, reason="full"
        )
        reply = result.to_reply()
        assert json.dumps(reply) == (
            '{"ok": true, "session_id": "p", "accepted": false, '
            '"queued": 3, "shed": 1, "reason": "full"}'
        )
        assert IngestResult.from_reply(reply) == result

    @pytest.mark.parametrize("error", [None, "FeatureError: too short"])
    def test_summary_reply(self, error):
        event = WindowDecision(
            window_index=4, onset_s=4.0, score=0.25, positive=False
        )
        summary = SessionSummary(
            session_id="p", windows=5, chunks=2, samples=2048, shed=0,
            trailing_events=(event,), error=error,
        )
        reply = summary.to_reply()
        assert json.dumps(reply) == (
            '{"session_id": "p", "windows": 5, "chunks": 2, '
            '"samples": 2048, "shed": 0, "trailing_events": '
            '[{"window_index": 4, "onset_s": 4.0, "score": 0.25, '
            '"positive": false}], "error": ' + json.dumps(error)
            + ', "ok": true}'
        )
        assert SessionSummary.from_reply(reply) == summary
