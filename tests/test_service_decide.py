"""Decide on demand: admitted chunks wait in their session's queue until
the session is due (``DECIDE_WINDOWS`` window steps queued, or a full
queue) or polled/closed, and are then decided in joined blocks.

The oracle is the batch path: whatever the chunking, the poll and close
points, the other sessions and the consumer's timing, each session's
decisions equal :func:`batch_window_decisions` of the samples it
admitted, and telemetry counts every admitted chunk once.
"""

import asyncio
import json
import queue
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.records import EEGRecord
from repro.features.paper10 import Paper10FeatureExtractor
from repro.service import (
    DetectionService,
    ServiceConfig,
    SessionManager,
    batch_window_decisions,
)
from repro.service.fleet import consume, shard_dispatch
from repro.service.framing import chunk_message, encode_frame
from repro.service.manager import DECIDE_WINDOWS

FS = 256
STEP = FS  # the default 4 s / 1 s window spec hops 256 samples
_LEN = struct.Struct(">I")


def chunk_sizes():
    # 4 s chunks join DECIDE_WINDOWS // 4 to a block; one sample more
    # than a block overshoots it.
    return st.one_of(
        st.sampled_from(
            [STEP, 4 * STEP, DECIDE_WINDOWS * STEP, DECIDE_WINDOWS * STEP + 1]
        ),
        st.integers(min_value=1, max_value=6 * STEP),
    )


def operations(n_sessions):
    op = st.one_of(
        st.tuples(st.just("chunk"), chunk_sizes()),
        st.tuples(st.just("poll"), st.sampled_from([None, 1, 5])),
        st.tuples(st.just("close"), st.none()),
    )
    return st.lists(
        st.tuples(st.integers(0, n_sessions - 1), op), max_size=30
    )


class TestDifferential:
    @settings(
        deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        data=st.data(),
        n_sessions=st.integers(min_value=2, max_value=3),
        depth=st.sampled_from([1, 2, 4, 64]),
        with_consumer=st.booleans(),
    )
    def test_decisions_and_telemetry_match_batch(
        self, sample_record, data, n_sessions, depth, with_consumer
    ):
        ops = data.draw(operations(n_sessions))
        manager = SessionManager(ServiceConfig(queue_depth=depth))
        dirty = queue.Queue()
        consumer = None
        if with_consumer:
            consumer = threading.Thread(
                target=consume, args=(manager, dirty), daemon=True
            )
            consumer.start()
        ids = [f"s{k}" for k in range(n_sessions)]
        # Each session streams its own stretch of the record.
        starts = [k * 20 * FS for k in range(n_sessions)]
        offset = list(starts)
        seq = [0] * n_sessions
        decided = {sid: [] for sid in ids}
        summaries = {}
        admitted = 0
        for sid in ids:
            assert shard_dispatch(manager, dirty, {"op": "open", "session": sid})["ok"]

        def close(k):
            reply = shard_dispatch(manager, dirty, {"op": "close", "session": ids[k]})
            assert reply["ok"]
            decided[ids[k]] += reply["trailing_events"]
            summaries[ids[k]] = reply

        for k, (op, arg) in ops:
            if ids[k] in summaries:
                continue
            if op == "chunk":
                block = sample_record.data[:, offset[k] : offset[k] + arg]
                reply = shard_dispatch(
                    manager, dirty, chunk_message(ids[k], seq[k], block)
                )
                assert reply["ok"]
                if reply["accepted"]:
                    offset[k] += arg
                    seq[k] += 1
                    admitted += 1
            elif op == "poll":
                message = {"op": "poll", "session": ids[k]}
                if arg is not None:
                    message["max"] = arg
                reply = shard_dispatch(manager, dirty, message)
                assert reply["ok"]
                decided[ids[k]] += reply["events"]
            else:
                close(k)
        for k, sid in enumerate(ids):
            if sid not in summaries:
                close(k)
        if consumer is not None:
            dirty.put(None)
            consumer.join()

        total = 0
        for k, sid in enumerate(ids):
            stream = sample_record.data[:, starts[k] : offset[k]]
            summary = summaries[sid]
            assert summary["chunks"] == seq[k]
            assert summary["samples"] == stream.shape[1]
            if stream.shape[1] < 4 * FS:
                assert summary["error"].startswith("FeatureError")
                assert decided[sid] == []
                continue
            expected = batch_window_decisions(EEGRecord(data=stream, fs=FS))
            assert decided[sid] == [d.to_dict() for d in expected]
            assert summary["windows"] == len(expected)
            total += len(expected)
        snapshot = manager.snapshot()
        assert snapshot["chunks"]["ingested"] == admitted
        assert snapshot["chunks"]["processed"] == admitted
        assert snapshot["latency"]["count"] == admitted
        assert snapshot["windows"]["decided"] == total
        assert snapshot["queue"]["depth"] == 0


class _CountingQueue(queue.Queue):
    """A consumer queue that fails a put of a session it already holds."""

    def put_nowait(self, item):
        with self.mutex:
            assert item not in self.queue, f"{item} handed over twice"
        super().put_nowait(item)


class TestConcurrentHandOff:
    def test_threads_decide_every_chunk_once(self, sample_record):
        # More threads than cores and a short switch interval: four
        # producers (one session each) and two consumers share the
        # manager, the hand-off flags and the consumer queue.
        sizes = [FS, 4 * FS, 3 * FS + 17, 6 * FS, 2 * FS - 5]
        manager = SessionManager(ServiceConfig(queue_depth=8))
        dirty = _CountingQueue()
        ids = [f"s{k}" for k in range(4)]
        results, errors = {}, []

        def produce(k):
            try:
                sid, offset, events = ids[k], k * 30 * FS, []
                start = offset
                shard_dispatch(manager, dirty, {"op": "open", "session": sid})
                for seq in range(40):
                    size = sizes[(seq + k) % len(sizes)]
                    block = sample_record.data[:, offset : offset + size]
                    while not shard_dispatch(
                        manager, dirty, chunk_message(sid, seq, block)
                    )["accepted"]:
                        events += shard_dispatch(
                            manager, dirty, {"op": "poll", "session": sid}
                        )["events"]
                    offset += size
                    if seq % 7 == 6:
                        events += shard_dispatch(
                            manager, dirty, {"op": "poll", "session": sid}
                        )["events"]
                closed = shard_dispatch(manager, dirty, {"op": "close", "session": sid})
                results[sid] = (start, offset, events + closed["trailing_events"])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumers = [
                threading.Thread(target=consume, args=(manager, dirty), daemon=True)
                for _ in range(2)
            ]
            producers = [
                threading.Thread(target=produce, args=(k,), daemon=True)
                for k in range(len(ids))
            ]
            for thread in consumers + producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=60)
            for _ in consumers:
                dirty.put(None)
            for thread in consumers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in consumers + producers)
        if errors:
            raise errors[0]
        for sid, (start, end, events) in results.items():
            stream = EEGRecord(data=sample_record.data[:, start:end], fs=FS)
            assert events == [d.to_dict() for d in batch_window_decisions(stream)]
        snapshot = manager.snapshot()
        admitted = snapshot["chunks"]["ingested"]
        assert admitted == 40 * len(ids)
        assert snapshot["chunks"]["processed"] == admitted
        assert snapshot["latency"]["count"] == admitted
        assert snapshot["queue"]["depth"] == 0


class TestPerSessionBarrier:
    """A poll decides its own session only: another session's queued
    chunks are not decided for it (no head-of-line blocking)."""

    def test_shard_poll_leaves_other_sessions_queued(self, sample_record):
        manager = SessionManager(ServiceConfig())
        dirty = queue.Queue()
        consumer = threading.Thread(
            target=consume, args=(manager, dirty), daemon=True
        )
        consumer.start()
        try:
            for sid in ("a", "b"):
                shard_dispatch(manager, dirty, {"op": "open", "session": sid})
            for seq in range(2):  # 8 s: short of a due block
                block = sample_record.data[:, seq * 4 * FS : (seq + 1) * 4 * FS]
                assert shard_dispatch(
                    manager, dirty, chunk_message("b", seq, block)
                )["accepted"]
            shard_dispatch(
                manager, dirty, chunk_message("a", 0, sample_record.data[:, : 5 * FS])
            )
            polled = shard_dispatch(manager, dirty, {"op": "poll", "session": "a"})
            assert [e["window_index"] for e in polled["events"]] == [0, 1]
            assert manager.queue_depth("b") == 2
            assert manager.snapshot()["chunks"]["processed"] == 1
        finally:
            dirty.put(None)
            consumer.join()

    def test_socket_poll_leaves_other_sessions_queued(self, sample_record):
        async def request(reader, writer, message):
            writer.write(encode_frame(message))
            await writer.drain()
            (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
            return json.loads(await reader.readexactly(length))

        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    for sid in ("a", "b"):
                        await request(reader, writer, {"op": "open", "session": sid})
                    for seq in range(2):
                        lo = seq * 4 * FS
                        await request(reader, writer, chunk_message(
                            "b", seq, sample_record.data[:, lo : lo + 4 * FS]
                        ))
                    await request(reader, writer, chunk_message(
                        "a", 0, sample_record.data[:, : 5 * FS]
                    ))
                    polled = await request(
                        reader, writer, {"op": "poll", "session": "a"}
                    )
                    queued_b = service.manager.queue_depth("b")
                    closed = await request(
                        reader, writer, {"op": "close", "session": "b"}
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
                return polled, queued_b, closed

        polled, queued_b, closed = asyncio.run(go())
        assert len(polled["events"]) == 2
        assert queued_b == 2
        # b's own close decides its queue: 8 s -> 5 windows.
        assert closed["windows"] == 5 and len(closed["trailing_events"]) == 5


#: 4 s chunks that make up one block of DECIDE_WINDOWS window steps.
CHUNKS_PER_BLOCK = DECIDE_WINDOWS // 4


class TestJoinedBlocks:
    def test_backlog_is_decided_in_blocks_of_at_most_decide_windows(
        self, sample_record, monkeypatch
    ):
        calls = []
        extract_batch = Paper10FeatureExtractor.extract_batch

        def spy(self, windows, fs):
            calls.append(len(windows))
            return extract_batch(self, windows, fs)

        monkeypatch.setattr(Paper10FeatureExtractor, "extract_batch", spy)
        manager = SessionManager(ServiceConfig())
        manager.open_session("p")
        n_chunks = 4 * CHUNKS_PER_BLOCK  # a backlog of four blocks
        for seq in range(n_chunks):
            block = sample_record.data[:, seq * 4 * FS : (seq + 1) * 4 * FS]
            manager.ingest("p", block, seq=seq)
        assert calls == []  # ingest never decides
        events = manager.poll_events("p")
        assert len(events) == 4 * DECIDE_WINDOWS - 3
        # Four pushes of one block each: the first completes three
        # windows fewer than its steps (a 4 s window needs 4 steps), the
        # others one window per step.
        assert calls == [DECIDE_WINDOWS - 3] + 3 * [DECIDE_WINDOWS]
        snapshot = manager.snapshot()
        assert snapshot["chunks"]["processed"] == n_chunks
        assert snapshot["latency"]["count"] == n_chunks

    def test_decided_block_releases_its_buffer(self, sample_record):
        # Between blocks a session keeps its queue and an overlap tail,
        # not a block-sized sample buffer.
        manager = SessionManager(ServiceConfig())
        session = manager.open_session("p")
        for seq in range(CHUNKS_PER_BLOCK):
            block = sample_record.data[:, seq * 4 * FS : (seq + 1) * 4 * FS]
            manager.ingest("p", block, seq=seq)
        assert manager.pump("p") == DECIDE_WINDOWS - 3
        stream = session.stream
        assert DECIDE_WINDOWS * STEP > stream.release_samples
        assert stream._buffer.shape[1] <= stream.release_samples

    def test_a_larger_chunk_goes_alone(self, sample_record):
        manager = SessionManager(ServiceConfig())
        manager.open_session("p")
        manager.ingest("p", sample_record.data[:, : 2 * FS])
        manager.ingest("p", sample_record.data[:, 2 * FS : 20 * FS])
        assert manager.pump("p", max_chunks=1) == 0  # 2 s: no window yet
        assert manager.queue_depth("p") == 1
        assert manager.pump("p") == 17


class TestHandOff:
    def test_due_once_per_hand_off(self):
        manager = SessionManager(ServiceConfig())
        manager.open_session("p")
        four_s = np.zeros((2, 4 * FS))
        for _ in range(CHUNKS_PER_BLOCK - 1):
            manager.ingest("p", four_s)
            assert not manager.claim_due("p")  # short of a block
        manager.ingest("p", four_s)
        assert manager.claim_due("p")  # DECIDE_WINDOWS steps: due
        manager.ingest("p", four_s)
        assert not manager.claim_due("p")  # already handed over
        # The consumer decides the due block; the 4 s left over wait.
        assert manager.pump("p", due_only=True) == DECIDE_WINDOWS - 3
        assert manager.queue_depth("p") == 1
        assert not manager.claim_due("p")

    def test_full_queue_is_due(self):
        manager = SessionManager(ServiceConfig(queue_depth=2))
        manager.open_session("p")
        manager.ingest("p", np.zeros((2, FS)))
        assert not manager.claim_due("p")
        manager.ingest("p", np.zeros((2, FS)))
        assert manager.claim_due("p")

    @pytest.mark.parametrize("policy", ["reject", "shed-oldest"])
    def test_served_hand_off_decides_nothing(self, policy):
        manager = SessionManager(ServiceConfig(backpressure=policy))
        manager.open_session("p")
        manager.ingest("p", np.zeros((2, DECIDE_WINDOWS * STEP)))
        assert manager.claim_due("p")
        manager.poll_events("p")  # the poll decides before the consumer
        manager.ingest("p", np.zeros((2, 4 * FS)))
        assert manager.pump("p", due_only=True) == 0
        assert manager.queue_depth("p") == 1
