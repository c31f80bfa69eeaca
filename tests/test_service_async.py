"""DetectionService: async ingest, backpressure propagation, the socket
protocol, and service-vs-batch parity through the async path."""

import asyncio
import json
import struct

import numpy as np

from repro.service import (
    DetectionService,
    ServiceConfig,
    batch_window_decisions,
)
from repro.service.framing import chunk_message, encode_frame

FS = 256
_LEN = struct.Struct(">I")


def run(coro):
    return asyncio.run(coro)


async def request(reader, writer, message):
    writer.write(encode_frame(message))
    await writer.drain()
    (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    return json.loads(await reader.readexactly(length))


class TestInProcessAsync:
    def test_ingest_poll_close_matches_batch(self, sample_record):
        batch = batch_window_decisions(sample_record)

        async def go():
            # ~86 chunks may all be admitted before the consumer task
            # gets scheduled, so the queue must hold the whole record.
            config = ServiceConfig(queue_depth=128)
            async with DetectionService(config) as service:
                await service.open_session("p")
                step = 4 * FS
                for seq, lo in enumerate(
                    range(0, sample_record.n_samples, step)
                ):
                    result = await service.ingest(
                        "p", sample_record.data[:, lo : lo + step], seq=seq
                    )
                    assert result.accepted
                await service.drain()
                events = await service.poll_events("p")
                summary = await service.close_session("p")
                return events, summary

        events, summary = run(go())
        assert events == batch
        assert summary.error is None
        assert summary.windows == len(batch)

    def test_backpressure_reaches_async_caller(self):
        # No consumer running: the queue can only fill.
        config = ServiceConfig(queue_depth=1, backpressure="reject")

        async def go():
            service = DetectionService(config)
            await service.open_session("p")
            first = await service.ingest("p", np.zeros((2, FS)))
            second = await service.ingest("p", np.zeros((2, FS)))
            return first, second

        first, second = run(go())
        assert first.accepted
        assert not second.accepted
        assert "reject" in second.reason

    def test_config_reaches_the_manager(self):
        config = ServiceConfig(queue_depth=3, backpressure="shed-oldest")
        service = DetectionService(config)
        assert service.manager.config is config
        default = DetectionService().manager.config
        assert default.queue_depth == ServiceConfig().queue_depth

    def test_snapshot_counts_service_sessions(self):
        async def go():
            async with DetectionService() as service:
                await service.open_session("p")
                await service.ingest("p", np.zeros((2, 5 * FS)))
                summary = await service.close_session("p")
                return summary, service.snapshot()

        summary, snapshot = run(go())
        assert summary.windows == 2
        assert snapshot["sessions"]["opened"] == 1
        assert snapshot["windows"]["decided"] == 2

    def test_close_session_decides_queued_chunks(self):
        # No consumer running: only the close can decide the chunks.
        async def go():
            service = DetectionService()
            await service.open_session("p")
            await service.ingest("p", np.zeros((2, 5 * FS)))
            await service.ingest("p", np.zeros((2, 5 * FS)))
            return await service.close_session("p"), service.snapshot()

        summary, snapshot = run(go())
        assert summary.windows == 7
        assert len(summary.trailing_events) == 7
        assert summary.shed == 0
        assert snapshot["chunks"]["shed"] == 0

    def test_rejected_chunk_is_an_ok_reply(self):
        # The socket transport's frame handler, with no consumer: a full
        # queue answers the chunk verb with ok and accepted false, never
        # an error frame.
        config = ServiceConfig(queue_depth=1, backpressure="reject")

        async def go():
            service = DetectionService(config)
            await service._dispatch({"op": "open", "session": "p"})
            first = await service._dispatch(
                chunk_message("p", 0, np.zeros((2, FS)))
            )
            second = await service._dispatch(
                chunk_message("p", 1, np.zeros((2, FS)))
            )
            return first, second

        first, second = run(go())
        assert first["ok"] and first["accepted"]
        assert second["ok"] and not second["accepted"]
        assert "reject" in second["reason"]
        assert "error" not in second

    def test_stop_drains_outstanding_chunks(self):
        async def go():
            service = DetectionService()
            await service.start()
            await service.open_session("p")
            await service.ingest("p", np.zeros((2, 6 * FS)))
            snapshot = await service.stop()  # must decide the queued chunk first
            return snapshot, service.manager.poll_events("p")

        snapshot, events = run(go())
        assert len(events) == 3
        # stop() returns the final snapshot, like ServiceShardPool.stop().
        assert snapshot["windows"]["decided"] == 3


class TestSocketProtocol:
    def test_full_round_trip(self, sample_record):
        n = 20 * FS  # 20 s slice keeps the socket test quick
        expected = [
            d.to_dict() for d in batch_window_decisions(
                type(sample_record)(
                    data=sample_record.data[:, :n], fs=sample_record.fs
                )
            )
        ]

        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    opened = await request(
                        reader, writer, {"op": "open", "session": "p"}
                    )
                    assert opened == {"ok": True, "session": "p"}
                    for seq in range(4):
                        lo = seq * 5 * FS
                        reply = await request(
                            reader,
                            writer,
                            chunk_message(
                                "p", seq, sample_record.data[:, lo : lo + 5 * FS]
                            ),
                        )
                        assert reply["ok"] and reply["accepted"]
                    polled = await request(
                        reader, writer, {"op": "poll", "session": "p"}
                    )
                    closed = await request(
                        reader, writer, {"op": "close", "session": "p"}
                    )
                    telemetry = await request(
                        reader, writer, {"op": "telemetry"}
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
                return polled, closed, telemetry

        polled, closed, telemetry = run(go())
        assert polled["ok"]
        assert polled["events"] + closed["trailing_events"] == expected
        assert closed["ok"] and closed["windows"] == len(expected)
        assert closed["error"] is None
        assert telemetry["telemetry"]["chunks"]["ingested"] == 4

    def test_error_frames_do_not_kill_connection(self):
        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    bad_op = await request(reader, writer, {"op": "bogus"})
                    missing = await request(reader, writer, {"op": "open"})
                    unknown = await request(
                        reader, writer, {"op": "poll", "session": "ghost"}
                    )
                    ok = await request(
                        reader, writer, {"op": "open", "session": "p"}
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
                return bad_op, missing, unknown, ok

        bad_op, missing, unknown, ok = run(go())
        assert not bad_op["ok"] and "bogus" in bad_op["error"]
        assert not missing["ok"] and "session" in missing["error"]
        assert not unknown["ok"] and "ghost" in unknown["error"]
        assert ok["ok"]

    def test_out_of_order_seq_is_error_frame(self):
        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    await request(reader, writer, {"op": "open", "session": "p"})
                    await request(
                        reader, writer, chunk_message("p", 0, np.zeros((2, FS)))
                    )
                    reply = await request(
                        reader, writer, chunk_message("p", 5, np.zeros((2, FS)))
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
                return reply

        reply = run(go())
        assert not reply["ok"]
        assert "out-of-order" in reply["error"]

    def test_bad_chunk_payload_is_error_frame(self):
        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    await request(reader, writer, {"op": "open", "session": "p"})
                    reply = await request(
                        reader,
                        writer,
                        {
                            "op": "chunk",
                            "session": "p",
                            "shape": [2, 100],
                            "data": b"short",
                        },
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
                return reply

        reply = run(go())
        assert not reply["ok"]
        assert "bytes" in reply["error"]

    def test_oversized_frame_closes_connection(self):
        from repro.service.ingest import MAX_FRAME_BYTES

        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(_LEN.pack(MAX_FRAME_BYTES + 1))
                    await writer.drain()
                    (length,) = _LEN.unpack(
                        await reader.readexactly(_LEN.size)
                    )
                    reply = json.loads(await reader.readexactly(length))
                    eof = await reader.read(1)
                finally:
                    writer.close()
                    await writer.wait_closed()
                return reply, eof

        reply, eof = run(go())
        assert not reply["ok"]
        assert "limit" in reply["error"]
        assert eof == b""  # server hung up after the protocol violation


    def test_swap_with_cyclic_tree_is_refused_and_forest_keeps_deciding(
        self, sample_record, fitted_detector
    ):
        """A ``swap_detector`` whose forest holds a cyclic tree (one that
        would spin the scorer forever) gets an error frame at swap time;
        the session keeps deciding with the forest it was opened with."""
        from repro.service import ForestWindowDetector

        n, half, step = 12 * FS, 6 * FS, 2 * FS
        record = type(sample_record)(
            data=sample_record.data[:, :n], fs=sample_record.fs
        )
        expected = [
            d.to_dict() for d in batch_window_decisions(
                record, ForestWindowDetector(fitted_detector)
            )
        ]
        state = fitted_detector.to_state()
        cyclic = json.loads(json.dumps(state))
        cyclic["forest"]["trees"][0].update(
            feature=[0, -1], threshold=[0.0, 0.0], left=[0, -1],
            right=[1, -1], proba=[[0.5, 0.5], [1.0, 0.0]],
        )

        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    opened = await request(
                        reader, writer,
                        {"op": "open", "session": "p", "state": state},
                    )
                    assert opened["ok"]
                    replies = []
                    for seq, lo in enumerate(range(0, n, step)):
                        if lo == half:
                            replies.append(await request(
                                reader, writer,
                                {"op": "swap_detector", "state": cyclic},
                            ))
                        reply = await request(
                            reader, writer,
                            chunk_message("p", seq, record.data[:, lo : lo + step]),
                        )
                        assert reply["ok"] and reply["accepted"]
                    polled = await request(
                        reader, writer, {"op": "poll", "session": "p"}
                    )
                    closed = await request(
                        reader, writer, {"op": "close", "session": "p"}
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
                return replies, polled, closed

        (swap,), polled, closed = run(go())
        assert not swap["ok"] and swap["code"] == "protocol"
        assert "child" in swap["error"]
        assert polled["events"] + closed["trailing_events"] == expected
        assert closed["error"] is None


class TestConcurrentClients:
    """Several client connections sharing one service: interleaved
    frames stay correlated per stream, one client's errors never leak
    into another's responses, and a protocol violation costs only the
    offending connection."""

    def test_interleaved_sessions_no_cross_talk(self, sample_record):
        n = 20 * FS
        expected = [
            d.to_dict() for d in batch_window_decisions(
                type(sample_record)(
                    data=sample_record.data[:, :n], fs=sample_record.fs
                )
            )
        ]

        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                conns = [
                    await asyncio.open_connection(host, port)
                    for _ in range(3)
                ]
                try:
                    for i, (reader, writer) in enumerate(conns):
                        opened = await request(
                            reader, writer, {"op": "open", "session": f"c{i}"}
                        )
                        assert opened["ok"]
                    # Interleave: one chunk per client per round, so the
                    # server sees the streams braided together.
                    for seq in range(4):
                        lo = seq * 5 * FS
                        chunk = sample_record.data[:, lo : lo + 5 * FS]
                        replies = await asyncio.gather(*(
                            request(r, w, chunk_message(f"c{i}", seq, chunk))
                            for i, (r, w) in enumerate(conns)
                        ))
                        assert all(
                            rep["ok"] and rep["accepted"] for rep in replies
                        )
                        # Each reply names the caller's own session.
                        assert [rep["session_id"] for rep in replies] == [
                            f"c{i}" for i in range(3)
                        ]
                    decided = []
                    for i, (reader, writer) in enumerate(conns):
                        polled = await request(
                            reader, writer, {"op": "poll", "session": f"c{i}"}
                        )
                        closed = await request(
                            reader, writer, {"op": "close", "session": f"c{i}"}
                        )
                        assert closed["error"] is None
                        decided.append(
                            polled["events"] + closed["trailing_events"]
                        )
                finally:
                    for _reader, writer in conns:
                        writer.close()
                        await writer.wait_closed()
                return decided

        decided = run(go())
        # Every interleaved stream decided the identical record
        # identically — no frames crossed sessions.
        assert all(events == expected for events in decided)

    def test_errors_stay_on_the_offending_stream(self):
        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                r1, w1 = await asyncio.open_connection(host, port)
                r2, w2 = await asyncio.open_connection(host, port)
                try:
                    await request(r1, w1, {"op": "open", "session": "a"})
                    await request(r2, w2, {"op": "open", "session": "b"})
                    # Client 1 misbehaves; client 2's stream is clean.
                    bad, good = await asyncio.gather(
                        request(r1, w1, {"op": "bogus"}),
                        request(
                            r2, w2, chunk_message("b", 0, np.zeros((2, FS)))
                        ),
                    )
                    after = await request(
                        r2, w2, {"op": "close", "session": "b"}
                    )
                finally:
                    for writer in (w1, w2):
                        writer.close()
                        await writer.wait_closed()
                return bad, good, after

        bad, good, after = run(go())
        assert not bad["ok"] and "bogus" in bad["error"]
        assert good["ok"] and good["accepted"]
        assert after["ok"]

    def test_oversized_frame_closes_only_the_offender(self):
        from repro.service.ingest import MAX_FRAME_BYTES

        async def go():
            async with DetectionService() as service:
                host, port = await service.serve()
                r1, w1 = await asyncio.open_connection(host, port)
                r2, w2 = await asyncio.open_connection(host, port)
                try:
                    await request(r2, w2, {"op": "open", "session": "b"})
                    # Client 1 violates the frame cap and gets hung up on.
                    w1.write(_LEN.pack(MAX_FRAME_BYTES + 1))
                    await w1.drain()
                    (length,) = _LEN.unpack(await r1.readexactly(_LEN.size))
                    refused = json.loads(await r1.readexactly(length))
                    eof = await r1.read(1)
                    # Client 2's connection is untouched.
                    survivor = await request(
                        r2, w2, chunk_message("b", 0, np.zeros((2, FS)))
                    )
                finally:
                    for writer in (w1, w2):
                        writer.close()
                        await writer.wait_closed()
                return refused, eof, survivor

        refused, eof, survivor = run(go())
        assert not refused["ok"] and "limit" in refused["error"]
        assert eof == b""  # offender disconnected
        assert survivor["ok"] and survivor["accepted"]
