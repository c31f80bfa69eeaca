"""ServiceShardPool: stable session routing, pool-vs-batch parity at any
chunking and worker count, drain-on-stop, dead-shard surfacing, and the
single client-facing listener in front of N worker processes.

The worker-side dispatch (`shard_dispatch`) is exercised in-process —
it is the exact function the spawned shard runs, so backpressure and
error-frame behavior are pinned deterministically without paying a
process spawn per case.  The spawning tests keep to a handful of pool
lifecycles to stay fast.
"""

import asyncio
import json
import queue
import struct
import threading

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service import (
    ServiceConfig,
    ServiceShardPool,
    SessionManager,
    batch_window_decisions,
    shard_index_of,
)
from repro.service.fleet import consume, shard_dispatch
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


class TestRouting:
    def test_stable_and_in_range(self):
        for session_id in ("p1", "p2", "alpha", "42"):
            shard = shard_index_of(session_id, 4)
            assert 0 <= shard < 4
            # Same id, same shard — every time, every process.
            assert shard_index_of(session_id, 4) == shard

    def test_spreads_sessions_across_shards(self):
        hit = {shard_index_of(f"s{i}", 4) for i in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_single_shard_gets_everything(self):
        assert all(
            shard_index_of(f"s{i}", 1) == 0 for i in range(8)
        )

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ServiceError):
            shard_index_of("p", 0)


class TestShardDispatch:
    """The worker's frame handler, unit-tested without a process."""

    def test_backpressure_is_deterministic_and_surfaced(self):
        # No consumer: the queue can only fill, so the second chunk's
        # rejection is deterministic — the exact frames a pool client
        # sees when a shard is saturated.
        manager = SessionManager(
            ServiceConfig(queue_depth=1, backpressure="reject")
        )
        dirty = queue.Queue()
        opened = shard_dispatch(
            manager, dirty, {"op": "open", "session": "p"}
        )
        assert opened == {"ok": True, "session": "p"}
        first = shard_dispatch(
            manager, dirty, chunk_message("p", 0, np.zeros((2, FS)))
        )
        second = shard_dispatch(
            manager, dirty, chunk_message("p", 1, np.zeros((2, FS)))
        )
        assert first["ok"] and first["accepted"]
        assert second["ok"] and not second["accepted"]
        assert "reject" in second["reason"]
        # Only the admitted chunk marked the session dirty.
        assert dirty.qsize() == 1

    def test_shed_oldest_counts_surface(self):
        manager = SessionManager(
            ServiceConfig(queue_depth=1, backpressure="shed-oldest")
        )
        dirty = queue.Queue()
        shard_dispatch(manager, dirty, {"op": "open", "session": "p"})
        shard_dispatch(
            manager, dirty, chunk_message("p", 0, np.zeros((2, FS)))
        )
        reply = shard_dispatch(
            manager, dirty, chunk_message("p", 1, np.zeros((2, FS)))
        )
        assert reply["ok"] and reply["accepted"] and reply["shed"] == 1

    def test_error_frames_match_single_process_service(self):
        manager = SessionManager(ServiceConfig())
        dirty = queue.Queue()
        bad_op = shard_dispatch(manager, dirty, {"op": "bogus"})
        missing = shard_dispatch(manager, dirty, {"op": "open"})
        ghost = shard_dispatch(
            manager, dirty, chunk_message("ghost", 0, np.zeros((2, FS)))
        )
        assert not bad_op["ok"] and "bogus" in bad_op["error"]
        assert not missing["ok"] and "session" in missing["error"]
        assert not ghost["ok"] and "ghost" in ghost["error"]

    def test_full_session_round_trip_matches_batch(self, sample_record):
        n = 20 * FS
        expected = batch_window_decisions(
            type(sample_record)(
                data=sample_record.data[:, :n], fs=sample_record.fs
            )
        )
        manager = SessionManager(ServiceConfig())
        dirty = queue.Queue()
        threading.Thread(target=consume, args=(manager, dirty), daemon=True).start()
        shard_dispatch(manager, dirty, {"op": "open", "session": "p"})
        for seq in range(4):
            lo = seq * 5 * FS
            reply = shard_dispatch(
                manager,
                dirty,
                chunk_message(
                    "p", seq, sample_record.data[:, lo : lo + 5 * FS]
                ),
            )
            assert reply["ok"] and reply["accepted"]
        polled = shard_dispatch(
            manager, dirty, {"op": "poll", "session": "p"}
        )
        closed = shard_dispatch(
            manager, dirty, {"op": "close", "session": "p"}
        )
        assert polled["ok"] and closed["ok"]
        decided = polled["events"] + closed["trailing_events"]
        assert decided == [d.to_dict() for d in expected]
        shutdown = shard_dispatch(manager, dirty, {"op": "shutdown"})
        assert shutdown["ok"]
        telemetry = shutdown["telemetry"]
        assert telemetry["chunks"]["processed"] == 4
        assert sum(telemetry["latency"]["buckets"].values()) == 4
        dirty.put(None)


class TestShardPool:
    def test_parity_across_chunkings_and_shards(self, sample_record):
        """The tentpole contract: pooled per-session decisions are
        byte-identical to the batch path at any chunking, with the two
        sessions living on *different* worker processes."""
        batch = batch_window_decisions(sample_record)
        # Pick ids on different shards so the parity run covers both
        # worker processes, not one shard twice.
        ids = [f"p{i}" for i in range(16)]
        a = next(s for s in ids if shard_index_of(s, 2) == 0)
        b = next(s for s in ids if shard_index_of(s, 2) == 1)
        steps = {a: 4 * FS, b: 7 * FS}  # two different chunkings

        async def go():
            config = ServiceConfig(queue_depth=256, workers=2)
            async with ServiceShardPool(config) as pool:
                assert {pool.shard_of(a), pool.shard_of(b)} == {0, 1}
                results = {}
                for sid, step in steps.items():
                    await pool.open_session(sid)
                    for seq, lo in enumerate(
                        range(0, sample_record.n_samples, step)
                    ):
                        result = await pool.ingest(
                            sid,
                            sample_record.data[:, lo : lo + step],
                            seq=seq,
                        )
                        assert result.accepted
                    events = await pool.poll_events(sid)
                    summary = await pool.close_session(sid)
                    results[sid] = events + list(summary.trailing_events)
                merged = await pool.snapshot()
                return results, merged

        results, merged = run(go())
        assert results[a] == batch
        assert results[b] == batch
        assert merged["workers"] == 2 and len(merged["shards"]) == 2
        assert merged["sessions"]["opened"] == 2
        # Both shards actually hosted work.
        hosted = [
            s["sessions"]["opened"] for s in merged["shards"]
        ]
        assert hosted == [1, 1]

    def test_stop_drains_every_shard(self, sample_record):
        """Chunks admitted before stop() are decided, never dropped."""

        async def go():
            pool = ServiceShardPool(ServiceConfig(queue_depth=256), workers=2)
            await pool.start()
            sids = [f"p{i}" for i in range(4)]
            for sid in sids:
                await pool.open_session(sid)
                for seq in range(3):
                    lo = seq * 6 * FS
                    await pool.ingest(
                        sid, sample_record.data[:, lo : lo + 6 * FS], seq=seq
                    )
            return await pool.stop()  # no explicit drain first

        merged = run(go())
        assert merged["chunks"]["ingested"] == 12
        assert merged["chunks"]["processed"] == 12  # drained, not dropped
        assert merged["queue"]["depth"] == 0
        assert merged["windows"]["decided"] > 0

    def test_dead_shard_is_an_error_not_a_hang(self):
        """With resilience off (replay_buffer=0) the PR 9 contract holds:
        a dead shard fails its requests instead of restarting."""

        async def go():
            pool = ServiceShardPool(ServiceConfig(replay_buffer=0), workers=2)
            await pool.start()
            victim = pool.shard_of("p")
            process = pool._clients[victim].process
            process.kill()  # SIGKILL: workers ignore SIGTERM by design
            await asyncio.get_running_loop().run_in_executor(
                None, process.join, 10.0
            )
            with pytest.raises(ServiceError):
                await pool.open_session("p")
            # The surviving shard still answers, and stop() completes.
            merged = await pool.stop()
            return merged

        merged = run(go())
        assert merged["workers"] == 1  # only the survivor reported

    def test_socket_front_end_routes_and_merges(self, sample_record):
        """One listener, same wire protocol, frames land on the owning
        shard; telemetry answers fleet-wide."""
        n = 20 * FS
        expected = [
            d.to_dict()
            for d in batch_window_decisions(
                type(sample_record)(
                    data=sample_record.data[:, :n], fs=sample_record.fs
                )
            )
        ]

        async def go():
            async with ServiceShardPool(workers=2) as pool:
                host, port = await pool.serve()
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
                                "p",
                                seq,
                                sample_record.data[:, lo : lo + 5 * FS],
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
                    bad_op = await request(reader, writer, {"op": "bogus"})
                    missing = await request(reader, writer, {"op": "open"})
                finally:
                    writer.close()
                    await writer.wait_closed()
                return polled, closed, telemetry, bad_op, missing

        polled, closed, telemetry, bad_op, missing = run(go())
        assert polled["ok"]
        assert polled["events"] + closed["trailing_events"] == expected
        assert closed["ok"] and closed["error"] is None
        merged = telemetry["telemetry"]
        assert merged["workers"] == 2 and len(merged["shards"]) == 2
        assert merged["chunks"]["ingested"] == 4
        assert not bad_op["ok"] and "bogus" in bad_op["error"]
        assert not missing["ok"] and "session" in missing["error"]


class TestOneWireProtocol:
    """The single-process service and a 1-worker pool answer every frame
    with the same verb table, so a client sees the same reply bytes from
    either — including for malformed frames, which get a coded error
    frame and never kill the connection or the shard."""

    @staticmethod
    def frames(record, state):
        data = record.data

        def chunk(seq, block):
            return chunk_message("p", seq, block)

        nan = data[:, : 5 * FS].copy()
        nan[1, 7] = np.nan
        inf = data[:, : 5 * FS].copy()
        inf[0, 3] = -np.inf
        # A barrier verb (poll/close/swap) precedes every admitted chunk,
        # so `queued` does not depend on consumer timing.
        return [
            {"op": "open", "session": "p"},
            {"op": "open", "session": "p"},  # duplicate
            {"op": "open"},  # missing field
            {"op": "open", "session": None},  # null counts as missing
            {"op": "open", "session": "q", "state": {"kind": "x"}},
            {"op": "open", "session": "q", "state": 5},
            chunk(0, data[:, : 5 * FS]),
            {"op": "poll", "session": "p"},
            chunk(1, data[:, 5 * FS : 10 * FS]),
            {"op": "poll", "session": "p", "max": "1"},
            {"op": "poll", "session": "p", "max": [1]},
            {"op": "poll", "session": "p", "max": 1.5},  # events buffered
            {"op": "poll", "session": "p", "max": True},
            {"op": "poll", "session": "p", "max": 0},
            {"op": "poll", "session": "p", "max": 2},
            chunk(2, nan),
            chunk(2, inf),
            chunk(2, np.zeros((3, 5 * FS))),  # wrong channel count
            chunk(2, data[:, 10 * FS : 15 * FS]),  # seq 2 was not used up
            {"op": "swap_detector", "state": {"kind": "x"}},
            {"op": "swap_detector"},
            {"op": "swap_detector", "state": 5},
            {"op": "swap_detector", "state": []},
            {"op": "swap_detector", "state": "x"},
            {"op": "swap_detector", "state": state},
            chunk(3, data[:, 15 * FS : 20 * FS]),
            dict(chunk(4, data[:, 20 * FS : 25 * FS]), session=None),
            chunk_message("ghost", 0, data[:, : FS]),
            {"op": "bogus"},
            {"op": "drain"},
            {"op": "shutdown"},
            {"op": "poll", "session": "p"},
            {"op": "close", "session": "p"},
            {"op": "close", "session": "p"},  # already closed
            {"op": "poll", "session": None},
            {"op": "close", "session": None},
        ]

    @staticmethod
    async def exchange(server, frames):
        """Send every frame on one connection; return each raw reply
        payload, then the telemetry reply (which differs by design: the
        pool's is a merged fleet view)."""
        host, port = await server.serve()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            replies = []
            for message in frames + [{"op": "telemetry"}]:
                writer.write(encode_frame(message))
                await writer.drain()
                (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
                replies.append(await reader.readexactly(length))
        finally:
            writer.close()
            await writer.wait_closed()
        return replies[:-1], json.loads(replies[-1])

    def test_both_transports_reply_identically(
        self, sample_record, fitted_detector
    ):
        from repro.service import DetectionService

        frames = self.frames(sample_record, fitted_detector.to_state())

        async def single():
            async with DetectionService(ServiceConfig()) as service:
                return await self.exchange(service, frames)

        async def pooled():
            async with ServiceShardPool(ServiceConfig(workers=1)) as pool:
                return await self.exchange(pool, frames)

        single_replies, single_telemetry = run(single())
        pool_replies, pool_telemetry = run(pooled())
        assert single_replies == pool_replies
        replies = [json.loads(r) for r in single_replies]
        for frame, reply in zip(frames, replies):
            assert isinstance(reply["ok"], bool), (frame["op"], reply)
            if not reply["ok"]:
                assert reply["code"] == "protocol", (frame["op"], reply)
        by_op = {}
        for frame, reply in zip(frames, replies):
            by_op.setdefault(frame["op"], []).append(reply)
        assert [r["ok"] for r in by_op["open"]] == [True] + [False] * 5
        missing = {
            "ok": False, "error": "missing field 'session'", "code": "protocol"
        }
        assert by_op["open"][3] == missing
        chunks = by_op["chunk"]
        assert [r["ok"] for r in chunks] == [True, True] + [False] * 3 + [
            True, True, False, False,
        ]
        assert chunks[7] == missing
        assert all(r["queued"] == 1 for r in chunks if r["ok"])
        assert "NaN or infinite" in chunks[2]["error"]
        assert "NaN or infinite" in chunks[3]["error"]
        assert "(2, n) samples" in chunks[4]["error"]
        bad_max = by_op["poll"][1:6]
        assert not any(r["ok"] for r in bad_max)
        assert "'1'" in bad_max[0]["error"]
        assert "1.5" in bad_max[2]["error"]
        swaps = by_op["swap_detector"]
        assert [r["ok"] for r in swaps] == [False] * 5 + [True]
        for reply, kind in zip(swaps[2:5], ("int", "list", "str")):
            assert reply["error"] == (
                f"detector state must be a JSON object, got {kind}"
            )
        assert swaps[5]["sessions"] == 1
        for op in ("bogus", "drain", "shutdown"):
            assert by_op[op] == [
                {"ok": False, "error": f"unknown op {op!r}", "code": "protocol"}
            ]
        assert [r["ok"] for r in by_op["close"]] == [True, False, False]
        assert by_op["close"][2] == by_op["poll"][-1] == missing
        assert by_op["close"][0]["error"] is None
        assert by_op["close"][0]["chunks"] == 4
        # Nothing killed the shard, and both count every decided chunk.
        assert single_telemetry["ok"] and pool_telemetry["ok"]
        assert pool_telemetry["telemetry"]["resilience"]["shard_restarts"] == 0
        for reply in (single_telemetry, pool_telemetry):
            latency = reply["telemetry"]["latency"]
            assert latency["count"] == sum(latency["buckets"].values()) == 4
