"""Shard resilience and live detector hot-swap.

The hard contracts of the hardened fleet:

* a SIGKILLed worker is restarted and its sessions re-homed with
  decision streams *byte-identical* to an unkilled run (including
  streams partially polled before the kill);
* a session whose journal cannot reproduce the stream is surfaced as
  lost with a ``shard-death`` error, never silently wrong, while the
  restarted shard serves every other session (``replay_buffer=0``
  journals no chunk, and still restarts);
* a run of swaps on an idle session journals only its last swap;
* a mid-session detector hot-swap lands exactly at a window boundary:
  decisions are the old detector's for windows before the swap and the
  new detector's after, deterministically.
"""

import asyncio
import os
import queue
import signal
import threading

import pytest

from repro.exceptions import ServiceErrorCode, ShardDeathError
from repro.service import (
    DetectionService,
    ForestWindowDetector,
    ServiceConfig,
    ServiceShardPool,
    SessionManager,
    batch_window_decisions,
    shard_index_of,
)
from repro.service.fleet import consume, shard_dispatch
from repro.service.framing import chunk_message

FS = 256


def run(coro):
    return asyncio.run(coro)


def truncated(record, n_samples):
    return type(record)(data=record.data[:, :n_samples], fs=record.fs)


async def kill_shard(pool, index):
    """SIGKILL one worker and give the parent a beat to notice."""
    os.kill(pool.worker_pid(index), signal.SIGKILL)
    await asyncio.sleep(0.2)


class TestRehoming:
    def test_kill_mid_stream_is_byte_identical_to_unkilled_run(
        self, sample_record
    ):
        """The tentpole: SIGKILL a worker mid-stream; its sessions
        (one partially polled) continue byte-identically, the survivor
        shard never notices, telemetry records the restart."""
        n = 30 * FS
        batch = batch_window_decisions(truncated(sample_record, n))
        ids = [f"s{i}" for i in range(16)]
        a = next(s for s in ids if shard_index_of(s, 2) == 0)
        b = next(s for s in ids if shard_index_of(s, 2) == 1)
        step, half = 3 * FS, 15 * FS

        async def go():
            config = ServiceConfig(queue_depth=64, workers=2)
            async with ServiceShardPool(config) as pool:
                for sid in (a, b):
                    await pool.open_session(sid)
                    for seq, lo in enumerate(range(0, half, step)):
                        result = await pool.ingest(
                            sid, sample_record.data[:, lo : lo + step],
                            seq=seq,
                        )
                        assert result.accepted
                # Partially drain one stream pre-kill: re-homing must
                # discard exactly the already-delivered prefix.
                polled = {a: await pool.poll_events(a, 5), b: []}
                await kill_shard(pool, pool.shard_of(a))
                seq0 = len(range(0, half, step))
                for sid in (a, b):
                    for k, lo in enumerate(range(half, n, step)):
                        result = await pool.ingest(
                            sid, sample_record.data[:, lo : lo + step],
                            seq=seq0 + k,
                        )
                        assert result.accepted
                results = {}
                for sid in (a, b):
                    events = await pool.poll_events(sid)
                    summary = await pool.close_session(sid)
                    assert summary.error is None
                    results[sid] = (
                        polled[sid] + events + list(summary.trailing_events)
                    )
                merged = await pool.stop()
                return results, merged

        results, merged = run(go())
        assert results[a] == batch
        assert results[b] == batch
        assert merged["resilience"]["shard_restarts"] == 1
        assert merged["resilience"]["sessions_rehomed"] == 1
        assert merged["resilience"]["sessions_lost"] == 0

    def test_overflowed_journal_is_lost_loudly_not_wrong(self, sample_record):
        """A journal bounded below the stream length cannot re-home;
        the session dies with a shard-death error and the restarted
        shard keeps serving new sessions."""

        async def go():
            config = ServiceConfig(
                queue_depth=64, workers=1, replay_buffer=2
            )
            async with ServiceShardPool(config) as pool:
                await pool.open_session("p")
                for seq in range(4):  # 4 admitted chunks > 2 journaled
                    lo = seq * 2 * FS
                    await pool.ingest(
                        "p", sample_record.data[:, lo : lo + 2 * FS],
                        seq=seq,
                    )
                await kill_shard(pool, 0)
                with pytest.raises(ShardDeathError) as err:
                    await pool.ingest(
                        "p", sample_record.data[:, : 2 * FS], seq=4
                    )
                assert err.value.code is ServiceErrorCode.SHARD_DEATH
                assert "lost" in str(err.value)
                # The shard itself recovered: new sessions work fully.
                await pool.open_session("q")
                for seq in range(5):
                    lo = seq * FS
                    await pool.ingest(
                        "q", sample_record.data[:, lo : lo + FS], seq=seq
                    )
                summary = await pool.close_session("q")
                merged = await pool.stop()
                return summary, merged

        summary, merged = run(go())
        assert summary.windows == 2  # 5 s streamed, 4 s/1 s windows
        assert merged["resilience"]["shard_restarts"] == 1
        assert merged["resilience"]["sessions_lost"] == 1
        assert merged["resilience"]["sessions_rehomed"] == 0


class TestHotSwap:
    def test_single_process_swap_is_a_window_boundary(
        self, sample_record, fitted_detector
    ):
        """Stream, swap mid-session, stream on: decisions are exactly
        old-detector[:k] + new-detector[k:] for the k windows decided
        before the swap."""
        n, half, step = 30 * FS, 16 * FS, 2 * FS
        config = ServiceConfig(queue_depth=64)
        old_batch = batch_window_decisions(
            truncated(sample_record, n), config=config
        )
        new_batch = batch_window_decisions(
            truncated(sample_record, n),
            ForestWindowDetector(fitted_detector),
            config,
        )
        k = len(batch_window_decisions(
            truncated(sample_record, half), config=config
        ))

        async def go():
            async with DetectionService(config) as service:
                await service.open_session("p")
                seq = 0
                for lo in range(0, half, step):
                    await service.ingest(
                        "p", sample_record.data[:, lo : lo + step], seq=seq
                    )
                    seq += 1
                swapped = await service.swap_detector(
                    ForestWindowDetector(fitted_detector)
                )
                assert swapped == 1
                for lo in range(half, n, step):
                    await service.ingest(
                        "p", sample_record.data[:, lo : lo + step], seq=seq
                    )
                    seq += 1
                await service.drain()
                events = await service.poll_events("p")
                summary = await service.close_session("p")
                return events + list(summary.trailing_events)

        decided = run(go())
        assert decided == old_batch[:k] + new_batch[k:]
        assert decided != old_batch  # the swap actually changed scores

    def test_dispatch_swap_verb_and_open_with_state(
        self, sample_record, fitted_detector
    ):
        """The shard verb itself: open-with-state scores with the
        shipped forest; swap_detector swaps live sessions and becomes
        the default for later opens."""
        state = fitted_detector.to_state()
        config = ServiceConfig(queue_depth=64)
        manager = SessionManager(config)
        dirty = queue.Queue()
        threading.Thread(target=consume, args=(manager, dirty), daemon=True).start()
        n = 10 * FS
        forest_batch = batch_window_decisions(
            truncated(sample_record, n),
            ForestWindowDetector(fitted_detector),
            config,
        )

        opened = shard_dispatch(
            manager, dirty, {"op": "open", "session": "a", "state": state}
        )
        assert opened["ok"]
        for seq in range(5):
            lo = seq * 2 * FS
            reply = shard_dispatch(
                manager, dirty,
                chunk_message(
                    "a", seq, sample_record.data[:, lo : lo + 2 * FS]
                ),
            )
            assert reply["ok"] and reply["accepted"]
        polled = shard_dispatch(manager, dirty, {"op": "poll", "session": "a"})
        assert polled["events"] == [d.to_dict() for d in forest_batch]

        # Swap the (sole) live session; the verb reports it.
        swapped = shard_dispatch(
            manager, dirty, {"op": "swap_detector", "state": state}
        )
        assert swapped == {"ok": True, "sessions": 1}
        # Sessions opened after the swap inherit the swapped default.
        shard_dispatch(manager, dirty, {"op": "open", "session": "b"})
        for seq in range(5):
            lo = seq * 2 * FS
            shard_dispatch(
                manager, dirty,
                chunk_message(
                    "b", seq, sample_record.data[:, lo : lo + 2 * FS]
                ),
            )
        polled_b = shard_dispatch(
            manager, dirty, {"op": "poll", "session": "b"}
        )
        assert polled_b["events"] == [d.to_dict() for d in forest_batch]
        # A bad state payload is a structured error, not a crash.
        bad = shard_dispatch(
            manager, dirty, {"op": "swap_detector", "state": {"kind": "x"}}
        )
        assert not bad["ok"] and bad["code"] == "protocol"

    def test_pool_swap_survives_a_shard_kill(
        self, sample_record, fitted_detector
    ):
        """Hot-swap, then SIGKILL: re-homing replays pre-swap chunks
        under the old detector and post-swap chunks under the new one,
        so the full stream still equals old[:k] + new[k:]."""
        n, half, step = 24 * FS, 12 * FS, 3 * FS
        config = ServiceConfig(queue_depth=64, workers=1)
        state = fitted_detector.to_state()
        old_batch = batch_window_decisions(
            truncated(sample_record, n), config=config
        )
        new_batch = batch_window_decisions(
            truncated(sample_record, n),
            ForestWindowDetector(fitted_detector),
            config,
        )
        k = len(batch_window_decisions(
            truncated(sample_record, half), config=config
        ))

        async def go():
            async with ServiceShardPool(config) as pool:
                await pool.open_session("p")
                seq = 0
                for lo in range(0, half, step):
                    await pool.ingest(
                        "p", sample_record.data[:, lo : lo + step], seq=seq
                    )
                    seq += 1
                assert await pool.swap_detector(state) == 1
                await kill_shard(pool, 0)
                for lo in range(half, n, step):
                    result = await pool.ingest(
                        "p", sample_record.data[:, lo : lo + step], seq=seq
                    )
                    assert result.accepted
                    seq += 1
                # A session opened after the swap + restart also runs
                # the swapped default detector.
                await pool.open_session("q")
                for qseq in range(5):
                    lo = qseq * 2 * FS
                    await pool.ingest(
                        "q", sample_record.data[:, lo : lo + 2 * FS],
                        seq=qseq,
                    )
                q_events = await pool.poll_events("q")
                await pool.close_session("q")
                events = await pool.poll_events("p")
                summary = await pool.close_session("p")
                merged = await pool.stop()
                return (
                    events + list(summary.trailing_events), q_events, merged
                )

        decided, q_events, merged = run(go())
        assert decided == old_batch[:k] + new_batch[k:]
        q_expected = batch_window_decisions(
            truncated(sample_record, 10 * FS),
            ForestWindowDetector(fitted_detector),
            config,
        )
        assert q_events == q_expected
        assert merged["resilience"]["shard_restarts"] == 1
        assert merged["resilience"]["sessions_rehomed"] == 1


class TestUnjournaledPool:
    """At replay_buffer=0 no chunk is journaled, but the dead shard is
    still restarted: the session that admitted a chunk is lost with
    shard-death, the open-only session is re-homed, the survivor never
    notices, and a session opened on the restarted shard decides like
    the batch path.  One pool run, one test per contract."""

    N, STEP = 12 * FS, 3 * FS

    @pytest.fixture(scope="class")
    def outcome(self, sample_record):
        n, step = self.N, self.STEP
        ids = [f"s{i}" for i in range(32)]
        lost, idle, fresh = [s for s in ids if shard_index_of(s, 2) == 0][:3]
        survivor = next(s for s in ids if shard_index_of(s, 2) == 1)

        async def stream(pool, sid, start=0):
            for seq, lo in enumerate(range(start, n, step), start // step):
                result = await pool.ingest(
                    sid, sample_record.data[:, lo : lo + step], seq=seq
                )
                assert result.accepted
            events = await pool.poll_events(sid)
            summary = await pool.close_session(sid)
            return events + list(summary.trailing_events), summary.error

        async def go():
            config = ServiceConfig(workers=2, replay_buffer=0)
            async with ServiceShardPool(config) as pool:
                for sid in (lost, idle, survivor):
                    await pool.open_session(sid)
                for sid in (lost, survivor):
                    await pool.ingest(
                        sid, sample_record.data[:, :step], seq=0
                    )
                survivor_pid = pool.worker_pid(1)
                await kill_shard(pool, 0)
                try:
                    await pool.ingest(
                        lost, sample_record.data[:, step : 2 * step], seq=1
                    )
                    death = None
                except ShardDeathError as err:
                    death = err
                streams = {
                    "idle": await stream(pool, idle),
                    "survivor": await stream(pool, survivor, step),
                }
                await pool.open_session(fresh)
                streams["fresh"] = await stream(pool, fresh)
                survivor_kept = pool.worker_pid(1) == survivor_pid
                return death, streams, survivor_kept, await pool.stop()

        death, streams, survivor_kept, merged = run(go())
        return {
            "death": death,
            "streams": streams,
            "survivor_kept": survivor_kept,
            "resilience": merged["resilience"],
        }

    @pytest.fixture(scope="class")
    def batch(self, sample_record):
        return batch_window_decisions(truncated(sample_record, self.N))

    def test_replay_buffer_zero_loses_only_chunk_bearing_sessions(
        self, outcome
    ):
        death = outcome["death"]
        assert isinstance(death, ShardDeathError)
        assert death.code is ServiceErrorCode.SHARD_DEATH
        assert "lost" in str(death)
        assert outcome["resilience"]["sessions_lost"] == 1

    def test_open_only_session_is_rehomed(self, outcome, batch):
        assert outcome["streams"]["idle"] == (batch, None)
        assert outcome["resilience"]["sessions_rehomed"] == 1

    def test_survivor_is_untouched(self, outcome, batch):
        assert outcome["survivor_kept"]
        assert outcome["streams"]["survivor"] == (batch, None)

    def test_dead_shard_is_restarted_once(self, outcome):
        assert outcome["resilience"]["shard_restarts"] == 1

    def test_session_opened_after_restart_matches_batch(
        self, outcome, batch
    ):
        assert outcome["streams"]["fresh"] == (batch, None)


class TestSwapJournal:
    """A swap right after a swap replaces it in the journal, so an idle
    session's journal stays [open, last swap] however many swaps land;
    the session still re-homes byte-identically."""

    N, STEP = 10 * FS, 2 * FS

    @pytest.fixture(scope="class")
    def outcome(self, sample_record, fitted_detector):
        n, step = self.N, self.STEP
        config = ServiceConfig(workers=1)

        async def go():
            async with ServiceShardPool(config) as pool:
                await pool.open_session("p")
                states = [fitted_detector.to_state() for _ in range(100)]
                for state in states:
                    await pool.swap_detector(state)
                journal = list(pool._records["p"].journal)
                await kill_shard(pool, 0)
                for seq, lo in enumerate(range(0, n, step)):
                    await pool.ingest(
                        "p", sample_record.data[:, lo : lo + step], seq=seq
                    )
                events = await pool.poll_events("p")
                summary = await pool.close_session("p")
                merged = await pool.stop()
                return (
                    states, journal,
                    events + list(summary.trailing_events), merged,
                )

        states, journal, decided, merged = run(go())
        expected = batch_window_decisions(
            truncated(sample_record, n),
            ForestWindowDetector(fitted_detector),
            config,
        )
        return states, journal, decided, expected, merged

    def test_swaps_on_an_idle_session_keep_the_last(self, outcome):
        states, journal, _, _, _ = outcome
        assert [frame["op"] for frame in journal] == ["open", "swap_detector"]
        assert journal[1]["state"] is states[-1]

    def test_session_rehomes_byte_identically_after_swaps(self, outcome):
        _, _, decided, expected, merged = outcome
        assert decided == expected
        assert merged["resilience"]["sessions_rehomed"] == 1
