"""Fleet-hardening smoke test: kill a shard, keep every promise.

Run by the ``service-latency`` CI job (and runnable locally) against a
real 2-worker :class:`~repro.service.fleet.ServiceShardPool` served
over a socket:

1. two authenticated clients stream one record as two sessions pinned
   to *different* shards, one session partially polled mid-stream;
2. one worker is SIGKILLed (a real ``kill -9``) between chunks;
3. both clients keep streaming: the parent restarts the dead shard and
   re-homes its session from the admitted-chunk journal;
4. assert: both decision streams are byte-identical to the batch
   pipeline (the survivor shard never noticed, the re-homed stream
   lost nothing, the partially-delivered prefix was not re-delivered);
5. assert: an unauthenticated client and an over-quota open are denied
   with structured ``auth`` / ``quota`` error frames while the good
   clients continue undisturbed;
6. assert: merged telemetry records exactly one restart, one re-homed
   session, zero lost sessions, and the admission denials — then write
   the snapshot as a CI artifact;
7. a second leg serves a ``replay_buffer=0`` pool, which journals no
   chunk, and SIGKILLs the shard of a session that admitted chunks:
   that session gets a ``shard-death`` error frame, the survivor's
   stream still equals the batch decisions, a session opened on the
   restarted shard streams batch-identical decisions, and telemetry
   reads one restart and one lost session.

Exercises the full wire path (hello handshake, framing, admission
gate, shard routing, parent-side journaling) end to end across a real
process kill, which the in-process suite cannot:
``tests/test_service_resilience.py`` covers the same contracts with
deterministic in-process kills.

Usage::

    PYTHONPATH=src python scripts/resilience_smoke.py [telemetry.json]
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from pathlib import Path

#: 2 s chunks over a ~1-minute record keep the smoke under 30 s.
CHUNK_S = 2
#: Events polled from the victim session before the kill: the re-homed
#: stream must discard exactly this already-delivered prefix.
PREKILL_POLL = 3
TOKEN = "smoke-token"


def pick_sessions(workers: int) -> tuple[str, str]:
    """One session id per shard, so the kill has a survivor to spare."""
    from repro.service import shard_index_of

    by_shard: dict[int, str] = {}
    candidate = 0
    while len(by_shard) < workers:
        session_id = f"smoke-{candidate:03d}"
        by_shard.setdefault(shard_index_of(session_id, workers), session_id)
        candidate += 1
    return by_shard[0], by_shard[1]


def unjournaled_leg(record, batch) -> None:
    """Kill a shard of a ``replay_buffer=0`` pool (see step 7)."""
    from repro import api
    from repro.exceptions import ServiceErrorCode, ShardDeathError
    from repro.service import ServiceConfig, ServiceShardPool, shard_index_of

    step = CHUNK_S * int(record.fs)
    offsets = list(range(0, record.n_samples, step))
    half = len(offsets) // 2
    victim_sid, survivor_sid = pick_sessions(2)
    # A session id routed to the victim's shard, opened after the kill.
    fresh_sid = next(
        sid for sid in (f"smoke-fresh-{k}" for k in range(100))
        if shard_index_of(sid, 2) == shard_index_of(victim_sid, 2)
    )

    def stream(client, sid, seqs) -> list:
        for seq in seqs:
            lo = offsets[seq]
            result = client.push(sid, record.data[:, lo : lo + step], seq=seq)
            assert result.accepted, (sid, seq, result.reason)
        return client.poll(sid)

    def finish(client, sid) -> list:
        summary = client.close(sid)
        assert summary.error is None, summary
        return list(summary.trailing_events)

    async def go() -> dict:
        config = ServiceConfig(workers=2, queue_depth=64, replay_buffer=0)
        async with ServiceShardPool(config) as pool:
            host, port = await pool.serve()
            loop = asyncio.get_running_loop()
            client = None
            survivor = []

            def first_half() -> None:
                nonlocal client
                client = api.connect(host, port)
                client.open(victim_sid)
                client.open(survivor_sid)
                stream(client, victim_sid, range(half))
                survivor.extend(stream(client, survivor_sid, range(half)))

            def after_kill() -> None:
                lo = offsets[half]
                try:
                    client.push(
                        victim_sid, record.data[:, lo : lo + step], seq=half
                    )
                except ShardDeathError as exc:
                    assert exc.code is ServiceErrorCode.SHARD_DEATH, exc
                    print(f"victim session lost: {exc}")
                else:
                    raise AssertionError("the unjournaled session survived")
                survivor.extend(
                    stream(client, survivor_sid, range(half, len(offsets)))
                )
                survivor.extend(finish(client, survivor_sid))
                client.open(fresh_sid)
                fresh = stream(client, fresh_sid, range(len(offsets)))
                fresh += finish(client, fresh_sid)
                if fresh != batch:
                    raise AssertionError(
                        "a session on the restarted shard diverged from batch"
                    )
                client.disconnect()

            await loop.run_in_executor(None, first_half)
            victim = pool.shard_of(victim_sid)
            pid = pool.worker_pid(victim)
            print(f"replay_buffer=0: SIGKILL shard {victim} (pid {pid})")
            os.kill(pid, signal.SIGKILL)
            await asyncio.sleep(0.3)
            await loop.run_in_executor(None, after_kill)
            merged = await pool.stop()
        if survivor != batch:
            raise AssertionError("the survivor session diverged from batch")
        return merged

    resilience = asyncio.run(go())["resilience"]
    assert resilience["shard_restarts"] == 1, resilience
    assert resilience["sessions_lost"] == 1, resilience
    print(
        f"replay_buffer=0: victim lost, survivor and restarted shard "
        f"byte-identical to batch; resilience={resilience}"
    )


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else Path("resilience-telemetry.json")

    from repro import api
    from repro.data.dataset import SyntheticEEGDataset
    from repro.exceptions import AuthError, QuotaError, ServiceErrorCode
    from repro.service import ServiceConfig, ServiceShardPool, \
        batch_window_decisions

    dataset = SyntheticEEGDataset(duration_range_s=(120.0, 150.0))
    record = dataset.sample_source(1, 0, 0).materialize()
    fs = int(record.fs)
    step = CHUNK_S * fs
    batch = batch_window_decisions(record)
    session_a, session_b = pick_sessions(2)
    offsets = list(range(0, record.n_samples, step))
    half = len(offsets) // 2

    async def go() -> dict:
        config = ServiceConfig(
            workers=2,
            queue_depth=64,
            auth_tokens=(TOKEN,),
            max_sessions_per_client=2,
        )
        async with ServiceShardPool(config) as pool:
            host, port = await pool.serve()
            loop = asyncio.get_running_loop()
            clients = {}
            streams = {session_a: [], session_b: []}

            def push_range(lo_hi: tuple[int, int]) -> None:
                for seq in range(*lo_hi):
                    lo = offsets[seq]
                    for sid, client in clients.items():
                        result = client.push(
                            sid, record.data[:, lo : lo + step], seq=seq
                        )
                        assert result.accepted, (sid, seq, result.reason)

            def open_and_first_half() -> None:
                for sid in (session_a, session_b):
                    clients[sid] = api.connect(host, port, token=TOKEN)
                    clients[sid].open(sid)
                push_range((0, half))
                # Partial drain of the victim session pre-kill.
                streams[session_a] += clients[session_a].poll(
                    session_a, PREKILL_POLL
                )

            def second_half_and_close() -> None:
                push_range((half, len(offsets)))
                for sid, client in clients.items():
                    streams[sid] += client.poll(sid)
                    summary = client.close(sid)
                    assert summary.error is None, summary
                    streams[sid] += list(summary.trailing_events)
                    client.disconnect()

            def denied_clients() -> None:
                # No token: a structured auth frame, then a hangup.
                try:
                    api.connect(host, port)
                except AuthError as exc:
                    assert exc.code is ServiceErrorCode.AUTH, exc
                else:
                    raise AssertionError("tokenless client was admitted")
                # Good token, but a third session breaks the quota; the
                # denial is a typed frame and the connection survives.
                with api.connect(host, port, token=TOKEN) as probe:
                    try:
                        probe.open("smoke-over-quota")
                    except QuotaError as exc:
                        assert exc.code is ServiceErrorCode.QUOTA, exc
                    else:
                        raise AssertionError("over-quota open was admitted")
                    assert probe.telemetry()["workers"] == 2

            await loop.run_in_executor(None, open_and_first_half)

            victim = pool.shard_of(session_a)
            pid = pool.worker_pid(victim)
            print(f"SIGKILL shard {victim} (pid {pid}) mid-stream")
            os.kill(pid, signal.SIGKILL)
            await asyncio.sleep(0.3)

            # The denials land while the kill is being recovered from.
            await loop.run_in_executor(None, denied_clients)
            await loop.run_in_executor(None, second_half_and_close)
            merged = await pool.stop()

        for sid in (session_a, session_b):
            if streams[sid] != batch:
                raise AssertionError(
                    f"session {sid!r} diverged from batch after the kill: "
                    f"{len(streams[sid])} streamed vs {len(batch)} batch "
                    f"decisions"
                )
        print(
            f"parity: both sessions byte-identical to batch "
            f"({len(batch)} decisions each, {PREKILL_POLL} delivered "
            f"pre-kill)"
        )
        return merged

    merged = asyncio.run(go())

    resilience = merged["resilience"]
    admission = merged["admission"]
    assert resilience["shard_restarts"] == 1, resilience
    assert resilience["sessions_rehomed"] == 1, resilience
    assert resilience["sessions_lost"] == 0, resilience
    # Tokenless probe (1) — the bad-token path is covered in-tree.
    assert admission["auth_failures"] >= 1, admission
    assert admission["quota_rejected"] >= 1, admission
    print(f"telemetry: resilience={resilience} admission={admission}")

    out.write_text(json.dumps(merged, sort_keys=True, separators=(",", ":")))
    print(f"merged fleet telemetry written to {out}")

    unjournaled_leg(record, batch)
    print(
        "OK: restart + re-homing parity, structured denials and the "
        "replay_buffer=0 loss verified"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
