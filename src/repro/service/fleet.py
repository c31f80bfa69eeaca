"""Multi-process session sharding: one listener, N worker shards.

PR 7's :class:`~repro.service.ingest.DetectionService` runs every
session's feature extraction and forest scoring on one core behind the
GIL.  :class:`ServiceShardPool` breaks that ceiling without touching the
session code: the parent process keeps the single client-facing socket
listener, and N worker *processes* each host their own
:class:`~repro.service.manager.SessionManager` plus consumer thread,
answering frames with :func:`shard_dispatch` — the one verb table the
single-process service answers with too (it documents the wire
protocol).

Routing is session-sticky by construction: :meth:`ServiceShardPool
.shard_of` hashes the session id with SHA-256 (stable across processes,
runs, and machines — never the salted builtin ``hash``), so *every*
chunk of a session lands on the same shard and the shard runs the
identical code path the single-process service runs.  That extends the
PR 7 parity contract across the pool: per-session decision streams are
byte-identical to the single-process service for any chunking and any
worker count.

Parent↔shard IPC speaks the same length-prefixed frames as the client
protocol (:mod:`repro.service.framing`: JSON, with chunk samples as a
raw float64 tail), over one Unix-domain
stream socket per shard.  The parent pipelines requests (FIFO futures
per shard; the single-threaded worker answers in order), so many client
connections keep every shard busy without per-request round-trip
stalls.  Backpressure is enforced *inside* each shard by its own
``SessionManager`` queues and surfaces unchanged — a rejected chunk
comes back as the same :class:`~repro.service.manager.IngestResult` /
error frame a single-process caller would see.

Three hardening layers sit on top of the PR 9 pool:

* **Admission** — the client listener runs behind the shared
  :class:`~repro.service.admission.AdmissionGate`: versioned ``hello``
  handshake, token auth, and per-client session/chunk-rate quotas, all
  enforced in the parent before a frame ever reaches a shard.
* **Resilience** — the parent journals every *acknowledged*
  session-shaping frame (open with its detector state, admitted chunks
  up to ``config.replay_buffer`` of them, detector swaps).  When a
  worker dies, the pool respawns it on the same IPC socket and re-homes
  the dead shard's sessions by replaying their journals; because window
  decisions are a pure function of the admitted sample stream and the
  detector schedule, re-homed decision streams are byte-identical to
  an unkilled run.  A session whose journal overflowed the bound (at
  ``replay_buffer=0``, any session that admitted a chunk) or that shed
  chunks cannot be reproduced and is surfaced as *lost* with a
  ``shard-death`` error frame — explicitly, never silently.
* **Hot-swap** — :meth:`ServiceShardPool.swap_detector` broadcasts a
  serialized retrained forest to every shard's ``swap_detector`` verb;
  each shard decides every queued chunk and swaps under its session
  locks, so the swap lands at a window boundary without dropping
  sessions.

Inside a shard, the frame loop only queues an admitted chunk; the
consumer thread decides a session once it is due (see
:mod:`repro.service.manager`), and ``poll``/``close`` decide their own
session inline.

Shutdown drains: :meth:`ServiceShardPool.stop` sends every shard a
``shutdown`` frame, and the shard decides every admitted chunk before
replying with its final telemetry snapshot — so close-mid-stream (and
``repro serve`` catching SIGTERM) still yields full trailing decisions.
The merged fleet snapshot (:meth:`ServiceTelemetry.merge`) is the
return value: every shard ships its latency bucket counts, and summing
them gives one exact fleet-wide p50/p95/p99/jitter/shed view plus
per-shard breakdowns, with the parent's own admission/resilience
counters folded in.

Worker processes are started with the ``spawn`` method: a fresh
interpreter per shard keeps workers independent of the parent's asyncio
loop, thread, and lock state (fork under a live event loop is exactly
the kind of latent corruption this service cannot afford).
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import os
import queue
import shutil
import signal
import socket
import tempfile
import threading
from collections import deque
from typing import Callable

import numpy as np

from ..exceptions import ReproError, ServiceError, ShardDeathError, integer
from ..selflearning.detector import RealTimeDetector
from .admission import AdmissionGate, serve_connection
from .config import ServiceConfig
from .framing import (
    chunk_message,
    decode_chunk,
    error_frame,
    exception_for,
    read_frame,
    read_frame_sync,
    write_frame,
    write_frame_sync,
)
from .manager import IngestResult, SessionManager, SessionSummary
from .session import (
    ForestWindowDetector,
    WindowDecision,
    detector_from_state,
    detector_state_of,
)
from .telemetry import ServiceTelemetry

__all__ = ["ServiceShardPool", "shard_dispatch", "shard_index_of"]

#: How long the parent waits for every spawned worker to connect back
#: and say hello before declaring the fleet broken.  Spawn re-imports
#: the package per worker (~seconds); this is a hang backstop, not a
#: performance bound.
_HELLO_TIMEOUT_S = 120.0


def shard_index_of(session_id: str, n_shards: int) -> int:
    """Stable shard routing: SHA-256 of the session id, mod shards.

    Deliberately *not* the builtin ``hash`` (salted per process): the
    route must be identical in every parent process, test, and tool
    that wants to predict where a session lives.
    """
    integer(n_shards, "n_shards", ServiceError, 1)
    digest = hashlib.sha256(str(session_id).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


# ---------------------------------------------------------------------------
# The verb table (runs in every shard, and in the single-process service)
# ---------------------------------------------------------------------------
#: Verbs answered only once every session's admitted chunks are decided
#: (so a swap lands at the same window boundary in every session); the
#: pool's own verbs are global barriers too.  ``poll`` and ``close`` are
#: not: each decides only its own session's queue, inline, so one
#: session never waits on another's backlog.
BARRIER_OPS = frozenset({"swap_detector"})
POOL_OPS = frozenset({"drain", "shutdown"})


def listen_port(port: int) -> None:
    """Refuse a listener port before anything starts: it must be an
    integer in [0, 65535] (0 lets the OS choose)."""
    if integer(port, "port", ServiceError) > 65535:
        raise ServiceError(f"port must be in [0, 65535], got {port!r}")


def shard_dispatch(
    manager: SessionManager, dirty: "queue.Queue[str | None]", message: dict
) -> dict:
    """Answer one frame against a session manager: the service's only
    verb table, and its wire-protocol reference.

    ``dirty`` is the consumer's queue: an admitted chunk that makes its
    session due (:meth:`SessionManager.claim_due`: :data:`~repro.service
    .manager.DECIDE_WINDOWS` window steps queued, or a full queue) is
    handed over with ``put_nowait(session_id)`` — a shard's
    :class:`queue.Queue`, or the single-process service's
    :class:`asyncio.Queue`.  Other chunks stay queued until their own
    session's ``poll`` or ``close`` decides them inline, or a barrier:
    :data:`BARRIER_OPS` and :data:`POOL_OPS` first decide every
    session's queue (:meth:`SessionManager.pump_all`).

    Requests are JSON objects with an ``op`` field (the ``hello``
    handshake is answered earlier, by :mod:`repro.service.admission`);
    a chunk's samples travel as the frame's binary tail, which
    :func:`~repro.service.framing.decode_payload` hands over as ``data``:

    ``{"op": "open", "session": id, "state": detector?}``
        Register a session, scoring with the serialized
        :meth:`~repro.selflearning.detector.RealTimeDetector.to_state`
        forest when ``state`` is given.
    ``{"op": "chunk", "session": id, "seq": n?, "shape": [c, n], "data": bytes}``
        One signal chunk (:func:`~repro.service.framing.chunk_message`):
        ``c·n`` row-major float64 samples.  Replies with the
        :class:`IngestResult`; a JSON ``data`` value (a version-1 base64
        string) gets a ``protocol`` error frame.
    ``{"op": "poll", "session": id, "max": k?}``
        Decide the session's queued chunks, then drain up to ``k``
        decided windows.
    ``{"op": "close", "session": id}``
        Decide the session's queued chunks and finalize; replies with
        the :class:`SessionSummary`.
    ``{"op": "swap_detector", "state": detector}``
        Decide every session's queued chunks, then hot-swap every open
        session, and the default for new ones.
    ``{"op": "telemetry"}``
        The :meth:`~repro.service.telemetry.ServiceTelemetry.snapshot`,
        latency bucket counts included.
    ``{"op": "drain"}`` / ``{"op": "shutdown"}``
        Decide every admitted chunk; ``shutdown`` also returns the final
        snapshot.

    ``drain`` and ``shutdown`` are the pool's own; client frames never
    carry them this far.  A missing or null ``session`` answers
    ``missing field 'session'``.  Every reply is ``{"ok": true, ...}``
    or the :func:`~repro.service.framing.error_frame`; a malformed
    frame fails its own request, never the connection.
    """
    try:
        op = message.get("op")
        if op in BARRIER_OPS or op in POOL_OPS:
            manager.pump_all()
        if op == "open":
            state = message.get("state")
            detector = None if state is None else detector_from_state(state)
            session = manager.open_session(_session_of(message), detector)
            return {"ok": True, "session": session.session_id}
        if op == "chunk":
            result = manager.ingest(
                _session_of(message),
                decode_chunk(message),
                seq=message.get("seq"),
            )
            if result.accepted and manager.claim_due(result.session_id):
                dirty.put_nowait(result.session_id)
            return result.to_reply()
        if op == "poll":
            events = manager.poll_events(
                _session_of(message), message.get("max")
            )
            return {"ok": True, "events": [e.to_dict() for e in events]}
        if op == "close":
            return manager.close_session(_session_of(message)).to_reply()
        if op == "swap_detector":
            swapped = manager.swap_detector(
                detector_from_state(message["state"])
            )
            return {"ok": True, "sessions": swapped}
        if op in ("telemetry", "shutdown"):
            return {"ok": True, "telemetry": manager.snapshot()}
        if op == "drain":
            return {"ok": True}
        raise ServiceError(f"unknown op {op!r}")
    except KeyError as exc:
        return error_frame(f"missing field {exc}")
    except ReproError as exc:
        return error_frame(exc)


def _session_of(message: dict) -> str:
    """The frame's session id; a null one counts as missing."""
    session = message.get("session")
    if session is None:
        raise KeyError("session")
    return str(session)


def consume(
    manager: SessionManager, dirty: "queue.Queue[str | None]"
) -> None:
    """A shard's consumer loop, until a ``None`` sentinel: for each
    session handed over as due, decide its queued chunks while it stays
    due, in joined blocks of up to
    :data:`~repro.service.manager.DECIDE_WINDOWS` window steps."""
    while True:
        session_id = dirty.get()
        if session_id is None:
            return
        try:
            manager.pump(session_id, due_only=True)
        except ServiceError:
            pass  # closed with chunks in flight — accounted at close


def _shard_worker_main(
    shard_index: int, socket_path: str, config: ServiceConfig
) -> None:
    """One shard process: a SessionManager, a consumer thread, a frame loop.

    The frame loop is the producer (admission, so backpressure verdicts
    return immediately, plus the inline decisions of ``poll``, ``close``
    and the barriers); the consumer thread decides the sessions that
    became due.
    """
    # Termination is the parent's job (shutdown frame, then EOF): a
    # terminal SIGINT/SIGTERM aimed at the process group must not kill
    # shards before they finish draining admitted chunks.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    manager = SessionManager(config)
    dirty: "queue.Queue[str | None]" = queue.Queue()
    consumer = threading.Thread(
        target=consume,
        args=(manager, dirty),
        name=f"shard-{shard_index}-consumer",
        daemon=True,
    )
    consumer.start()

    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.connect(socket_path)
    rfile = conn.makefile("rb")
    wfile = conn.makefile("wb")
    try:
        write_frame_sync(wfile, {"op": "hello", "shard": shard_index})
        while True:
            message = read_frame_sync(rfile)
            if message is None:
                break  # parent is gone; nothing left to answer
            write_frame_sync(wfile, shard_dispatch(manager, dirty, message))
            if message.get("op") == "shutdown":
                break
    finally:
        dirty.put(None)
        consumer.join()
        conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
class _ShardClient:
    """Parent-side handle of one worker shard: pipelined frame RPC.

    Requests are answered strictly in order by the single-threaded
    worker, so a FIFO of futures is the whole correlation protocol —
    concurrent callers pipeline onto one pipe without request ids.

    ``on_death`` (when set) fires once when the shard's connection is
    lost *unexpectedly* — an EOF or transport error in the reader task,
    never a deliberate :meth:`close` — giving the pool its eager
    restart signal.
    """

    def __init__(self, index: int, process: multiprocessing.Process) -> None:
        self.index = index
        self.process = process
        self.on_death: Callable[[], None] | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: deque[asyncio.Future] = deque()
        self._reader_task: asyncio.Task | None = None
        self._dead: str | None = None

    @property
    def healthy(self) -> bool:
        return self._dead is None and self._writer is not None

    def attach(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._reader_task = asyncio.create_task(self._read_responses())

    async def _read_responses(self) -> None:
        try:
            while True:
                message = await read_frame(self._reader)
                if message is None:
                    break
                if self._pending:
                    fut = self._pending.popleft()
                    if not fut.done():
                        fut.set_result(message)
        except (ServiceError, OSError):
            pass
        self._fail_pending(f"shard {self.index} connection lost")
        if self.on_death is not None:
            self.on_death()

    def _fail_pending(self, reason: str) -> None:
        self._dead = self._dead or reason
        while self._pending:
            fut = self._pending.popleft()
            if not fut.done():
                fut.set_exception(ServiceError(reason))

    async def request(self, message: dict) -> dict:
        """Send one frame, await its (order-matched) response."""
        if self._dead is not None or self._writer is None:
            raise ServiceError(
                self._dead or f"shard {self.index} is not connected"
            )
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        # Append and write with no await in between: the FIFO position
        # must match the wire order.
        self._pending.append(fut)
        write_frame(self._writer, message)
        try:
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self._fail_pending(f"shard {self.index} connection lost")
        return await fut

    async def close(self) -> None:
        # A deliberate close must never look like a death: detach the
        # callback before tearing the reader down.
        self.on_death = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None
        self._fail_pending(f"shard {self.index} is closed")


class _SessionRecord:
    """Parent-side resilience state of one live session.

    The journal holds every acknowledged frame that shapes the
    session's decision stream — the ``open`` (pinned to its open-time
    detector state), each *admitted* ``chunk``, and any ``swap_detector``
    that fired while the session was open — in acknowledgement order.
    Replaying it verbatim on a fresh shard rebuilds the exact stream
    state, because decisions are a pure function of the admitted sample
    sequence and the detector schedule.

    The journal is bounded by ``replay_buffer`` admitted chunks; a
    session that outgrows it (or sheds chunks, whose timing-dependent
    drop pattern cannot be reproduced) is marked unreplayable and will
    be surfaced as lost if its shard dies.  Swaps stay bounded too: a
    swap right after another replaces it (see :meth:`add_swap`), so the
    journal holds at most one swap after the open and after each
    journaled chunk.
    """

    __slots__ = (
        "session_id", "shard", "journal", "chunks", "events_delivered",
        "unreplayable",
    )

    def __init__(self, session_id: str, shard: int, opened: dict) -> None:
        self.session_id = session_id
        self.shard = shard
        self.journal: list[dict] = [opened]
        self.chunks = 0
        self.events_delivered = 0
        self.unreplayable: str | None = None

    def mark_unreplayable(self, reason: str) -> None:
        self.unreplayable = self.unreplayable or reason
        self.journal.clear()

    def add_chunk(self, frame: dict, capacity: int) -> None:
        if self.unreplayable:
            return
        self.chunks += 1
        if self.chunks > capacity:
            self.mark_unreplayable(
                f"it admitted more chunks than replay_buffer={capacity} "
                f"journals"
            )
            return
        self.journal.append(frame)

    def add_swap(self, frame: dict) -> None:
        """Journal a ``swap_detector``.  A swap whose predecessor is a
        swap replaces it: a swap decides every queued chunk before it
        installs its detector, and no chunk of this session came
        between the two, so the earlier detector scores no window."""
        if self.unreplayable:
            return
        if self.journal[-1].get("op") == "swap_detector":
            self.journal[-1] = frame
        else:
            self.journal.append(frame)


class ServiceShardPool:
    """N single-process services behind one front door.

    Lifecycle: ``await start()`` spawns the shards, :meth:`serve` adds
    the client-facing TCP listener, ``await stop()`` drains every shard
    and returns the final merged telemetry snapshot.  Also usable as an
    async context manager.

    The in-process async API has the verbs and result types of
    :class:`~repro.service.ingest.DetectionService`
    (open/ingest/poll/close/swap/drain), with two differences: sessions
    run the config's default detector or a serialized
    :meth:`RealTimeDetector.to_state` payload (a live in-memory detector
    object cannot cross a process boundary), and :meth:`snapshot` is a
    coroutine (it asks every shard).

    The pool is self-healing: a dead worker is respawned and its
    sessions re-homed from their parent-side journals, byte-identical
    to an unkilled run (see the module docstring).  A session whose
    journal cannot reproduce it — more admitted chunks than
    ``config.replay_buffer``, so any chunk at ``0`` — fails its
    requests with ``shard-death`` errors, while the restarted shard
    serves every other session.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.n_workers = self.config.workers
        #: Parent-side collector: admission + resilience counters (the
        #: shards count sessions/chunks/latency; merge overlays this).
        self.telemetry = ServiceTelemetry()
        self.gate = AdmissionGate(self.config, self.telemetry)
        self._clients: list[_ShardClient] = []
        self._hello_futures: dict[int, asyncio.Future] = {}
        self._ready: list[asyncio.Event] = []
        self._restart_locks: list[asyncio.Lock] = []
        self._restart_tasks: set[asyncio.Task] = set()
        self._broken: dict[int, str] = {}
        self._records: dict[str, _SessionRecord] = {}
        self._lost: dict[str, str] = {}
        self._detector_state: dict | None = None
        self._tmpdir: str | None = None
        self._socket_path: str | None = None
        self._ipc_server: asyncio.base_events.Server | None = None
        self._server: asyncio.base_events.Server | None = None
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "ServiceShardPool":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def shard_of(self, session_id: str) -> int:
        """The shard hosting ``session_id`` (stable across runs)."""
        return shard_index_of(session_id, self.n_workers)

    def worker_pid(self, index: int) -> int:
        """OS pid of one worker shard (fault-injection hooks in tests
        and the CI resilience smoke kill shards by pid)."""
        if not self._started:
            raise ServiceError("shard pool is not started")
        pid = self._clients[index].process.pid
        assert pid is not None
        return pid

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker shards and wait for every hello."""
        if self._started:
            return
        loop = asyncio.get_running_loop()
        self._tmpdir = tempfile.mkdtemp(prefix="repro-fleet-")
        self._socket_path = os.path.join(self._tmpdir, "shards.sock")
        self._hello_futures = {
            index: loop.create_future() for index in range(self.n_workers)
        }
        self._ipc_server = await asyncio.start_unix_server(
            self._accept_shard, self._socket_path
        )
        for index in range(self.n_workers):
            self._clients.append(
                _ShardClient(index, self._spawn_worker(index))
            )

        deadline = loop.time() + _HELLO_TIMEOUT_S
        while not all(fut.done() for fut in self._hello_futures.values()):
            dead = [
                c.index
                for c in self._clients
                if not c.process.is_alive()
                and not self._hello_futures[c.index].done()
            ]
            if dead or loop.time() > deadline:
                await self._abort_start()
                raise ServiceError(
                    f"shard worker(s) {dead} died before connecting"
                    if dead
                    else "timed out waiting for shard workers to connect"
                )
            await asyncio.sleep(0.05)
        for client in self._clients:
            reader, writer = self._hello_futures[client.index].result()
            self._arm(client)
            client.attach(reader, writer)
        self._ready = [asyncio.Event() for _ in range(self.n_workers)]
        for event in self._ready:
            event.set()
        self._restart_locks = [
            asyncio.Lock() for _ in range(self.n_workers)
        ]
        self._started = True

    def _spawn_worker(self, index: int) -> multiprocessing.Process:
        ctx = multiprocessing.get_context("spawn")
        process = ctx.Process(
            target=_shard_worker_main,
            args=(index, self._socket_path, self.config),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        return process

    async def _accept_shard(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """IPC-socket accept: match a worker's hello to its future.

        Serves both the initial fleet bring-up and every post-restart
        reconnection — a restart just re-registers a fresh future for
        its shard index before respawning.
        """
        hello = await read_frame(reader)
        if (
            not isinstance(hello, dict)
            or hello.get("op") != "hello"
            or not isinstance(hello.get("shard"), int)
            or not 0 <= hello["shard"] < self.n_workers
        ):
            writer.close()
            return
        fut = self._hello_futures.get(hello["shard"])
        if fut is not None and not fut.done():
            fut.set_result((reader, writer))
        else:
            writer.close()

    def _arm(self, client: _ShardClient) -> None:
        """Wire the eager-restart death callback."""
        index = client.index

        def on_death() -> None:
            if self._stopping or not self._started:
                return
            if self._clients[index] is not client:
                return  # a newer incarnation already replaced this one
            self._ready[index].clear()
            task = asyncio.get_running_loop().create_task(
                self._restart_guarded(index)
            )
            self._restart_tasks.add(task)
            task.add_done_callback(self._restart_tasks.discard)

        client.on_death = on_death

    async def _restart_guarded(self, index: int) -> None:
        try:
            await self._ensure_shard(index)
        except ServiceError:
            pass  # permanent failure is recorded; requests surface it

    async def _abort_start(self) -> None:
        for client in self._clients:
            if client.process.is_alive():
                client.process.terminate()
        self._clients = []
        await self._close_ipc()

    async def _close_ipc(self) -> None:
        if self._ipc_server is not None:
            self._ipc_server.close()
            await self._ipc_server.wait_closed()
            self._ipc_server = None
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None
            self._socket_path = None

    async def stop(self) -> dict:
        """Drain and shut down every shard; returns the final merged
        telemetry snapshot (chunks admitted before the stop are decided
        — the fleet never exits with undecided data)."""
        self._stopping = True
        if not self._started:
            await self._close_ipc()
            return self._overlay(ServiceTelemetry.merge([]))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Let any in-flight restart settle before asking its shard to
        # shut down (a half-respawned worker would otherwise be orphaned).
        if self._restart_tasks:
            await asyncio.gather(
                *self._restart_tasks, return_exceptions=True
            )
        snapshots = []
        for client in self._clients:
            try:
                reply = await client.request({"op": "shutdown"})
                if reply.get("ok") and "telemetry" in reply:
                    snapshots.append(reply["telemetry"])
            except ServiceError:
                pass  # a dead shard has no final counters to offer
        merged = self._overlay(ServiceTelemetry.merge(snapshots))
        for client in self._clients:
            await client.close()
        loop = asyncio.get_running_loop()
        for client in self._clients:
            await loop.run_in_executor(None, client.process.join, 10.0)
            if client.process.is_alive():  # pragma: no cover - hang backstop
                client.process.terminate()
                await loop.run_in_executor(None, client.process.join, 5.0)
        self._clients = []
        self._records = {}
        self._lost = {}
        self._broken = {}
        self._started = False
        self._stopping = False
        await self._close_ipc()
        return merged

    def _overlay(self, merged: dict) -> dict:
        """Fold the parent's admission/resilience counters into a merged
        shard snapshot (the parent is a router, not an extra worker —
        its counters must not inflate the ``workers`` count)."""
        parent = self.telemetry.snapshot()
        for section in ("admission", "resilience"):
            for key, value in parent[section].items():
                merged[section][key] = merged[section].get(key, 0) + value
        return merged

    # ------------------------------------------------------------------
    # Shard resilience: restart + re-homing
    # ------------------------------------------------------------------
    async def _ensure_shard(self, index: int) -> None:
        """Make shard ``index`` usable, restarting it if it died.

        Serialized per shard: the first caller performs the restart,
        concurrent callers wait on the same lock and find the shard
        healthy.  Raises :class:`ShardDeathError` when the shard cannot
        be (or may not be) revived.
        """
        async with self._restart_locks[index]:
            client = self._clients[index]
            if client.healthy and client.process.is_alive():
                self._ready[index].set()
                return
            if index in self._broken:
                self._ready[index].set()
                raise ShardDeathError(self._broken[index])
            if self._stopping:
                raise ShardDeathError(
                    f"shard {index} died during shutdown"
                )
            try:
                await self._restart_shard(index)
            except ShardDeathError:
                raise
            except ServiceError as exc:
                raise ShardDeathError(
                    f"shard {index} restart failed: {exc}"
                ) from None
            self._ready[index].set()

    async def _restart_shard(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        old = self._clients[index]
        await old.close()
        await loop.run_in_executor(None, old.process.join, 5.0)
        if old.process.is_alive():  # pragma: no cover - hang backstop
            old.process.kill()
            await loop.run_in_executor(None, old.process.join, 5.0)

        self._hello_futures[index] = loop.create_future()
        process = self._spawn_worker(index)
        client = _ShardClient(index, process)
        try:
            reader, writer = await asyncio.wait_for(
                self._hello_futures[index], _HELLO_TIMEOUT_S
            )
        except asyncio.TimeoutError:  # pragma: no cover - spawn backstop
            reason = f"shard {index} failed to reconnect after restart"
            self._broken[index] = reason
            if process.is_alive():
                process.terminate()
            raise ShardDeathError(reason) from None
        self._arm(client)
        client.attach(reader, writer)
        self._clients[index] = client
        self.telemetry.shard_restarted()
        await self._rehome(index, client)

    async def _rehome(self, index: int, client: _ShardClient) -> None:
        """Replay the dead shard's sessions onto its fresh incarnation.

        Sessions replay sequentially, each journal in acknowledgement
        order, so every chunk is decided under the same detector the
        original shard used.  Already-delivered events are discarded by
        polling exactly ``events_delivered`` regenerated decisions, so
        the client-visible stream continues without duplication — byte
        identical to an unkilled run.  A trailing ``swap_detector``
        (when one ever fired) restores the fleet's current default for
        sessions opened after the restart.
        """
        for record in [
            r for r in self._records.values() if r.shard == index
        ]:
            if record.unreplayable:
                self._lose(record, record.unreplayable)
                continue
            try:
                rehomed = await self._replay(client, record)
            except ServiceError as exc:
                # Double fault: the fresh shard died mid-replay.  Its
                # own death callback restarts it again; this session's
                # journal is intact, so it simply re-homes next round —
                # but count nothing yet.
                raise ServiceError(
                    f"shard {index} died again during re-homing: {exc}"
                ) from None
            if rehomed:
                self.telemetry.session_rehomed()
        if self._detector_state is not None:
            reply = await client.request(
                {"op": "swap_detector", "state": self._detector_state}
            )
            if not reply.get("ok"):  # pragma: no cover - shard-side bug
                raise ServiceError(
                    f"post-restart detector swap failed: {reply.get('error')}"
                )

    async def _replay(
        self, client: _ShardClient, record: _SessionRecord
    ) -> bool:
        """Replay one session's journal; returns True when re-homed."""
        for frame in record.journal:
            reply = await client.request(frame)
            if frame.get("op") == "chunk":
                if reply.get("ok") and not reply.get("accepted"):
                    # Replay outruns the shard's consumer: drain and
                    # retry once (policy-independent — the journal holds
                    # only chunks the original shard admitted).
                    await client.request({"op": "drain"})
                    reply = await client.request(frame)
                if not reply.get("ok") or not reply.get("accepted"):
                    why = reply.get(
                        "error", reply.get("reason", "chunk refused")
                    )
                    self._lose(record, f"replay rejected: {why}")
                    return False
                if reply.get("shed", 0):
                    self._lose(record, "replay shed chunks")
                    return False
                if reply.get("queued", 0) >= self.config.queue_depth - 1:
                    await client.request({"op": "drain"})
            elif not reply.get("ok"):
                self._lose(
                    record, f"replay failed: {reply.get('error', frame['op'])}"
                )
                return False
        if record.events_delivered > 0:
            reply = await client.request({
                "op": "poll",
                "session": record.session_id,
                "max": record.events_delivered,
            })
            if (
                not reply.get("ok")
                or len(reply.get("events", ())) != record.events_delivered
            ):
                self._lose(record, "re-homed event stream diverged")
                return False
        return True

    def _lose(self, record: _SessionRecord, reason: str) -> None:
        self._records.pop(record.session_id, None)
        self._lost[record.session_id] = reason
        self.telemetry.session_lost()

    async def _shard_request(self, index: int, message: dict) -> dict:
        """One pipelined request with transparent restart-and-retry.

        The ready gate is a cheap no-op while the shard is healthy, so
        the concurrent fast path keeps its full pipelining; only during
        a restart do requests queue behind :meth:`_ensure_shard`.  A
        request that races a death retries exactly once after the
        restart — correct for every verb because the journal (the sole
        source of re-homed state) holds only *acknowledged* operations,
        so an unacknowledged frame is provably absent from the rebuilt
        shard.
        """
        if not self._started:
            raise ServiceError("shard pool is not started")
        if not self._ready[index].is_set():
            await self._ensure_shard(index)
        try:
            return await self._clients[index].request(message)
        except ShardDeathError:
            raise
        except ServiceError as exc:
            if self._stopping:
                raise ShardDeathError(str(exc)) from None
            await self._ensure_shard(index)
            try:
                return await self._clients[index].request(message)
            except ServiceError as exc2:
                raise ShardDeathError(str(exc2)) from None

    # ------------------------------------------------------------------
    # Session routing + resilience bookkeeping
    # ------------------------------------------------------------------
    async def _session_request(self, message: dict) -> dict:
        """Route one session-scoped frame to its shard and book its
        effects into the replay journal."""
        session_id = str(message["session"])
        op = message.get("op")
        if op == "open":
            self._lost.pop(session_id, None)
            # Pin the open-time detector: a session opened after a
            # hot-swap must re-home under the swapped default, not the
            # config default.
            if message.get("state") is None and self._detector_state is not None:
                message = dict(message, state=self._detector_state)
        elif session_id in self._lost:
            reason = self._lost[session_id]
            if op == "close":
                self._lost.pop(session_id, None)
            raise ShardDeathError(
                f"session {session_id!r} was lost in a shard restart: "
                f"{reason}"
            )
        index = self.shard_of(session_id)
        reply = await self._shard_request(index, message)
        if not reply.get("ok") and op != "open" and session_id in self._lost:
            # The request raced a restart that declared this session
            # lost: surface the loss, not the fresh shard's confused
            # "no open session" protocol error.
            raise ShardDeathError(
                f"session {session_id!r} was lost in a shard restart: "
                f"{self._lost[session_id]}"
            )
        if reply.get("ok"):
            record = self._records.get(session_id)
            if op == "open":
                self._records[session_id] = _SessionRecord(
                    session_id, index, dict(message)
                )
            elif record is not None and op == "chunk":
                if reply.get("accepted"):
                    if reply.get("shed", 0) > 0:
                        record.mark_unreplayable(
                            "shed chunks cannot be replayed "
                            "deterministically"
                        )
                    else:
                        record.add_chunk(
                            dict(message), self.config.replay_buffer
                        )
            elif record is not None and op == "poll":
                record.events_delivered += len(reply.get("events", ()))
            elif op == "close":
                self._records.pop(session_id, None)
        return reply

    # ------------------------------------------------------------------
    # In-process async API (see the class docstring)
    # ------------------------------------------------------------------
    async def open_session(
        self, session_id: str, state: dict | None = None
    ) -> str:
        message: dict = {"op": "open", "session": str(session_id)}
        if state is not None:
            message["state"] = state
        reply = await self._checked(message)
        return reply["session"]

    async def ingest(
        self, session_id: str, chunk: np.ndarray, seq: int | None = None
    ) -> IngestResult:
        """Offer one chunk to the owning shard; the admission verdict
        (including backpressure) comes back as the shard's own
        :class:`IngestResult`, unchanged."""
        return IngestResult.from_reply(
            await self._checked(chunk_message(session_id, seq, chunk))
        )

    async def poll_events(
        self, session_id: str, max_events: int | None = None
    ) -> list[WindowDecision]:
        message: dict = {"op": "poll", "session": str(session_id)}
        if max_events is not None:
            message["max"] = max_events
        reply = await self._checked(message)
        return [WindowDecision(**event) for event in reply["events"]]

    async def close_session(self, session_id: str) -> SessionSummary:
        return SessionSummary.from_reply(
            await self._checked({"op": "close", "session": str(session_id)})
        )

    async def _checked(self, message: dict) -> dict:
        reply = await self._session_request(message)
        if not reply.get("ok"):
            raise exception_for(reply)
        return reply

    async def swap_detector(
        self,
        detector: "RealTimeDetector | ForestWindowDetector | dict",
    ) -> int:
        """Hot-swap every shard to a retrained detector, live.

        Accepts a fitted :class:`RealTimeDetector`, its
        :class:`ForestWindowDetector` wrapper, or an already-serialized
        ``to_state()`` payload.  Each shard drains and swaps at a
        window boundary without dropping sessions; the state is also
        journaled so re-homing replays pre-swap chunks under the old
        detector and post-swap chunks under the new one, and becomes
        the default for sessions opened later.  Returns the total
        sessions swapped across the fleet.
        """
        return await self._swap_state(detector_state_of(detector))

    async def _swap_state(self, state) -> int:
        """Broadcast one serialized detector state, unchecked: each
        shard validates it, so a bad wire ``state`` gets the shard's
        own error frame, as on the single-process service."""
        if not self._started:
            raise ServiceError("shard pool is not started")
        total = 0
        for index in range(self.n_workers):
            frame = {"op": "swap_detector", "state": state}
            reply = await self._shard_request(index, frame)
            if not reply.get("ok"):
                raise exception_for(reply)
            total += int(reply.get("sessions", 0))
            # Journal the swap into every session homed on this shard,
            # at acknowledgement order — replay will apply it between
            # exactly the chunks it originally fell between.
            for record in self._records.values():
                if record.shard == index:
                    record.add_swap(frame)
        self._detector_state = state
        return total

    async def drain(self) -> None:
        """Wait until every shard has decided every admitted chunk."""
        if not self._started:
            return
        await asyncio.gather(
            *(
                self._shard_request(index, {"op": "drain"})
                for index in range(self.n_workers)
            )
        )

    async def snapshot(self) -> dict:
        """Fleet-wide merged telemetry (plus per-shard breakdowns).

        Shards that are dead and unrevivable are skipped — the fleet
        keeps reporting with the survivors' counters, the parent's
        ``resilience`` section records what was lost.
        """
        if not self._started:
            raise ServiceError("shard pool is not started")
        replies = await asyncio.gather(
            *(
                self._shard_request(index, {"op": "telemetry"})
                for index in range(self.n_workers)
            ),
            return_exceptions=True,
        )
        snapshots = [
            reply["telemetry"]
            for reply in replies
            if isinstance(reply, dict) and reply.get("ok")
        ]
        return self._overlay(ServiceTelemetry.merge(snapshots))

    # ------------------------------------------------------------------
    # Client-facing socket front-end (the one listener)
    # ------------------------------------------------------------------
    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Start the client listener; same wire protocol as the
        single-process service, with frames routed to the owning shard."""
        listen_port(port)
        await self.start()
        self._server = await asyncio.start_server(
            self._handle_client, host, port
        )
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_connection(reader, writer, self.gate, self._route)

    async def _route(self, message: dict) -> dict:
        """Forward one client frame to its shard (or answer fleet-wide).

        Session-scoped frames travel verbatim — the shard's dispatch is
        the semantic authority, the parent only routes (plus journals
        acknowledged frames for re-homing) — so every response,
        including error frames, is exactly what the single-process
        service would have produced.
        """
        op = message.get("op")
        try:
            if op == "telemetry":
                return {"ok": True, "telemetry": await self.snapshot()}
            if op == "swap_detector":
                swapped = await self._swap_state(message["state"])
                return {"ok": True, "sessions": swapped}
            if op in ("open", "chunk", "poll", "close"):
                if message.get("session") is None:
                    return error_frame("missing field 'session'")
                return await self._session_request(message)
            raise ServiceError(f"unknown op {op!r}")
        except KeyError as exc:
            return error_frame(f"missing field {exc}")
        except ReproError as exc:
            return error_frame(exc)
