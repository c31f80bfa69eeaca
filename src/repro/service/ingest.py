"""Async ingest front-end: fan live chunk streams into the session host.

:class:`DetectionService` puts an asyncio face on a
:class:`~repro.service.manager.SessionManager`: producers ``await
ingest(...)`` (in-process) or speak a small length-prefixed socket
protocol (:meth:`DetectionService.serve`).  An admitted chunk is only
queued: one consumer task decides a session once it is due
(:meth:`~repro.service.manager.SessionManager.claim_due`), and a
session's ``poll`` or ``close`` decides its own queue inline.
Backpressure propagates unchanged — a full queue surfaces the manager's
:class:`~repro.service.manager.IngestResult` to the async caller and as
an error frame to socket clients.

Wire protocol: one length-prefixed frame per message, both directions:
JSON, except that a chunk's samples follow its JSON header as raw
float64 bytes (:mod:`repro.service.framing`).  The verbs and their replies
are documented on :func:`~repro.service.fleet.shard_dispatch`, the one
verb table this service and every shard of the multi-process pool
answer with; the ``hello`` handshake is :mod:`repro.service.admission`'s.
"""

from __future__ import annotations

import asyncio

import numpy as np

from ..exceptions import ServiceError
from .admission import AdmissionGate, serve_connection
from .config import ServiceConfig
from .fleet import POOL_OPS, listen_port, shard_dispatch
from .framing import MAX_FRAME_BYTES, decode_chunk, error_frame
from .manager import IngestResult, SessionManager
from .session import WindowDetector

__all__ = [
    "DetectionService",
    "MAX_FRAME_BYTES",
    "decode_chunk",  # re-exported: perfbench/layertrace.py wraps it by name
]


class DetectionService:
    """Asyncio host around a :class:`SessionManager`.

    Start with :meth:`start` (spawns the consumer task), feed with
    :meth:`ingest` / :meth:`serve`, stop with :meth:`stop`.  Also usable
    as an async context manager.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        manager: SessionManager | None = None,
    ) -> None:
        if config is not None and manager is not None:
            raise ServiceError("pass config or manager, not both")
        # `is not None`, not truthiness: an empty manager has len() == 0.
        self.manager = (
            manager if manager is not None else SessionManager(config)
        )
        self.gate = AdmissionGate(self.manager.config, self.manager.telemetry)
        #: Sessions handed to the consumer as due, each at most once.
        self._dirty: asyncio.Queue[str] = asyncio.Queue()
        self._consumer: asyncio.Task | None = None
        self._server: asyncio.base_events.Server | None = None

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "DetectionService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def start(self) -> None:
        if self._consumer is None:
            self._consumer = asyncio.create_task(self._consume())

    async def stop(self) -> dict:
        """Drain outstanding work, then cancel the consumer and server;
        returns the final telemetry snapshot (as
        :meth:`ServiceShardPool.stop <repro.service.fleet.ServiceShardPool.stop>`
        does)."""
        await self.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None
        return self.snapshot()

    async def drain(self) -> None:
        """Decide every admitted chunk of every session (the global
        barrier)."""
        self.manager.pump_all()

    async def _consume(self) -> None:
        """The single consumer: for each session handed over as due,
        decide its queued chunks while it stays due.

        A session is due once :data:`~repro.service.manager
        .DECIDE_WINDOWS` window steps or a full queue are waiting, so a
        wakeup decides one joined block of up to 64 windows, not one
        chunk.  Decisions are numpy-bound; running them on the loop
        keeps the service single-process and deterministic, and the
        block cap keeps the loop responsive between decisions.
        """
        while True:
            session_id = await self._dirty.get()
            try:
                self.manager.pump(session_id, due_only=True)
            except ServiceError:
                pass  # session closed with chunks in flight — accounted there

    # ------------------------------------------------------------------
    # In-process async API
    # ------------------------------------------------------------------
    async def open_session(
        self, session_id: str, detector: WindowDetector | None = None
    ):
        return self.manager.open_session(session_id, detector)

    async def ingest(
        self, session_id: str, chunk: np.ndarray, seq: int | None = None
    ) -> IngestResult:
        """Offer one chunk; never decides it inline.

        The returned result is the *admission* verdict (backpressure is
        synchronous and explicit).  The chunk is decided by the consumer
        task once its session is due, or by the session's own poll or
        close — poll or close to collect events.
        """
        result = self.manager.ingest(session_id, chunk, seq=seq)
        if result.accepted and self.manager.claim_due(session_id):
            self._dirty.put_nowait(session_id)
        return result

    async def poll_events(self, session_id: str, max_events: int | None = None):
        """Decide this session's queued chunks, then collect decisions."""
        return self.manager.poll_events(session_id, max_events)

    async def close_session(self, session_id: str, drain: bool = True):
        # The manager's close decides the queue itself; a consumer
        # wakeup left for the closed session is absorbed by the pump's
        # unknown-session error.
        return self.manager.close_session(session_id, drain=drain)

    async def swap_detector(self, detector: WindowDetector) -> int:
        """Drain, then hot-swap every open session's detector.

        The drain pins the swap point deterministically: every chunk
        admitted before this call is decided by the old detector, every
        chunk after by the new one — a window boundary by the manager's
        lock discipline.  Returns the number of sessions swapped.
        """
        await self.drain()
        return self.manager.swap_detector(detector)

    def snapshot(self) -> dict:
        return self.manager.snapshot()

    # ------------------------------------------------------------------
    # Socket front-end
    # ------------------------------------------------------------------
    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Start the length-prefixed socket listener; returns the bound
        ``(host, port)`` (``port=0`` lets the OS choose)."""
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
        await serve_connection(reader, writer, self.gate, self._dispatch)

    async def _dispatch(self, message: dict) -> dict:
        """Answer one client frame with :func:`shard_dispatch`, keeping
        only the transport's part: refuse the pool-internal verbs."""
        op = message.get("op")
        if op in POOL_OPS:
            return error_frame(ServiceError(f"unknown op {op!r}"))
        return shard_dispatch(self.manager, self._dirty, message)
