"""Admission control for the service's socket front door.

Both transports — the single-process :class:`~repro.service.ingest
.DetectionService` and the multi-process :class:`~repro.service.fleet
.ServiceShardPool` — accept clients through the same
:func:`serve_connection` loop, gated by one :class:`AdmissionGate`.
The gate sees every frame *before* it reaches the dispatcher and
enforces the three client-facing policies of
:class:`~repro.service.config.ServiceConfig`:

* **handshake** — a versioned ``hello`` frame (``{"op": "hello",
  "version": 2, "token": ...}``, :data:`~repro.service.framing
  .PROTOCOL_VERSION`).  Unknown versions, version 1 (base64 chunk
  samples) among them, are refused with a ``protocol`` error frame and
  a clean close.  Clients that send no hello at all speak the same
  frames and keep working while auth is disabled.
* **auth** — with ``auth_tokens`` configured, every connection must
  hello with a listed token before any other op; violations get an
  ``auth`` error frame and a clean close.
* **quotas** — per-client caps: concurrently open sessions
  (``max_sessions_per_client``) and sustained chunk rate
  (``chunk_rate``, a token bucket with one second of burst).  Quota
  denials are per-frame ``quota`` error frames; the connection stays
  usable.

A *client* is the auth token when one was presented, else the
connection itself — so anonymous clients cannot pool quota across
connections, and one token's quota spans all its connections.  Every
denial is a structured error frame (:func:`~repro.service.framing
.error_frame`) and counted in :class:`~repro.service.telemetry
.ServiceTelemetry` (``admission`` section).

The clock is injectable so rate-limit tests are deterministic.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from typing import Awaitable, Callable

from ..exceptions import (
    AuthError,
    QuotaError,
    ServiceError,
)
from .config import ServiceConfig
from .framing import (
    PROTOCOL_VERSION,
    error_frame,
    read_frame,
    write_frame,
)
from .telemetry import ServiceTelemetry

__all__ = ["AdmissionGate", "ClientConnection", "serve_connection"]


class ClientConnection:
    """Per-connection admission state, created by :meth:`AdmissionGate
    .connection` and threaded through :func:`serve_connection`."""

    __slots__ = ("client_key", "authenticated", "hello_done", "closed")

    def __init__(self, client_key: str) -> None:
        self.client_key = client_key
        self.authenticated = False
        self.hello_done = False
        #: Set by the gate on fatal denials (bad version/token); the
        #: serve loop sends the error frame, then closes the socket.
        self.closed = False


class _TokenBucket:
    """Sustained-rate limiter: ``rate`` tokens/second, 1 s of burst."""

    __slots__ = ("rate", "capacity", "tokens", "stamp")

    def __init__(self, rate: float, now: float) -> None:
        self.rate = rate
        self.capacity = max(1.0, rate)
        self.tokens = self.capacity
        self.stamp = now

    def admit(self, now: float) -> bool:
        elapsed = max(0.0, now - self.stamp)
        self.stamp = now
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionGate:
    """Screens client frames against auth + per-client quotas.

    One gate per service front door, shared by every connection.  All
    state lives on the event loop (no locks): ``screen`` decides
    *before* a frame reaches the dispatcher, ``observe`` books the
    session open/close effects of successful replies.
    """

    def __init__(
        self,
        config: ServiceConfig,
        telemetry: ServiceTelemetry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self._clock = clock
        self._anon_ids = itertools.count(1)
        #: client key -> session ids currently open under that key.
        self._sessions: dict[str, set[str]] = {}
        #: session id -> owning client key (for close-side bookkeeping).
        self._owners: dict[str, str] = {}
        #: client key -> chunk-rate token bucket.
        self._buckets: dict[str, _TokenBucket] = {}

    @property
    def auth_required(self) -> bool:
        return bool(self.config.auth_tokens)

    def connection(self) -> ClientConnection:
        """Fresh per-connection state (anonymous until a hello names a
        token)."""
        return ClientConnection(f"anon-{next(self._anon_ids)}")

    # ------------------------------------------------------------------
    def screen(self, conn: ClientConnection, message: dict) -> dict | None:
        """Gate one inbound frame.

        Returns the reply frame for handshakes and denials (the frame
        never reaches the dispatcher), or ``None`` to let it through.
        """
        op = message.get("op")
        if op == "hello":
            return self._hello(conn, message)
        if self.auth_required and not conn.authenticated:
            conn.closed = True
            self._count("auth_failed")
            return error_frame(
                AuthError(
                    "authentication required: send a hello frame with a "
                    "valid token before other ops"
                )
            )
        if op == "open":
            return self._screen_open(conn, message)
        if op == "chunk":
            return self._screen_chunk(conn)
        return None

    def observe(
        self, conn: ClientConnection, message: dict, reply: dict
    ) -> None:
        """Book the quota effects of a successful dispatcher reply."""
        if not reply.get("ok"):
            return
        op = message.get("op")
        if op == "open":
            session_id = str(message.get("session"))
            self._owners[session_id] = conn.client_key
            self._sessions.setdefault(conn.client_key, set()).add(session_id)
        elif op == "close":
            session_id = str(message.get("session"))
            owner = self._owners.pop(session_id, None)
            if owner is not None:
                held = self._sessions.get(owner)
                if held is not None:
                    held.discard(session_id)
                    if not held:
                        del self._sessions[owner]

    def release(self, conn: ClientConnection) -> None:
        """Drop a disconnected client's rate state.

        Open-session bookkeeping survives the connection on purpose: the
        sessions themselves stay open server-side, so they must keep
        counting against the client until something closes them.
        """
        if not self._sessions.get(conn.client_key):
            self._buckets.pop(conn.client_key, None)

    # ------------------------------------------------------------------
    def _hello(self, conn: ClientConnection, message: dict) -> dict:
        version = message.get("version")
        if version != PROTOCOL_VERSION:
            conn.closed = True
            self._count("auth_failed")
            return error_frame(
                ServiceError(
                    f"unsupported protocol version {version!r} "
                    f"(this service speaks version {PROTOCOL_VERSION})"
                )
            )
        token = message.get("token")
        if self.auth_required:
            if not isinstance(token, str) or token not in set(
                self.config.auth_tokens
            ):
                conn.closed = True
                self._count("auth_failed")
                return error_frame(
                    AuthError("invalid or missing auth token")
                )
            conn.authenticated = True
            # The token is the client identity: quotas pool across every
            # connection presenting it.
            conn.client_key = f"token-{token}"
        conn.hello_done = True
        self._count("handshake_ok")
        return {
            "ok": True,
            "version": PROTOCOL_VERSION,
            "authenticated": conn.authenticated,
        }

    def _screen_open(self, conn: ClientConnection, message: dict) -> dict | None:
        limit = self.config.max_sessions_per_client
        if not limit:  # 0: unlimited
            return None
        held = self._sessions.get(conn.client_key, ())
        session_id = str(message.get("session"))
        if session_id not in held and len(held) >= limit:
            self._count("quota_exceeded")
            return error_frame(
                QuotaError(
                    f"client has {len(held)} open sessions, the per-client "
                    f"limit is {limit}"
                )
            )
        return None

    def _screen_chunk(self, conn: ClientConnection) -> dict | None:
        rate = self.config.chunk_rate
        if rate in (0, math.inf):  # unlimited
            return None
        now = self._clock()
        bucket = self._buckets.get(conn.client_key)
        if bucket is None:
            bucket = self._buckets[conn.client_key] = _TokenBucket(rate, now)
        if bucket.admit(now):
            return None
        self._count("quota_exceeded")
        return error_frame(
            QuotaError(
                f"chunk rate above the {rate:g}/s per-client budget"
            )
        )

    def _count(self, event: str) -> None:
        if self.telemetry is not None:
            getattr(self.telemetry, event)()


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    gate: AdmissionGate,
    dispatch: Callable[[dict], Awaitable[dict]],
) -> None:
    """The one client-connection loop, shared by both transports.

    Frames flow read → gate → dispatch → reply; a framing violation
    fails the connection (the stream cannot recover), a gate denial or
    dispatcher error fails only its own request — except fatal denials
    (bad version, bad/missing token under auth), where the gate marks
    the connection closed and the loop hangs up after replying.
    """
    conn = gate.connection()
    try:
        while True:
            try:
                message = await read_frame(reader)
            except ServiceError as exc:
                write_frame(writer, error_frame(exc))
                await writer.drain()
                break  # framing is broken; the stream cannot recover
            if message is None:
                break
            reply = gate.screen(conn, message)
            if reply is None:
                reply = await dispatch(message)
                gate.observe(conn, message, reply)
            write_frame(writer, reply)
            await writer.drain()
            if conn.closed:
                break
    finally:
        gate.release(conn)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
