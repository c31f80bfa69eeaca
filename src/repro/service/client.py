"""Typed synchronous client for the detection service's socket protocol.

:class:`ServiceClient` wraps one TCP connection to a running
:class:`~repro.service.ingest.DetectionService` or
:class:`~repro.service.fleet.ServiceShardPool` listener behind the same
typed surface the in-process async API offers — :meth:`open` /
:meth:`push` / :meth:`poll` / :meth:`close` returning the service's own
result types (:class:`~repro.service.manager.IngestResult`,
:class:`~repro.service.session.WindowDecision`,
:class:`~repro.service.manager.SessionSummary`) instead of raw reply
dicts.  Error frames come back as the typed exceptions their ``code``
field names (:func:`~repro.service.framing.exception_for`):
:class:`~repro.exceptions.AuthError`, :class:`~repro.exceptions
.QuotaError`, :class:`~repro.exceptions.BackpressureError`,
:class:`~repro.exceptions.ShardDeathError`, or plain
:class:`~repro.exceptions.ServiceError` for protocol faults.

On connect the client performs the versioned ``hello`` handshake
(:data:`~repro.service.framing.PROTOCOL_VERSION`, plus the auth token
when one is given).  ``handshake=False`` sends no hello at all, which
servers accept while auth is disabled; the frames are the same.

The client is deliberately synchronous (a blocking socket and two
``makefile`` wrappers): it serves examples, benchmarks, smoke scripts,
and operational tooling, where straight-line code beats an event loop.
It is not thread-safe; use one client per thread.
"""

from __future__ import annotations

import math
import numbers
import socket

import numpy as np

from ..exceptions import ServiceError
from ..selflearning.detector import RealTimeDetector
from .framing import (
    PROTOCOL_VERSION,
    chunk_message,
    exception_for,
    read_frame_sync,
    write_frame_sync,
)
from .manager import IngestResult, SessionSummary
from .session import ForestWindowDetector, WindowDecision, detector_state_of

__all__ = ["ServiceClient"]


class ServiceClient:
    """One authenticated connection to a detection-service listener.

    Parameters
    ----------
    host, port:
        The listener address (as returned by ``serve()`` or printed by
        ``repro serve``).
    token:
        Auth token for services with ``auth_tokens`` configured;
        ``None`` connects anonymously (valid while auth is disabled).
    handshake:
        Send the versioned hello on connect (default).  ``False`` skips
        it (accepted while the service has auth disabled).
    timeout:
        Socket timeout in seconds for connect and every reply; anything
        but a finite positive number is refused with
        :class:`~repro.exceptions.ServiceError` before connecting.

    Usable as a context manager; exiting disconnects the socket (open
    sessions survive server-side — close them explicitly when the
    stream is done).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        handshake: bool = True,
        timeout: float = 30.0,
    ) -> None:
        if not (
            isinstance(timeout, numbers.Real) and math.isfinite(timeout) and timeout > 0
        ):
            raise ServiceError(
                f"timeout must be a finite positive number of seconds, got {timeout!r}"
            )
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from None
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self.server_version: int | None = None
        self.authenticated = False
        if handshake:
            hello: dict = {"op": "hello", "version": PROTOCOL_VERSION}
            if token is not None:
                hello["token"] = token
            reply = self.request(hello)
            self.server_version = int(reply["version"])
            self.authenticated = bool(reply["authenticated"])

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.disconnect()

    def disconnect(self) -> None:
        """Close the socket (idempotent)."""
        for closer in (self._wfile.close, self._rfile.close, self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover - best-effort teardown
                pass

    # ------------------------------------------------------------------
    def request(self, message: dict) -> dict:
        """Send one raw frame, return its ok-reply.

        The escape hatch under the typed verbs: error frames raise the
        typed exception their ``code`` names, so callers never have to
        inspect ``{"ok": False}`` dicts.
        """
        try:
            write_frame_sync(self._wfile, message)
            reply = read_frame_sync(self._rfile)
        except (OSError, ValueError) as exc:
            raise ServiceError(f"connection failed: {exc}") from None
        if reply is None:
            raise ServiceError("server closed the connection")
        if not reply.get("ok"):
            raise exception_for(reply)
        return reply

    # ------------------------------------------------------------------
    def open(self, session_id: str, state: dict | None = None) -> str:
        """Open a session; ``state`` optionally pins a serialized
        :meth:`RealTimeDetector.to_state` detector."""
        message: dict = {"op": "open", "session": str(session_id)}
        if state is not None:
            message["state"] = state
        return str(self.request(message)["session"])

    def push(
        self, session_id: str, chunk: np.ndarray, seq: int | None = None
    ) -> IngestResult:
        """Push one sample chunk; returns the admission verdict."""
        return IngestResult.from_reply(
            self.request(chunk_message(session_id, seq, chunk))
        )

    def poll(
        self, session_id: str, max_events: int | None = None
    ) -> list[WindowDecision]:
        """Collect decided windows (oldest first)."""
        message: dict = {"op": "poll", "session": str(session_id)}
        if max_events is not None:
            message["max"] = int(max_events)
        reply = self.request(message)
        return [WindowDecision(**event) for event in reply["events"]]

    def close(self, session_id: str) -> SessionSummary:
        """Finalize a session; returns its summary with trailing events."""
        return SessionSummary.from_reply(
            self.request({"op": "close", "session": str(session_id)})
        )

    def telemetry(self) -> dict:
        """The service (or merged fleet) telemetry snapshot."""
        return self.request({"op": "telemetry"})["telemetry"]

    def swap_detector(
        self, detector: "RealTimeDetector | ForestWindowDetector | dict"
    ) -> int:
        """Hot-swap the service to a retrained detector; returns the
        number of live sessions swapped."""
        reply = self.request(
            {"op": "swap_detector", "state": detector_state_of(detector)}
        )
        return int(reply["sessions"])
