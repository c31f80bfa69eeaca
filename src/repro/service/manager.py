"""Hosting thousands of detector sessions: queues, ordering, backpressure.

:class:`SessionManager` is the service's hot core.  Each session gets a
bounded ingest queue (admitted-but-undecided chunks) and a monotonically
checked sequence counter; a processing pump drains queues through the
session's detector and stamps every chunk's ingest→decision latency into
the shared telemetry.

Backpressure is explicit, never silent:

* ``reject`` — a full queue refuses the new chunk.  The caller sees
  ``IngestResult(accepted=False)`` (or :class:`~repro.exceptions
  .BackpressureError` under ``strict=True``) and telemetry counts the
  rejection.
* ``shed-oldest`` — a full queue drops its *oldest* queued chunk to
  admit the newest (fresh data beats stale data for a live detector).
  The shed count comes back in the ``IngestResult`` and telemetry; a
  shed chunk's samples are gone, so downstream window indices keep
  stream-time meaning only per contiguous run — which is why shedding
  is opt-in and the default policy refuses instead.

Threading: every public method is safe to call from any thread (one
manager lock for the session table, one lock per session for its queue),
so the asyncio front-end, a replayer thread, and a telemetry scraper can
share one manager.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..exceptions import BackpressureError, FeatureError, ServiceError
from .config import ServiceConfig
from .session import DetectorSession, WindowDecision, WindowDetector
from .telemetry import ServiceTelemetry

__all__ = ["IngestResult", "SessionSummary", "SessionManager"]


@dataclass(frozen=True)
class IngestResult:
    """What happened to one offered chunk — the backpressure surface.

    ``accepted`` is False only under the ``reject`` policy with a full
    queue; ``shed`` counts *other* (older) chunks dropped to admit this
    one under ``shed-oldest``.  ``queued`` is the session queue depth
    after the call.
    """

    session_id: str
    accepted: bool
    queued: int
    shed: int = 0
    reason: str = ""

    def to_reply(self) -> dict:
        """The ``chunk`` verb's ok-reply."""
        return {"ok": True, **dataclasses.asdict(self)}

    @classmethod
    def from_reply(cls, reply: dict) -> "IngestResult":
        """Inverse of :meth:`to_reply`."""
        return cls(**{f.name: reply[f.name] for f in dataclasses.fields(cls)})


@dataclass(frozen=True)
class SessionSummary:
    """Final accounting of one closed session.

    ``error`` carries the finalize failure (e.g. the short-stream
    :class:`~repro.exceptions.FeatureError`, text-identical to the batch
    path's) instead of raising — a client disconnecting two seconds into
    a stream is a normal service event, not a server fault.
    """

    session_id: str
    windows: int
    chunks: int
    samples: int
    shed: int
    trailing_events: tuple[WindowDecision, ...]
    error: str | None = None

    def to_reply(self) -> dict:
        """The ``close`` verb's ok-reply."""
        return dict(
            dataclasses.asdict(self),
            ok=True,
            trailing_events=[e.to_dict() for e in self.trailing_events],
        )

    @classmethod
    def from_reply(cls, reply: dict) -> "SessionSummary":
        """Inverse of :meth:`to_reply`."""
        fields = {f.name: reply[f.name] for f in dataclasses.fields(cls)}
        fields["trailing_events"] = tuple(
            WindowDecision(**event) for event in reply["trailing_events"]
        )
        return cls(**fields)


class _SessionState:
    """A hosted session plus its ingest queue and bookkeeping."""

    __slots__ = ("session", "queue", "lock", "next_seq", "shed")

    def __init__(self, session: DetectorSession) -> None:
        self.session = session
        #: (seq, ingest perf_counter timestamp, chunk)
        self.queue: deque[tuple[int, float, np.ndarray]] = deque()
        self.lock = threading.Lock()
        self.next_seq = 0
        self.shed = 0


class SessionManager:
    """Host for many independent :class:`DetectorSession` streams.

    Parameters
    ----------
    config:
        Shared :class:`~repro.service.config.ServiceConfig` (geometry,
        queue depth, backpressure policy).
    telemetry:
        Shared :class:`~repro.service.telemetry.ServiceTelemetry`; a
        fresh collector is created when omitted.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        telemetry: ServiceTelemetry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.telemetry = telemetry or ServiceTelemetry()
        self._sessions: dict[str, _SessionState] = {}
        self._lock = threading.Lock()
        #: Detector given to sessions opened without one; ``None`` keeps
        #: the config-threshold default.  Installed by :meth:`swap_detector`.
        self._default_detector: WindowDetector | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open_session(
        self, session_id: str, detector: WindowDetector | None = None
    ) -> DetectorSession:
        """Create and register a session; duplicate ids are an error."""
        session_id = str(session_id)
        if detector is None:
            detector = self._default_detector
        session = DetectorSession(session_id, self.config, detector)
        with self._lock:
            if session_id in self._sessions:
                raise ServiceError(
                    f"session {session_id!r} is already open"
                )
            self._sessions[session_id] = _SessionState(session)
        self.telemetry.session_opened()
        return session

    def _state(self, session_id: str) -> _SessionState:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise ServiceError(
                    f"no open session {session_id!r}"
                ) from None

    @property
    def session_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # Ingest (producer side)
    # ------------------------------------------------------------------
    def ingest(
        self,
        session_id: str,
        chunk: np.ndarray,
        seq: int | None = None,
        strict: bool = False,
    ) -> IngestResult:
        """Offer one chunk to a session's bounded queue.

        ``seq``, when given, must equal the count of chunks previously
        offered to this session — an out-of-order or repeated sequence
        number raises :class:`~repro.exceptions.ServiceError`
        immediately (per-session ordering is a hard invariant; a gap
        means the transport lost or reordered data and the stream-time
        feature geometry would silently shear).

        A chunk the detector could never decide — not ``(n_channels,
        n)`` samples, or holding NaN/inf — raises
        :class:`~repro.exceptions.ServiceError` before it is admitted,
        so it takes no ``seq`` and never reaches the consumer.

        Returns the :class:`IngestResult`; under the ``reject`` policy a
        full queue returns ``accepted=False`` (or raises
        :class:`~repro.exceptions.BackpressureError` when ``strict``).
        """
        state = self._state(session_id)
        chunk = np.asarray(chunk, dtype=float)
        if chunk.ndim == 1:
            chunk = chunk[None, :]
        if chunk.ndim != 2 or chunk.shape[0] != self.config.n_channels:
            raise ServiceError(
                f"session {session_id!r}: chunk must be "
                f"({self.config.n_channels}, n) samples, got {chunk.shape}"
            )
        if not np.isfinite(chunk).all():
            raise ServiceError(
                f"session {session_id!r}: chunk contains NaN or infinite "
                f"samples"
            )
        with state.lock:
            if state.session.closed:
                raise ServiceError(f"session {session_id!r} is closed")
            if seq is not None and seq != state.next_seq:
                raise ServiceError(
                    f"session {session_id!r}: out-of-order chunk "
                    f"seq {seq} (expected {state.next_seq})"
                )
            shed = 0
            if len(state.queue) >= self.config.queue_depth:
                if self.config.backpressure == "reject":
                    self.telemetry.chunk_rejected()
                    result = IngestResult(
                        session_id=session_id,
                        accepted=False,
                        queued=len(state.queue),
                        reason="queue full (policy: reject)",
                    )
                    if strict:
                        raise BackpressureError(
                            f"session {session_id!r}: ingest queue full "
                            f"({self.config.queue_depth} chunks), chunk "
                            f"rejected"
                        )
                    return result
                # shed-oldest: make room by dropping from the head.
                while len(state.queue) >= self.config.queue_depth:
                    state.queue.popleft()
                    shed += 1
                state.shed += shed
                self.telemetry.chunks_dropped(shed)
            state.next_seq += 1
            state.queue.append((state.next_seq - 1, time.perf_counter(), chunk))
            depth = len(state.queue)
        self.telemetry.chunk_ingested(depth)
        return IngestResult(
            session_id=session_id,
            accepted=True,
            queued=depth,
            shed=shed,
            reason="shed-oldest" if shed else "",
        )

    def queue_depth(self, session_id: str) -> int:
        state = self._state(session_id)
        with state.lock:
            return len(state.queue)

    # ------------------------------------------------------------------
    # Live detector hot-swap
    # ------------------------------------------------------------------
    def swap_detector(self, detector: WindowDetector) -> int:
        """Install ``detector`` into every open session, and as the
        default for sessions opened afterwards.

        Each session swaps under its own state lock — the same lock
        :meth:`pump` holds while deciding a chunk — so the swap always
        lands *between* chunk decisions, i.e. at a window boundary:
        every window is scored wholly by the old or wholly by the new
        detector, never half-way.  No session is dropped, no queued
        chunk is lost.  Returns the number of live sessions swapped.

        Callers wanting a deterministic swap point (the hot-swap
        parity tests, the shard ``swap_detector`` verb) drain first so
        the boundary is "after every admitted chunk so far".
        """
        swapped = 0
        self._default_detector = detector
        for session_id in self.session_ids:
            try:
                state = self._state(session_id)
            except ServiceError:
                continue  # closed concurrently
            with state.lock:
                if not state.session.closed:
                    state.session.detector = detector
                    swapped += 1
        return swapped

    # ------------------------------------------------------------------
    # Pump (consumer side)
    # ------------------------------------------------------------------
    def pump(self, session_id: str, max_chunks: int | None = None) -> int:
        """Decide queued chunks of one session, oldest first.

        Each processed chunk's ingest→decision latency lands in
        telemetry.  Returns the number of windows decided.
        """
        state = self._state(session_id)
        windows = 0
        processed = 0
        while max_chunks is None or processed < max_chunks:
            with state.lock:
                if not state.queue:
                    break
                _seq, t_ingest, chunk = state.queue.popleft()
                n_new = state.session.push_chunk(chunk)
                self.telemetry.chunk_decided(
                    time.perf_counter() - t_ingest, n_new
                )
            windows += n_new
            processed += 1
        return windows

    def pump_all(self) -> int:
        """One round-robin pass: drain every session's queue fully."""
        windows = 0
        for session_id in self.session_ids:
            try:
                windows += self.pump(session_id)
            except ServiceError:
                continue  # closed/removed concurrently — its chunks are gone
        return windows

    # ------------------------------------------------------------------
    # Events & close
    # ------------------------------------------------------------------
    def poll_events(
        self, session_id: str, max_events: int | None = None
    ) -> list[WindowDecision]:
        state = self._state(session_id)
        with state.lock:
            return state.session.poll_events(max_events)

    def close_session(self, session_id: str, drain: bool = True) -> SessionSummary:
        """Finalize and deregister a session.

        ``drain`` first decides any still-queued chunks (a disconnect
        must not lose admitted data); with ``drain=False`` the queued
        chunks are counted as shed instead — again surfaced, not
        silent.  Finalization follows the streaming contract: no
        trailing window for a partial tail, and a stream shorter than
        one window reports the batch path's short-record error in
        :attr:`SessionSummary.error`.
        """
        state = self._state(session_id)
        if drain:
            self.pump(session_id)
        error: str | None = None
        with state.lock:
            dropped = len(state.queue)
            if dropped:
                state.queue.clear()
                state.shed += dropped
                self.telemetry.chunks_dropped(dropped)
            session = state.session
            try:
                session.finalize()
            except FeatureError as exc:
                error = f"{type(exc).__name__}: {exc}"
                session.closed = True
            trailing = tuple(session.poll_events())
        with self._lock:
            self._sessions.pop(session_id, None)
        self.telemetry.session_closed()
        return SessionSummary(
            session_id=session_id,
            windows=session.windows_emitted,
            chunks=session.chunks_ingested,
            samples=session.samples_ingested,
            shed=state.shed,
            trailing_events=trailing,
            error=error,
        )

    def close_all(self) -> list[SessionSummary]:
        return [self.close_session(sid) for sid in self.session_ids]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Telemetry snapshot (see :meth:`ServiceTelemetry.snapshot`)."""
        return self.telemetry.snapshot()
