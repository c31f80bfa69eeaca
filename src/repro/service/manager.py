"""Hosting thousands of detector sessions: queues, ordering, backpressure.

:class:`SessionManager` is the service's hot core.  Each session gets a
bounded ingest queue (admitted-but-undecided chunks) and a monotonically
checked sequence counter; :meth:`SessionManager.pump` decides queued
chunks through the session's detector and stamps every chunk's
ingest→decision latency into the shared telemetry.

Decide on demand: an admitted chunk is only queued.  A session becomes
*due* for its host's consumer once its queued samples reach
:data:`DECIDE_WINDOWS` window steps or its queue is full, whichever
comes first (:meth:`SessionManager.claim_due`); otherwise its chunks
wait for the session's own ``poll`` or ``close``, which decide them
inline, or for a global drain.  A pump joins consecutive queued chunks
into one detector push of at most :data:`DECIDE_WINDOWS` steps, so the
extraction kernels see blocks of up to 64 windows instead of one
chunk's worth.  The push copies the chunks straight into the session's
stream buffer, which hands the block's memory back once its windows are
decided: between blocks a session holds its queue and less than one
window of signal.  Decisions are bitwise those of deciding every chunk on
arrival (streaming extraction is chunking-invariant and scoring is per
row); only their timing moves.

Backpressure is explicit, never silent:

* ``reject`` — a full queue refuses the new chunk.  The caller sees
  ``IngestResult(accepted=False)`` (on the wire, an ok-reply with
  ``accepted: false``) and telemetry counts the rejection.
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

from ..exceptions import FeatureError, ServiceError
from .config import ServiceConfig
from .session import DetectorSession, WindowDecision, WindowDetector
from .telemetry import ServiceTelemetry

__all__ = ["DECIDE_WINDOWS", "IngestResult", "SessionSummary", "SessionManager"]

#: Window steps of queued signal that make a session due for its
#: consumer, and the most one joined detector push decides: one 16-chunk
#: poll interval of 4 s chunks.  Paper-10 extraction on a session's
#: sliding view sets it (the per-call table of
#: ``benchmarks/bench_kernels.py``; 2-core Intel Xeon, numpy 2.4): a
#: call costs 0.14 ms per window at 4 windows (one 4 s chunk), 0.065-
#: 0.070 ms at 16 and 0.040-0.046 ms at 64.  On the bulk replay
#: benchmark (perfbench service-replay), 64 against 16 read x1.4-1.5
#: throughput at +4-5 % peak RSS; that RSS holds because a push copies
#: the chunks straight into the stream buffer, which is released after
#: the block (see ``StreamingFeatureExtractor``).  Without the two, 64
#: alone read +11 % (49.0 against 44.2 MB), past that benchmark's 10 %
#: bound.
DECIDE_WINDOWS = 64


@dataclass(frozen=True)
class IngestResult:
    """What happened to one offered chunk — the backpressure surface.

    ``accepted`` is False only under the ``reject`` policy with a full
    queue; ``shed`` counts *other* (older) chunks dropped to admit this
    one under ``shed-oldest``.  ``queued`` is the session queue depth
    after the call: chunks wait there until the session is due or
    polled, so it reads up to the chunks of :data:`DECIDE_WINDOWS`
    steps between polls.
    """

    session_id: str
    accepted: bool
    queued: int
    shed: int = 0
    reason: str = ""

    def to_reply(self) -> dict:
        """The ``chunk`` verb's ok-reply."""
        return {
            "ok": True,
            "session_id": self.session_id,
            "accepted": self.accepted,
            "queued": self.queued,
            "shed": self.shed,
            "reason": self.reason,
        }

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
        return {
            "session_id": self.session_id,
            "windows": self.windows,
            "chunks": self.chunks,
            "samples": self.samples,
            "shed": self.shed,
            "trailing_events": [e.to_dict() for e in self.trailing_events],
            "error": self.error,
            "ok": True,
        }

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

    __slots__ = (
        "session", "queue", "samples", "handed", "lock", "next_seq", "shed",
    )

    def __init__(self, session: DetectorSession) -> None:
        self.session = session
        #: (seq, ingest perf_counter timestamp, chunk)
        self.queue: deque[tuple[int, float, np.ndarray]] = deque()
        #: Samples per channel across the queued chunks.
        self.samples = 0
        #: A hand-off to the consumer is outstanding (see claim_due).
        self.handed = False
        self.lock = threading.Lock()
        self.next_seq = 0
        self.shed = 0


class SessionManager:
    """Host for many independent :class:`DetectorSession` streams.

    Parameters
    ----------
    config:
        Shared :class:`~repro.service.config.ServiceConfig` (geometry,
        queue depth, backpressure policy).  The manager keeps its own
        :class:`~repro.service.telemetry.ServiceTelemetry` collector.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.telemetry = ServiceTelemetry()
        self._sessions: dict[str, _SessionState] = {}
        #: Queued samples that make a session due, and the most one
        #: joined push takes (DECIDE_WINDOWS window steps).
        self._block_samples = DECIDE_WINDOWS * self.config.spec.step_samples(
            self.config.fs
        )
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
        full queue returns ``accepted=False``.
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
                    return IngestResult(
                        session_id=session_id,
                        accepted=False,
                        queued=len(state.queue),
                        reason="queue full (policy: reject)",
                    )
                # shed-oldest: make room by dropping from the head.
                while len(state.queue) >= self.config.queue_depth:
                    state.samples -= state.queue.popleft()[2].shape[1]
                    shed += 1
                state.shed += shed
                self.telemetry.chunks_dropped(shed)
            state.next_seq += 1
            state.queue.append((state.next_seq - 1, time.perf_counter(), chunk))
            state.samples += chunk.shape[1]
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

    def _due(self, state: _SessionState) -> bool:
        return (
            state.samples >= self._block_samples
            or len(state.queue) >= self.config.queue_depth
        )

    def claim_due(self, session_id: str) -> bool:
        """Whether the caller should hand the session to its consumer now.

        True when the session's queued samples reach
        :data:`DECIDE_WINDOWS` window steps or its queue is full, and no
        hand-off is outstanding; the consumer's
        ``pump(session_id, due_only=True)`` ends the hand-off.  So a
        host's consumer queue holds each session at most once.
        """
        state = self._state(session_id)
        with state.lock:
            if state.handed or not self._due(state):
                return False
            state.handed = True
            return True

    # ------------------------------------------------------------------
    # Live detector hot-swap
    # ------------------------------------------------------------------
    def swap_detector(self, detector: WindowDetector) -> int:
        """Install ``detector`` into every open session, and as the
        default for sessions opened afterwards.

        Each session swaps under its own state lock — the same lock
        :meth:`pump` holds while deciding a block of chunks — so the
        swap always lands *between* decisions, i.e. at a window
        boundary: every window is scored wholly by the old or wholly by
        the new detector, never half-way.  No session is dropped, no
        queued chunk is lost.  Returns the number of live sessions
        swapped.

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
    def pump(self, session_id: str, due_only: bool = False) -> int:
        """Decide queued chunks of one session, oldest first.

        Consecutive chunks are joined into one detector push while the
        joined block stays within :data:`DECIDE_WINDOWS` window steps; a
        larger chunk goes alone.  Each block is popped and decided under
        the session lock.  Every chunk's ingest→decision latency lands in
        telemetry.  ``due_only`` is the consumer's call after a :meth:`claim_due`
        hand-off: it ends the hand-off and decides only while the queue
        is still due, so a hand-off that a ``poll`` already served
        decides nothing.  Returns the number of windows decided.
        """
        state = self._state(session_id)
        if due_only:
            with state.lock:
                state.handed = False
        windows = 0
        while True:
            with state.lock:
                if not state.queue or (due_only and not self._due(state)):
                    break
                block = [state.queue.popleft()]
                size = block[0][2].shape[1]
                while (
                    state.queue
                    and size + state.queue[0][2].shape[1] <= self._block_samples
                ):
                    block.append(state.queue.popleft())
                    size += block[-1][2].shape[1]
                state.samples -= size
                n_new = state.session.push_chunks([c for _, _, c in block])
                now = time.perf_counter()
                # The windows count once, on the chunk that completed them.
                for i, (_seq, t_ingest, _chunk) in enumerate(block, 1):
                    self.telemetry.chunk_decided(
                        now - t_ingest, n_new if i == len(block) else 0
                    )
            windows += n_new
        return windows

    def pump_all(self) -> int:
        """One pass over every session: decide every queued chunk (the
        global barrier of ``drain``, ``shutdown`` and
        ``swap_detector``)."""
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
        """Decide the session's queued chunks, then drain up to
        ``max_events`` decisions (oldest first).  Only this session's
        queue is decided: a poll never waits on another session."""
        self.pump(session_id)
        state = self._state(session_id)
        with state.lock:
            return state.session.poll_events(max_events)

    def close_session(self, session_id: str) -> SessionSummary:
        """Finalize and deregister a session.

        Every still-queued chunk is decided first: a disconnect must not
        lose admitted data.  Finalization follows the streaming
        contract: no trailing window for a partial tail, and a stream
        shorter than one window reports the batch path's short-record
        error in :attr:`SessionSummary.error`.
        """
        state = self._state(session_id)
        self.pump(session_id)
        error: str | None = None
        with state.lock:
            # A chunk admitted by another thread after the pump is
            # counted as shed: surfaced, not silent.
            dropped = len(state.queue)
            if dropped:
                state.queue.clear()
                state.samples = 0
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
