"""Wall-clock replay: drive a recorded source through the live service.

The :class:`Replayer` is the service's load and parity harness in one:
it takes any :class:`~repro.data.sources.RecordSource` (synthetic, EDF,
in-memory), slices it into real-time-sized chunks, and ingests them into
a :class:`~repro.service.manager.SessionManager` session paced against
the wall clock — chunk ``k`` is offered no earlier than ``t_media(k) /
speed`` after the replay started, so ``speed=1.0`` reproduces the
wearable's live arrival process and ``speed=32`` stress-tests 32
patients' worth of a single stream.  ``speed=0`` (or ``None``) disables
pacing entirely for deterministic tests and benchmarks.

Each replay pumps the session inline after every ingest (one producer,
one consumer, strict order), collects every decision, and closes the
session at the end — so the returned :class:`ReplayReport` carries the
complete decision stream, directly comparable to
:func:`~repro.service.session.batch_window_decisions` on the
materialized record.  That comparison is the service's acceptance gate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..data.sources import RecordSource
from ..exceptions import ServiceError
from .manager import SessionManager, SessionSummary
from .session import WindowDecision, WindowDetector

__all__ = ["ReplayReport", "Replayer"]


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one record replayed through the service.

    ``decisions`` is the complete, in-order decision stream (trailing
    finalize events included).  ``max_lag_s`` is the worst observed
    scheduling lag — how far behind its wall-clock deadline any chunk's
    ingest ran (0.0 when unpaced).  ``wall_s`` is the total replay wall
    time; ``media_s`` the record's own duration.
    """

    session_id: str
    record_id: str
    patient_id: str
    chunks: int
    windows: int
    decisions: tuple[WindowDecision, ...]
    media_s: float
    wall_s: float
    speed: float
    max_lag_s: float
    shed: int
    error: str | None = None

    @property
    def realtime_factor(self) -> float:
        """Media seconds replayed per wall second (∞-safe: 0 when
        instantaneous)."""
        return self.media_s / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "record_id": self.record_id,
            "patient_id": self.patient_id,
            "chunks": self.chunks,
            "windows": self.windows,
            "positive_windows": sum(d.positive for d in self.decisions),
            "media_s": round(self.media_s, 3),
            "speed": self.speed,
            "shed": self.shed,
            "error": self.error,
        }


class Replayer:
    """Replay record sources through a session manager at wall-clock pace.

    Parameters
    ----------
    manager:
        The hosting :class:`SessionManager`; a private single-session
        manager is created when omitted.
    speed:
        Media-time / wall-time ratio.  ``1.0`` is live speed, larger is
        faster-than-real-time, and ``0``/``None`` disables pacing (the
        replay runs flat out and ``max_lag_s`` stays 0).
    chunk_s:
        Media seconds per ingested chunk — the simulated transport's
        packetization.  Decision *content* is chunk-invariant (the
        streaming parity contract); only arrival granularity changes.
    """

    def __init__(
        self,
        manager: SessionManager | None = None,
        speed: float | None = 1.0,
        chunk_s: float = 1.0,
    ) -> None:
        if speed is not None and not (math.isfinite(speed) and speed >= 0):
            raise ServiceError(f"speed must be finite and >= 0, got {speed}")
        if not (math.isfinite(chunk_s) and chunk_s > 0):
            raise ServiceError(f"chunk_s must be finite and positive, got {chunk_s}")
        # `is not None`, not truthiness: an empty manager has len() == 0.
        self.manager = manager if manager is not None else SessionManager()
        self.speed = float(speed) if speed else 0.0
        self.chunk_s = float(chunk_s)

    def replay(
        self,
        source: RecordSource,
        session_id: str | None = None,
        detector: WindowDetector | None = None,
    ) -> ReplayReport:
        """Stream one source through a fresh session; returns the full
        decision stream and pacing/shed accounting."""
        if source.fs != self.manager.config.fs:
            raise ServiceError(
                f"source fs {source.fs} != service fs "
                f"{self.manager.config.fs}"
            )
        if source.n_channels != self.manager.config.n_channels:
            raise ServiceError(
                f"source has {source.n_channels} channels, service expects "
                f"{self.manager.config.n_channels}"
            )
        session_id = session_id or f"replay:{source.record_id}"
        self.manager.open_session(session_id, detector)
        decisions: list[WindowDecision] = []
        chunks = 0
        media_s = 0.0
        max_lag = 0.0
        start = time.perf_counter()
        summary: SessionSummary
        try:
            for chunk in source.iter_chunks(self.chunk_s):
                if self.speed:
                    # Chunk k becomes "available" once its media time has
                    # elapsed on the (speed-scaled) wall clock.
                    deadline = start + media_s / self.speed
                    now = time.perf_counter()
                    if now < deadline:
                        time.sleep(deadline - now)
                    else:
                        max_lag = max(max_lag, now - deadline)
                result = self.manager.ingest(session_id, chunk, seq=chunks)
                if not result.accepted:  # pragma: no cover - single consumer
                    raise ServiceError(
                        f"replay chunk {chunks} rejected: {result.reason}"
                    )
                chunks += 1
                media_s += chunk.shape[1] / source.fs
                self.manager.pump(session_id)
                decisions.extend(self.manager.poll_events(session_id))
        finally:
            summary = self.manager.close_session(session_id)
        decisions.extend(summary.trailing_events)
        wall_s = time.perf_counter() - start
        return ReplayReport(
            session_id=session_id,
            record_id=source.record_id,
            patient_id=source.patient_id,
            chunks=chunks,
            windows=summary.windows,
            decisions=tuple(decisions),
            media_s=media_s,
            wall_s=wall_s,
            speed=self.speed,
            max_lag_s=max_lag,
            shed=summary.shed,
            error=summary.error,
        )
