"""Configuration of the real-time detection service.

One :class:`ServiceConfig` describes everything shared by the sessions a
:class:`~repro.service.manager.SessionManager` hosts: the signal
geometry (sampling rate, channel count), the feature/window definition
(which must match the batch pipeline for the byte-parity contract to
hold), and the ingest-queue policy.  Per-session state (buffers,
detector instances) lives in :class:`~repro.service.session
.DetectorSession`; the config is immutable and freely shareable across
thousands of sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..exceptions import ServiceError
from ..features.base import FeatureExtractor
from ..features.paper10 import Paper10FeatureExtractor
from ..settings import (
    BACKPRESSURE_POLICIES,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_REPLAY_BUFFER,
    ReproSettings,
)
from ..signals.windowing import WindowSpec

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Shared, immutable configuration of one detection service.

    Attributes
    ----------
    fs / n_channels:
        Signal geometry every session of this service expects (the
        paper's wearable: 2 bipolar channels at 256 Hz).  ``fs`` must be
        finite and positive.
    extractor / spec:
        Feature definition and window geometry.  Defaults match the
        batch pipeline (10 selected features over 4 s / 1 s windows), so
        service decisions are byte-comparable to
        :func:`~repro.features.extraction.extract_features` output.
    queue_depth:
        Bound of each session's ingest queue (chunks admitted but not
        yet decided).
    backpressure:
        Full-queue policy — ``"reject"`` refuses the new chunk,
        ``"shed-oldest"`` drops the oldest queued chunk to admit it;
        both are surfaced to the caller and counted in telemetry,
        neither is ever silent.
    threshold:
        Default decision threshold for sessions that do not bring their
        own detector: a window is positive when its score is ``>=`` the
        threshold.  NaN is refused; ``+inf`` means no finite score is
        ever positive, ``-inf`` that every window is.
    workers:
        Worker shard processes of the service.  ``1`` (the default) is
        the single-process :class:`~repro.service.ingest
        .DetectionService`; larger values host sessions across a
        :class:`~repro.service.fleet.ServiceShardPool` of that many
        processes, one listener in front.  Per-session decisions are
        byte-identical at any value (session-sticky routing).
    auth_tokens:
        Accepted client tokens for the versioned ``hello`` handshake.
        Empty (the default) disables authentication — versionless
        legacy clients keep working; any non-empty tuple requires every
        socket client to hello with a listed token before other ops.
    max_sessions_per_client:
        Concurrently open sessions one client identity (token, or the
        connection itself for anonymous clients) may hold; 0 means
        unlimited.
    chunk_rate:
        Sustained chunk frames/second budget per client, enforced as a
        token bucket with one second of burst; 0 means unlimited.
    replay_buffer:
        Admitted chunks the shard-pool parent journals per session.  A
        killed worker is restarted and its sessions re-homed by
        replaying these journals, byte-identical to an unkilled run; a
        session whose journal overflowed the bound is surfaced as lost
        (``shard-death``) instead of silently diverging.  0 disables
        resilience (a dead shard errors its sessions).
    """

    fs: float = 256.0
    n_channels: int = 2
    extractor: FeatureExtractor = field(default_factory=Paper10FeatureExtractor)
    spec: WindowSpec = field(default_factory=lambda: WindowSpec(4.0, 1.0))
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    backpressure: str = "reject"
    threshold: float = 0.0
    workers: int = 1
    auth_tokens: tuple[str, ...] = ()
    max_sessions_per_client: int = 0
    chunk_rate: float = 0.0
    replay_buffer: int = DEFAULT_REPLAY_BUFFER

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ServiceError(
                f"fs must be finite and positive, got {self.fs}"
            )
        if self.n_channels < 1:
            raise ServiceError(
                f"n_channels must be >= 1, got {self.n_channels}"
            )
        if self.queue_depth < 1:
            raise ServiceError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ServiceError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if math.isnan(self.threshold):
            raise ServiceError(
                f"threshold must be a number, got {self.threshold}"
            )
        if self.workers < 1:
            raise ServiceError(
                f"workers must be >= 1, got {self.workers}"
            )
        if not isinstance(self.auth_tokens, tuple):
            # Normalize lists (CLI --auth-token append) into the frozen
            # tuple form so configs stay hashable and comparable.
            object.__setattr__(self, "auth_tokens", tuple(self.auth_tokens))
        if any(not token for token in self.auth_tokens):
            raise ServiceError("auth_tokens must not contain empty tokens")
        if self.max_sessions_per_client < 0:
            raise ServiceError(
                f"max_sessions_per_client must be >= 0, got "
                f"{self.max_sessions_per_client}"
            )
        if not self.chunk_rate >= 0:
            raise ServiceError(
                f"chunk_rate must be >= 0, got {self.chunk_rate}"
            )
        if self.replay_buffer < 0:
            raise ServiceError(
                f"replay_buffer must be >= 0, got {self.replay_buffer}"
            )

    @classmethod
    def from_settings(
        cls, settings: ReproSettings | None = None, **overrides
    ) -> "ServiceConfig":
        """Build a config whose queue/backpressure/admission defaults
        come from a :class:`~repro.settings.ReproSettings` snapshot
        (environment knobs), with explicit keyword overrides winning."""
        if settings is None:
            settings = ReproSettings.from_env()
        values: dict = {
            "queue_depth": settings.service_queue_depth,
            "backpressure": settings.service_backpressure,
            "workers": settings.service_workers,
            "auth_tokens": settings.service_auth_tokens,
            "max_sessions_per_client": settings.service_max_sessions,
            "chunk_rate": settings.service_chunk_rate,
            "replay_buffer": settings.service_replay_buffer,
        }
        values.update(overrides)
        return cls(**values)
