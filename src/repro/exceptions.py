"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause.
"""

from __future__ import annotations

import enum


class ServiceErrorCode(str, enum.Enum):
    """Machine-readable category serialized in every service error frame.

    The str mix-in makes ``code.value`` and plain string comparison
    interchangeable, so wire payloads stay plain JSON strings while the
    exception layer keeps a closed enum.
    """

    #: Handshake token missing/wrong, or an op sent unauthenticated
    #: while the service requires auth.
    AUTH = "auth"
    #: A per-client quota (open sessions, chunk rate) was exceeded.
    QUOTA = "quota"
    #: A session's bounded ingest queue refused the chunk (reject policy).
    BACKPRESSURE = "backpressure"
    #: Malformed frame, unknown op/version, bad session state — the
    #: default for every :class:`ServiceError` without a sharper code.
    PROTOCOL = "protocol"
    #: A worker shard died and its sessions could not be (fully) re-homed.
    SHARD_DEATH = "shard-death"


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class SignalError(ReproError):
    """Raised when an input signal is malformed (wrong shape, NaNs, too short)."""


class FeatureError(ReproError):
    """Raised when feature extraction receives invalid configuration or data."""


class KernelError(FeatureError):
    """Raised by the feature-kernel registry: an unknown kernel name, an
    unknown backend name passed as ``prefer``, or a ``dwt_details``
    wavelet order outside the bitwise contract of both backends."""


class LabelingError(ReproError):
    """Raised when the a-posteriori labeling algorithm cannot run.

    Typical causes: the window length ``W`` is not smaller than the number of
    feature points ``L``, or the feature matrix is empty.
    """


class DataError(ReproError):
    """Raised for invalid synthetic-data configuration or corrupt EDF files."""


class EngineError(ReproError):
    """Raised by the cohort execution engine for invalid configuration or
    empty work sets (bad worker counts, unknown executor kinds, no tasks)."""


class CheckpointError(EngineError):
    """Raised when a run checkpoint cannot be used for the requested run —
    the journal on disk was written by a different work list or engine
    configuration.  (Corrupt or stale-version journals never raise: they
    degrade to recompute, per the load-or-recompute contract.)"""


class ShardError(EngineError):
    """Raised by the distributed shard orchestrator: invalid partitions,
    manifest sets that do not reassemble into the planned work list,
    overlapping shard specs, foreign shard journals at collect time, or
    shard subprocesses that failed under the launcher's policy."""


class ServiceError(ReproError):
    """Raised by the real-time detection service: unknown or closed
    sessions, duplicate session ids, out-of-order chunk sequence numbers,
    malformed ingest frames, or misconfigured service parameters.

    Every service error carries a :class:`ServiceErrorCode` (``code``),
    serialized into the error frame a socket client sees, so callers can
    branch on category without parsing messages.  Subclasses override
    the class attribute; :class:`ServiceError` itself is the catch-all
    ``protocol`` category.
    """

    code: ServiceErrorCode = ServiceErrorCode.PROTOCOL


class AuthError(ServiceError):
    """Raised when a client fails the versioned ``hello`` handshake — a
    missing or unknown auth token, or any non-hello op attempted before
    authenticating while the service has ``auth_tokens`` configured."""

    code = ServiceErrorCode.AUTH


class QuotaError(ServiceError):
    """Raised when a per-client admission quota is exhausted: too many
    concurrently open sessions, or a chunk rate above the configured
    token-bucket budget."""

    code = ServiceErrorCode.QUOTA


class ShardDeathError(ServiceError):
    """Raised when a worker shard died and the operation's session could
    not be transparently re-homed (resilience disabled, the session's
    replay journal overflowed, or the restarted shard failed to come
    up)."""

    code = ServiceErrorCode.SHARD_DEATH


class BackpressureError(ServiceError):
    """Raised under the ``reject`` backpressure policy when a session's
    bounded ingest queue is full and the caller asked for strict
    admission (:meth:`SessionManager.ingest` with ``strict=True``).  The
    non-strict path surfaces the same condition as a rejected
    :class:`~repro.service.manager.IngestResult` instead."""

    code = ServiceErrorCode.BACKPRESSURE


class ModelError(ReproError):
    """Raised by the ML substrate (tree / forest / clustering) on misuse,
    e.g. predicting before fitting."""


class PlatformError(ReproError):
    """Raised by the wearable-platform model for inconsistent configurations,
    e.g. duty cycles that do not sum to at most 100%."""
