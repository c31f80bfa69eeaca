"""Exception hierarchy for the :mod:`repro` package, and the one rule
by which every public constructor and function refuses a bad input.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause.

The checks at the end of the module (:func:`finite`, :func:`positive`,
:func:`at_least`, :func:`integer`, :func:`within` and :func:`matrix`)
are that rule.  Each takes the value, the name to report and the
caller's :class:`ReproError` subclass, returns the value unchanged, and
otherwise raises ``error("{name} must be ..., got {value!r}")``:

* NaN is never a number, and a bool is never a number or a count;
* +-inf passes only where the caller passes ``inf=True``, because the
  parameter documents what an infinite value means;
* an int is compared exactly and never converted to float
  (``math.isfinite(10**400)`` raises ``OverflowError``): a count may be
  as large as it likes, while a real-valued knob, which the program
  computes with as a float, refuses an int beyond the float range.

The module imports no numpy, so the ``repro`` parser and
:mod:`repro.settings` can use the checks too.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys


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


# ----------------------------------------------------------------------
# The refusal rule (see the module docstring)
# ----------------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max
_INF = math.inf


def _real(value, inf: bool) -> bool:
    """Whether ``value`` is a real number other than NaN that a float can
    hold, and finite unless ``inf``.  Exact ``float`` and ``int`` take
    the first two branches, so a kernel's per-call checks stay cheap."""
    kind = type(value)
    if kind is float:
        return value == value and (inf or -_INF < value < _INF)
    if kind is int:
        return -_FLOAT_MAX <= value <= _FLOAT_MAX
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if isinstance(value, numbers.Integral):
        return -_FLOAT_MAX <= value <= _FLOAT_MAX
    return math.isfinite(value) or inf and not math.isnan(value)


def finite(value, name: str, error: type[Exception], *, inf: bool = False):
    """``value``, a finite real number (or +-inf too, with ``inf``)."""
    if _real(value, inf):
        return value
    rule = "a number" if inf else "finite"
    raise error(f"{name} must be {rule}, got {value!r}")


def positive(value, name: str, error: type[Exception], *, inf: bool = False):
    """``value``, a finite real number > 0 (or +inf too, with ``inf``)."""
    if _real(value, inf) and value > 0:
        return value
    rule = "positive" if inf else "finite and positive"
    raise error(f"{name} must be {rule}, got {value!r}")


def at_least(
    value, name: str, error: type[Exception], minimum: float, *, inf: bool = False
):
    """``value``, a finite real number >= ``minimum`` (or +inf too, with
    ``inf``)."""
    if _real(value, inf) and value >= minimum:
        return value
    rule = f">= {minimum}" if inf else f"finite and >= {minimum}"
    raise error(f"{name} must be {rule}, got {value!r}")


def integer(value, name: str, error: type[Exception], minimum: int = 0):
    """``value``, an integer (``numbers.Integral``, not a bool) >=
    ``minimum``.  An integral float such as ``3.0`` is refused too: a
    count that arrived as a float is a bug upstream."""
    if (
        type(value) is int
        or isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
    ) and value >= minimum:
        return value
    rule = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
    raise error(f"{name} must be {rule}, got {value!r}")


def within(
    value,
    name: str,
    error: type[Exception],
    low: float,
    high: float,
    *,
    low_open: bool = False,
    high_open: bool = False,
):
    """``value``, a real number from ``low`` to ``high``; each end is
    closed unless its ``*_open`` flag is set, so ``within(x, ..., 0, 1,
    high_open=True)`` is ``0 <= x < 1``, reported as ``[0, 1)``.  NaN
    and +-inf fall outside every finite interval."""
    if (
        _real(value, False)
        and (low < value if low_open else low <= value)
        and (value < high if high_open else value <= high)
    ):
        return value
    interval = f"{'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
    raise error(f"{name} must be in {interval}, got {value!r}")


def matrix(values, name: str, error: type[Exception], *, finite: bool = True):
    """``values`` as a float ``(n, F)`` array whose entries are all finite
    (unchecked when ``finite`` is false, for per-window callers whose
    rows were checked upstream)."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise error(f"{name} must be an (n, F) matrix, got shape {values.shape}")
    if finite and not np.isfinite(values).all():
        raise error(f"{name} contain NaN or infinite values")
    return values
