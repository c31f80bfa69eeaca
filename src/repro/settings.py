"""The one reader of every ``REPRO_*`` environment knob.

Nine knobs configure the package: the evaluation scale
(:envvar:`REPRO_SAMPLES_PER_SEIZURE` / :envvar:`REPRO_PAPER_DURATIONS`)
and seven real-time service knobs (``REPRO_SERVICE_*``).  No other
module reads them: :meth:`ReproSettings.from_env` parses them, with one
typed helper per value shape, and every entry point takes its defaults
from the resulting snapshot — :meth:`~repro.service.config
.ServiceConfig.from_settings`, :mod:`repro.api` and the ``repro`` CLI.

A snapshot captures the environment once, so a long-lived process (the
detection service) keeps a consistent configuration even if the
environment changes underneath it.  ``from_env(mapping)`` parses the
given mapping and never reads or writes ``os.environ``.

The engine constants the ``repro`` parser shows as choices and defaults
(:data:`EXECUTORS`, :data:`DEFAULT_CHUNK_S`, :data:`SHARD_STRATEGIES`)
live here too, so building the parser imports no engine module.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Mapping

from .exceptions import ServiceError, at_least, integer

__all__ = [
    "ENV_SAMPLES_PER_SEIZURE",
    "ENV_PAPER_DURATIONS",
    "ENV_SERVICE_QUEUE_DEPTH",
    "ENV_SERVICE_BACKPRESSURE",
    "ENV_SERVICE_WORKERS",
    "ENV_SERVICE_AUTH_TOKENS",
    "ENV_SERVICE_MAX_SESSIONS",
    "ENV_SERVICE_CHUNK_RATE",
    "ENV_SERVICE_REPLAY_BUFFER",
    "EXECUTORS",
    "DEFAULT_CHUNK_S",
    "SHARD_STRATEGIES",
    "BACKPRESSURE_POLICIES",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_REPLAY_BUFFER",
    "SERVICE_CHECKS",
    "SERVICE_FIELDS",
    "ReproSettings",
]

#: Evaluation samples per seizure (paper: 100).
ENV_SAMPLES_PER_SEIZURE = "REPRO_SAMPLES_PER_SEIZURE"
#: Boolean flag selecting the paper's 30-60 min record durations.
ENV_PAPER_DURATIONS = "REPRO_PAPER_DURATIONS"
#: Bounded per-session ingest queue depth of the detection service.
ENV_SERVICE_QUEUE_DEPTH = "REPRO_SERVICE_QUEUE_DEPTH"
#: Backpressure policy when a session's ingest queue is full.
ENV_SERVICE_BACKPRESSURE = "REPRO_SERVICE_BACKPRESSURE"
#: Worker shard processes of the detection service (1 = in-process).
ENV_SERVICE_WORKERS = "REPRO_SERVICE_WORKERS"
#: Comma-separated client auth tokens; empty disables authentication.
ENV_SERVICE_AUTH_TOKENS = "REPRO_SERVICE_AUTH_TOKENS"
#: Max concurrently open sessions per client (0 = unlimited).
ENV_SERVICE_MAX_SESSIONS = "REPRO_SERVICE_MAX_SESSIONS"
#: Sustained chunk frames/second budget per client (0 = unlimited).
ENV_SERVICE_CHUNK_RATE = "REPRO_SERVICE_CHUNK_RATE"
#: Per-session replay journal depth for shard re-homing (0 = off).
ENV_SERVICE_REPLAY_BUFFER = "REPRO_SERVICE_REPLAY_BUFFER"

#: Engine executor kinds; the first is the default.  ``process`` gives
#: true parallelism for the numpy/Python mix of the extractors;
#: ``serial`` runs every task in the calling process.
EXECUTORS = ("process", "serial")

#: Default chunk length fed to the streaming extractor (seconds).  At the
#: paper's 256 Hz x 2 channels this bounds the working set to ~240 kB per
#: in-flight chunk regardless of record duration.
DEFAULT_CHUNK_S = 60.0

#: Supported shard partition strategies.  ``contiguous`` keeps each
#: shard's records adjacent (best disk-store locality per machine);
#: ``strided`` deals tasks round-robin (best load balance when record
#: cost varies systematically along the list, e.g. by patient).
SHARD_STRATEGIES = ("contiguous", "strided")

#: ``reject`` refuses the new chunk (the caller sees a rejected
#: IngestResult / BackpressureError); ``shed-oldest`` drops the oldest
#: *queued* chunk to admit the new one, with the shed count surfaced in
#: the result and telemetry — never a silent drop.
BACKPRESSURE_POLICIES = ("reject", "shed-oldest")

DEFAULT_QUEUE_DEPTH = 64

#: Chunks of re-homing journal the pool parent keeps per session.  256
#: one-second chunks cover minutes of stream at the paper's geometry
#: while bounding parent memory; 0 disables resilience entirely
#: (a dead shard then errors its sessions, the PR 9 behavior).
DEFAULT_REPLAY_BUFFER = 256

#: Each :class:`ReproSettings` service field and the
#: :class:`~repro.service.config.ServiceConfig` field it defaults.
SERVICE_FIELDS = {
    "service_queue_depth": "queue_depth",
    "service_backpressure": "backpressure",
    "service_workers": "workers",
    "service_auth_tokens": "auth_tokens",
    "service_max_sessions": "max_sessions_per_client",
    "service_chunk_rate": "chunk_rate",
    "service_replay_buffer": "replay_buffer",
}


def _choice_of(value, name: str) -> None:
    if value not in BACKPRESSURE_POLICIES:
        raise ServiceError(
            f"{name} must be one of {BACKPRESSURE_POLICIES}, got {value!r}"
        )


def _tokens_of(value, name: str) -> None:
    if any(not token for token in value):
        raise ServiceError(f"{name} must not contain empty tokens")


#: The refusal rule of each service knob, by ``ServiceConfig`` field:
#: ``check(value, name)`` raises :class:`~repro.exceptions.ServiceError`
#: under the caller's own field name.  ``ReproSettings`` and
#: ``ServiceConfig`` both run these, so the two cannot drift apart.
#: ``chunk_rate`` alone accepts ``+inf``, meaning unlimited like 0.
SERVICE_CHECKS = {
    "queue_depth": lambda value, name: integer(value, name, ServiceError, 1),
    "backpressure": _choice_of,
    "workers": lambda value, name: integer(value, name, ServiceError, 1),
    "auth_tokens": _tokens_of,
    "max_sessions_per_client": lambda value, name: integer(value, name, ServiceError),
    "chunk_rate": lambda value, name: at_least(value, name, ServiceError, 0, inf=True),
    "replay_buffer": lambda value, name: integer(value, name, ServiceError),
}


def _int_at_least(
    env: Mapping[str, str],
    name: str,
    minimum: int,
    default: int | None,
    error: type[Exception],
) -> int | None:
    """``env[name]`` as an integer ``>= minimum``; blank means ``default``.
    The refusal names the variable; ``int()`` never yields +-inf, so the
    shared check's ``inf=True`` only spares the message its "finite"."""
    raw = env.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise error(f"{name} must be an integer, got {raw!r}") from None
    return at_least(value, name, error, minimum, inf=True)


def _non_negative_float(
    env: Mapping[str, str], name: str, error: type[Exception]
) -> float:
    """``env[name]`` as a float ``>= 0`` (NaN refused); blank means 0."""
    raw = env.get(name, "").strip()
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        raise error(f"{name} must be a number, got {raw!r}") from None
    if not value >= 0:
        raise error(f"{name} must be >= 0, got {raw!r}")
    return value


def _choice(
    env: Mapping[str, str],
    name: str,
    choices: tuple[str, ...],
    error: type[Exception],
) -> str:
    """``env[name]`` (any case) as one of ``choices``; blank means the
    first choice."""
    raw = env.get(name, "").strip().lower()
    if not raw:
        return choices[0]
    if raw not in choices:
        raise error(f"{name} must be one of {choices}, got {raw!r}")
    return raw


def _flag(env: Mapping[str, str], name: str, error: type[Exception]) -> bool:
    """``env[name]`` as a boolean.  An unrecognized value raises rather
    than silently picking a side."""
    raw = env.get(name, "").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("", "0", "false", "no", "off"):
        return False
    raise error(
        f"{name} must be a boolean flag (1/true/yes or 0/false/no), "
        f"got {raw!r}"
    )


def _tokens(env: Mapping[str, str], name: str) -> tuple[str, ...]:
    """``env[name]`` split on commas, blanks dropped."""
    raw = env.get(name, "")
    return tuple(part.strip() for part in raw.split(",") if part.strip())


@dataclass(frozen=True)
class ReproSettings:
    """A resolved snapshot of every ``REPRO_*`` environment knob.

    Attributes
    ----------
    samples_per_seizure:
        :envvar:`REPRO_SAMPLES_PER_SEIZURE` — ``None`` when unset, so
        each caller keeps its own documented fallback (the CLI's 1, the
        benchmarks' 3, ``--paper-scale``'s 100).
    paper_durations:
        :envvar:`REPRO_PAPER_DURATIONS` as a boolean: record durations
        default to the paper's 30-60 minutes when true.
    service_queue_depth / service_backpressure:
        The real-time service's bounded ingest queue depth and
        full-queue policy (see :data:`BACKPRESSURE_POLICIES`).
    service_workers:
        :envvar:`REPRO_SERVICE_WORKERS` — how many worker shard
        processes the detection service runs its sessions across
        (1, the default, keeps the PR 7 single-process service).
    service_auth_tokens:
        :envvar:`REPRO_SERVICE_AUTH_TOKENS` split on commas; any
        non-empty set turns the versioned ``hello`` handshake from
        optional into mandatory for every socket client.
    service_max_sessions:
        :envvar:`REPRO_SERVICE_MAX_SESSIONS` — concurrently open
        sessions one client may hold (0 = unlimited).
    service_chunk_rate:
        :envvar:`REPRO_SERVICE_CHUNK_RATE` — sustained chunk
        frames/second budget per client, enforced as a token bucket
        with one second of burst (0 or ``inf`` = unlimited).
    service_replay_buffer:
        :envvar:`REPRO_SERVICE_REPLAY_BUFFER` — admitted chunks the
        shard-pool parent journals per session so a killed worker's
        sessions can be re-homed byte-identically (0 disables
        resilience).
    """

    samples_per_seizure: int | None = None
    paper_durations: bool = False
    service_queue_depth: int = DEFAULT_QUEUE_DEPTH
    service_backpressure: str = "reject"
    service_workers: int = 1
    service_auth_tokens: tuple[str, ...] = ()
    service_max_sessions: int = 0
    service_chunk_rate: float = 0.0
    service_replay_buffer: int = DEFAULT_REPLAY_BUFFER

    def __post_init__(self) -> None:
        if self.samples_per_seizure is not None:
            integer(self.samples_per_seizure, "samples_per_seizure", ValueError, 1)
        for name, knob in SERVICE_FIELDS.items():
            SERVICE_CHECKS[knob](getattr(self, name), name)

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "ReproSettings":
        """Resolve every knob from ``env`` (default: ``os.environ``).

        A malformed value raises the error type its subsystem uses:
        ``ValueError`` for the evaluation scale, ``ServiceError`` for
        the service knobs.
        """
        if env is None:
            env = os.environ
        return cls(
            samples_per_seizure=_int_at_least(
                env, ENV_SAMPLES_PER_SEIZURE, 1, None, ValueError
            ),
            paper_durations=_flag(env, ENV_PAPER_DURATIONS, ValueError),
            service_queue_depth=_int_at_least(
                env, ENV_SERVICE_QUEUE_DEPTH, 1, DEFAULT_QUEUE_DEPTH,
                ServiceError,
            ),
            service_backpressure=_choice(
                env, ENV_SERVICE_BACKPRESSURE, BACKPRESSURE_POLICIES,
                ServiceError,
            ),
            service_workers=_int_at_least(
                env, ENV_SERVICE_WORKERS, 1, 1, ServiceError
            ),
            service_auth_tokens=_tokens(env, ENV_SERVICE_AUTH_TOKENS),
            service_max_sessions=_int_at_least(
                env, ENV_SERVICE_MAX_SESSIONS, 0, 0, ServiceError
            ),
            service_chunk_rate=_non_negative_float(
                env, ENV_SERVICE_CHUNK_RATE, ServiceError
            ),
            service_replay_buffer=_int_at_least(
                env, ENV_SERVICE_REPLAY_BUFFER, 0, DEFAULT_REPLAY_BUFFER,
                ServiceError,
            ),
        )

    # ------------------------------------------------------------------
    def resolve_samples(self, default: int) -> int:
        """Samples per seizure: the env knob, else the caller's default."""
        return (
            self.samples_per_seizure
            if self.samples_per_seizure is not None
            else default
        )

    def resolve_duration_range(
        self, default: tuple[float, float]
    ) -> tuple[float, float]:
        """Record duration range: the paper's 30-60 min when
        ``paper_durations`` is set, else the caller's default."""
        from .data.sampling import PAPER_DURATION_RANGE_S

        return PAPER_DURATION_RANGE_S if self.paper_durations else default

    def to_dict(self) -> dict:
        """Plain-data view (for ``repro``'s diagnostics and tooling)."""
        return asdict(self)
