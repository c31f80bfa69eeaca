"""Latency-SLO telemetry for the real-time detection service.

Every layer of the ingest path reports into one
:class:`ServiceTelemetry` object: sessions opened/closed, chunks
admitted/shed/rejected, queue depth high-water marks, windows decided,
and — the SLO core — per-chunk ingest→decision latency.  A snapshot
reduces the latencies to p50/p95/p99/max, mean, and jitter (population
standard deviation), the numbers a latency SLO is written against.

Latencies are counted, not kept: each one lands in a fixed log-spaced
bucket (:data:`BUCKETS_PER_OCTAVE` per doubling above 1 µs), and only
the exact maximum is held beside the counts.  Every figure covers every
decided chunk since start in O(buckets) memory, and the reduced
p50/p95/p99/mean come within 2^(1/128) − 1 (0.55 %) of exact.  Every
snapshot exports the counts under ``latency.buckets``.

Snapshots serialize canonically (:func:`telemetry_to_json`: sorted keys,
fixed separators, latencies rounded to microsecond precision) so tooling
can diff two exports byte-for-byte — the same discipline
:meth:`CohortReport.to_json` established for batch results.  The
*values* are wall-clock measurements and therefore vary run to run; the
*encoding* of any given snapshot never does.

Thread-safety: counters and bucket counts are guarded by one lock, so
the asyncio front-end, worker threads, and a synchronous replayer can
share a collector.

A fleet of collectors (one per shard of the multi-process pool) reduces
to a single view through :meth:`ServiceTelemetry.merge`: counters and
bucket counts sum, high-water marks and the latency max take the max.
Summing counts is exact, so the merged percentiles are the ones a
single collector fed every shard's stream would report — one
fleet-wide p50/p95/p99/jitter/shed view plus per-shard breakdowns,
byte-stable under the same canonical encoding.
"""

from __future__ import annotations

import json
import math
import threading

from ..exceptions import ServiceError

__all__ = [
    "BUCKETS_PER_OCTAVE",
    "LatencySummary",
    "ServiceTelemetry",
    "bucket_of",
    "telemetry_to_json",
]

#: Latency histogram resolution: bucket ``b`` holds latencies in
#: ``[2^(b/64), 2^((b+1)/64))`` µs, so 1 µs to 1 h fits in 2,032
#: buckets and a bucket's geometric middle is within 2^(1/128) − 1 of
#: anything in it.
BUCKETS_PER_OCTAVE = 64

#: Snapshot schema version, bumped on any key change so tooling can
#: detect exports it does not understand.  v2 added the ``admission``
#: (handshake/auth/quota) and ``resilience`` (shard restart/re-homing)
#: sections; v3 replaced the sample reservoir with ``latency.buckets``
#: and dropped ``latency.total``.
SCHEMA_VERSION = 3


def bucket_of(latency_s: float) -> int:
    """The histogram bucket of one latency: ``floor(64 · log2(t / 1 µs))``,
    with anything at or under 1 µs in bucket 0."""
    us = latency_s * 1e6
    return int(BUCKETS_PER_OCTAVE * math.log2(us)) if us > 1.0 else 0


class LatencySummary:
    """Percentile reduction of latency bucket counts (milliseconds).

    Each bucket reads back as its geometric middle, capped at the exact
    ``max_ms``; percentiles are nearest-rank.  The reduction is a pure
    function of ``(buckets, max_ms)``, so equal counts give equal bytes.
    """

    __slots__ = ("buckets", "count", "p50_ms", "p95_ms", "p99_ms",
                 "mean_ms", "max_ms", "jitter_ms")

    def __init__(self, buckets: dict[int, int], max_ms: float) -> None:
        self.buckets = {b: n for b, n in sorted(buckets.items()) if n}
        self.count = sum(self.buckets.values())
        self.max_ms = max_ms if self.count else 0.0
        if not self.count:
            self.p50_ms = self.p95_ms = self.p99_ms = 0.0
            self.mean_ms = self.jitter_ms = 0.0
            return
        values = {
            b: min(2.0 ** ((b + 0.5) / BUCKETS_PER_OCTAVE) / 1e3, max_ms)
            for b in self.buckets
        }
        self.p50_ms, self.p95_ms, self.p99_ms = (
            self._rank(values, percent) for percent in (50, 95, 99)
        )
        self.mean_ms = sum(
            n * values[b] for b, n in self.buckets.items()
        ) / self.count
        self.jitter_ms = math.sqrt(sum(
            n * (values[b] - self.mean_ms) ** 2
            for b, n in self.buckets.items()
        ) / self.count)

    def _rank(self, values: dict[int, float], percent: int) -> float:
        rank = max(1, -(-percent * self.count // 100))  # integer ceil
        seen = 0
        for b, n in self.buckets.items():
            seen += n
            if seen >= rank:
                break
        return values[b]

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "jitter_ms": round(self.jitter_ms, 3),
            "buckets": {str(b): n for b, n in self.buckets.items()},
        }


class ServiceTelemetry:
    """Shared counters + latency histogram for one service instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets: dict[int, int] = {}
        self._max_s = 0.0
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_active = 0
        self.chunks_ingested = 0
        self.chunks_processed = 0
        self.chunks_shed = 0
        self.chunks_rejected = 0
        self.windows_decided = 0
        self.queue_depth = 0
        self.queue_high_water = 0
        self.handshakes = 0
        self.auth_failures = 0
        self.quota_rejected = 0
        self.shard_restarts = 0
        self.sessions_rehomed = 0
        self.sessions_lost = 0

    # ------------------------------------------------------------------
    def session_opened(self) -> None:
        with self._lock:
            self.sessions_opened += 1
            self.sessions_active += 1

    def session_closed(self) -> None:
        with self._lock:
            self.sessions_closed += 1
            self.sessions_active -= 1

    def chunk_ingested(self, queue_depth: int) -> None:
        """One chunk admitted; ``queue_depth`` is the session queue's
        depth *after* admission (drives the high-water mark)."""
        with self._lock:
            self.chunks_ingested += 1
            self.queue_depth += 1
            self.queue_high_water = max(self.queue_high_water, queue_depth)

    def chunk_rejected(self) -> None:
        with self._lock:
            self.chunks_rejected += 1

    def chunks_dropped(self, n: int) -> None:
        """``n`` queued chunks shed under the shed-oldest policy."""
        with self._lock:
            self.chunks_shed += n
            self.queue_depth -= n

    def chunk_decided(self, latency_s: float, n_windows: int) -> None:
        """One queued chunk fully processed: ingest→decision latency
        plus the number of windows it completed."""
        bucket = bucket_of(latency_s)
        with self._lock:
            self.chunks_processed += 1
            self.queue_depth -= 1
            self.windows_decided += n_windows
            self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
            self._max_s = max(self._max_s, latency_s)

    # ------------------------------------------------------------------
    def handshake_ok(self) -> None:
        """One client completed the versioned hello handshake."""
        with self._lock:
            self.handshakes += 1

    def auth_failed(self) -> None:
        """One frame denied for a bad/missing token or version."""
        with self._lock:
            self.auth_failures += 1

    def quota_exceeded(self) -> None:
        """One frame denied by a per-client session/rate quota."""
        with self._lock:
            self.quota_rejected += 1

    def shard_restarted(self) -> None:
        """One dead worker shard was detected and respawned."""
        with self._lock:
            self.shard_restarts += 1

    def session_rehomed(self) -> None:
        """One session replayed onto a restarted shard, stream intact."""
        with self._lock:
            self.sessions_rehomed += 1

    def session_lost(self) -> None:
        """One session could not be re-homed after a shard death."""
        with self._lock:
            self.sessions_lost += 1

    # ------------------------------------------------------------------
    def latency(self) -> LatencySummary:
        with self._lock:
            return self._latency_locked()

    def _latency_locked(self) -> LatencySummary:
        # The max is rounded to the µs first, exactly as merge() reads it
        # back, so a merged view reduces to the same bytes.
        return LatencySummary(self._buckets, round(self._max_s * 1e3, 3))

    def snapshot(self) -> dict:
        """Point-in-time plain-data export of every counter and of the
        latency bucket counts.

        The layout is flat dict-of-dicts with stable keys; see
        :func:`telemetry_to_json` for the canonical byte encoding.
        """
        with self._lock:
            return {
                "schema": SCHEMA_VERSION,
                "sessions": {
                    "opened": self.sessions_opened,
                    "closed": self.sessions_closed,
                    "active": self.sessions_active,
                },
                "chunks": {
                    "ingested": self.chunks_ingested,
                    "processed": self.chunks_processed,
                    "shed": self.chunks_shed,
                    "rejected": self.chunks_rejected,
                },
                "windows": {"decided": self.windows_decided},
                "queue": {
                    "depth": self.queue_depth,
                    "high_water": self.queue_high_water,
                },
                "admission": {
                    "handshakes": self.handshakes,
                    "auth_failures": self.auth_failures,
                    "quota_rejected": self.quota_rejected,
                },
                "resilience": {
                    "shard_restarts": self.shard_restarts,
                    "sessions_rehomed": self.sessions_rehomed,
                    "sessions_lost": self.sessions_lost,
                },
                "latency": self._latency_locked().to_dict(),
            }

    # ------------------------------------------------------------------
    @staticmethod
    def merge(snapshots) -> dict:
        """Fold per-shard snapshots into one fleet-wide view.

        Counters sum, queue depth sums, the high-water mark is the max
        across shards, and the latency bucket counts sum, with the max
        taken over the shards' maxima — so the merged p50/p95/p99/jitter
        are exactly those of one collector fed every shard's stream, not
        an average of per-shard percentiles.

        The merged view keeps the single-service schema and adds
        ``workers`` (input count) plus ``shards`` (the per-shard
        snapshots, buckets included), and serializes byte-stably
        through :func:`telemetry_to_json` — identical inputs always
        produce identical bytes.
        """
        snapshots = list(snapshots)
        for snap in snapshots:
            if not isinstance(snap, dict) or snap.get("schema") != SCHEMA_VERSION:
                raise ServiceError(
                    f"cannot merge telemetry snapshot with schema "
                    f"{snap.get('schema') if isinstance(snap, dict) else snap!r}"
                    f" (this build reads schema {SCHEMA_VERSION})"
                )

        def total(group: str, key: str) -> int:
            return sum(s[group][key] for s in snapshots)

        buckets: dict[int, int] = {}
        for snap in snapshots:
            for bucket, n in snap["latency"]["buckets"].items():
                buckets[int(bucket)] = buckets.get(int(bucket), 0) + n
        latency = LatencySummary(
            buckets,
            max((s["latency"]["max_ms"] for s in snapshots), default=0.0),
        )
        return {
            "schema": SCHEMA_VERSION,
            "workers": len(snapshots),
            "sessions": {
                "opened": total("sessions", "opened"),
                "closed": total("sessions", "closed"),
                "active": total("sessions", "active"),
            },
            "chunks": {
                "ingested": total("chunks", "ingested"),
                "processed": total("chunks", "processed"),
                "shed": total("chunks", "shed"),
                "rejected": total("chunks", "rejected"),
            },
            "windows": {"decided": total("windows", "decided")},
            "queue": {
                "depth": total("queue", "depth"),
                "high_water": max(
                    (s["queue"]["high_water"] for s in snapshots),
                    default=0,
                ),
            },
            "admission": {
                "handshakes": total("admission", "handshakes"),
                "auth_failures": total("admission", "auth_failures"),
                "quota_rejected": total("admission", "quota_rejected"),
            },
            "resilience": {
                "shard_restarts": total("resilience", "shard_restarts"),
                "sessions_rehomed": total("resilience", "sessions_rehomed"),
                "sessions_lost": total("resilience", "sessions_lost"),
            },
            "latency": latency.to_dict(),
            "shards": snapshots,
        }


def telemetry_to_json(snapshot: dict) -> str:
    """Canonical byte encoding of a telemetry snapshot.

    Sorted keys and fixed separators, like every other canonical JSON in
    this repository: two identical snapshots always produce identical
    bytes, so ``repro replay --json`` output is diff- and cache-friendly
    for tooling.
    """
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
