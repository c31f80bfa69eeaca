"""Disk tier of the feature cache: persistent, corruption-safe matrices.

The in-process :class:`~repro.engine.cache.FeatureCache` dies with the
worker; every new session re-extracts every feature matrix from scratch,
which dominates cohort-run cost.  :class:`DiskFeatureStore` persists
matrices under a digest of the exact-identity
:func:`~repro.engine.cache.source_cache_key`, so repeated sessions (and
re-runs after a crash) skip extraction for every unchanged record.

Durability rules
----------------
* **Atomic writes**: entries are written to a unique temp file in the
  same directory and ``os.replace``-d into place, so concurrent writers
  (process-pool workers sharing one store) can never interleave bytes —
  the last complete write wins, and both writers produce identical
  content for the same key anyway.
* **Versioned header**: every entry starts with a one-line JSON header
  carrying the store format version, the key digest and the array
  geometry, plus a checksum covering *both* the canonical header and
  the payload — corrupting the window geometry fails verification just
  like corrupting the matrix bytes.  A version bump invalidates every
  old entry.
* **Load-or-recompute**: a missing, truncated, corrupted, stale or
  key-mismatched entry loads as ``None`` — never an exception, never a
  wrong matrix — and the caller falls back to extraction.  A broken
  store can cost time, not correctness.

Lifecycle
---------
Long-lived shared stores accrete entries: superseded format versions,
bit-rotted files, and working sets larger than the disk.  Three tools
bound that growth (all exposed through the ``repro store`` CLI):

* **Size-bounded LRU eviction** — construct with ``max_bytes`` and every
  write evicts least-recently-*used* entries past the bound (loads touch
  the entry mtime, so hot matrices survive);
* **``verify()``** — classify every entry (ok / corrupt / stale) without
  modifying anything;
* **``gc()``** — delete corrupt and stale-version entries, then
  optionally evict down to a size bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

import numpy as np

from ..exceptions import EngineError, ReproError
from ..features.base import FeatureMatrix
from ..signals.windowing import WindowSpec

__all__ = ["DiskFeatureStore", "store_key_digest"]

#: Suffix of store entries (the digest alone would work; the suffix makes
#: stray files in a shared directory obvious).
_ENTRY_SUFFIX = ".feat"


def _entry_checksum(header: dict, payload: bytes) -> str:
    """Digest over the canonical checksum-less header plus the payload.

    The header is re-serialized with sorted keys on both the write and
    the verify side (JSON floats round-trip repr-exactly), so any
    mutation of geometry, names, dtype, version or key fails the check.
    """
    canonical = json.dumps(
        {k: v for k, v in header.items() if k != "checksum"}, sort_keys=True
    )
    return hashlib.blake2b(
        canonical.encode() + b"\n" + payload, digest_size=16
    ).hexdigest()


def _verify_entry(
    path: Path, version: int
) -> tuple[str, dict | None, bytes | None]:
    """Shared validator behind :meth:`DiskFeatureStore.load`,
    :meth:`~DiskFeatureStore.verify` and :meth:`~DiskFeatureStore.gc`:
    read one entry file and classify it as ``("ok", header, payload)``,
    ``("stale", ...)`` (checksum-consistent but wrong format version, or
    a key digest that does not match the filename — entries are
    content-addressed) or ``("corrupt", None, None)``.  One code path,
    so an entry `verify` reports ok is exactly an entry `load` accepts.
    ``FileNotFoundError`` propagates: only :meth:`load` can see it (a
    miss), scans iterate existing files.
    """
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise
    except OSError:
        return ("corrupt", None, None)
    newline = blob.find(b"\n")
    if newline < 0:
        return ("corrupt", None, None)
    try:
        header = json.loads(blob[:newline].decode())
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except (ValueError, UnicodeDecodeError):
        return ("corrupt", None, None)
    payload = blob[newline + 1 :]
    # Verify the whole entry before trusting any header field.
    if header.get("checksum") != _entry_checksum(header, payload):
        return ("corrupt", None, None)
    if header.get("version") != version or header.get("key") != path.name[
        : -len(_ENTRY_SUFFIX)
    ]:
        return ("stale", header, payload)
    return ("ok", header, payload)


def store_key_digest(key: tuple) -> str:
    """Stable hex digest of a :func:`~repro.engine.cache.source_cache_key`
    tuple.

    The key is built from primitives (strings, floats, shape tuples)
    whose ``repr`` is stable across processes and sessions, so the
    digest — and hence the on-disk filename — is too.
    """
    return hashlib.blake2b(repr(key).encode(), digest_size=16).hexdigest()


class DiskFeatureStore:
    """Content-addressed on-disk cache of :class:`FeatureMatrix` entries.

    Parameters
    ----------
    root:
        Directory holding the entries (created on demand).  Safe to
        share between threads, process-pool workers, and sequential
        sessions.
    max_bytes:
        Optional size bound: after every successful write, least-
        recently-used entries (by mtime; loads touch it) are evicted
        until the store fits.  The entry just written is never evicted
        by its own save, so a bound smaller than one matrix still
        leaves the active record cached.  ``None``: unbounded.
    """

    #: On-disk format version.  Bump on any layout change: old entries
    #: then load as ``None`` and are recomputed (and overwritten) rather
    #: than misread.
    VERSION = 1

    def __init__(
        self, root: str | os.PathLike, max_bytes: int | None = None
    ) -> None:
        self.root = Path(root)
        if max_bytes is not None and max_bytes < 1:
            raise EngineError(
                f"max_bytes must be >= 1 or None, got {max_bytes}"
            )
        self.max_bytes = max_bytes
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise EngineError(f"cannot create feature store at {self.root}: {exc}")
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Unreadable entries: truncated, garbage header, checksum fail.
        self.corrupt = 0
        #: Readable entries rejected for version or key mismatch.
        self.stale = 0
        #: Failed persists (disk full, permission lost mid-run) — the
        #: matrix was still returned to the caller, only durability lost.
        self.write_errors = 0
        #: Entries deleted to keep the store under ``max_bytes``.
        self.evictions = 0

    # ------------------------------------------------------------------
    def path_for(self, key: tuple) -> Path:
        """On-disk location of ``key``'s entry (existing or not)."""
        return self.root / (store_key_digest(key) + _ENTRY_SUFFIX)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{_ENTRY_SUFFIX}"))

    def clear(self) -> int:
        """Delete every entry (counters are kept); returns the count."""
        removed = 0
        for path in self.entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def entry_paths(self) -> list[Path]:
        """Every entry file, sorted by name for deterministic scans."""
        return sorted(self.root.glob(f"*{_ENTRY_SUFFIX}"))

    def total_bytes(self) -> int:
        """Total size of all entries (bytes)."""
        total = 0
        for path in self.entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def _classify(self, path: Path) -> str:
        """``"ok"`` / ``"corrupt"`` / ``"stale"`` for one entry file —
        the exact checks :meth:`load` applies, via the shared
        :func:`_verify_entry`."""
        try:
            status, _, _ = _verify_entry(path, type(self).VERSION)
        except FileNotFoundError:
            return "corrupt"  # deleted mid-scan: gone either way
        return status

    def verify(self) -> dict[str, int]:
        """Scan every entry; counts of ok / corrupt / stale plus totals.

        Read-only: broken entries are reported, not removed (that's
        :meth:`gc`'s job).
        """
        counts = {"entries": 0, "ok": 0, "corrupt": 0, "stale": 0}
        for path in self.entry_paths():
            counts["entries"] += 1
            counts[self._classify(path)] += 1
        counts["bytes"] = self.total_bytes()
        return counts

    def gc(self, max_bytes: int | None = None) -> dict[str, int]:
        """Remove corrupt and stale-version entries, then (optionally)
        evict least-recently-used healthy entries down to ``max_bytes``
        (default: the store's own bound).  Returns removal counts and
        the surviving entry count/size.
        """
        if max_bytes is not None and max_bytes < 0:
            raise EngineError(
                f"gc max_bytes must be >= 0 or None, got {max_bytes}"
            )
        removed = {"corrupt": 0, "stale": 0}
        for path in self.entry_paths():
            status = self._classify(path)
            if status == "ok":
                continue
            try:
                path.unlink()
                removed[status] += 1
            except OSError:
                pass
        bound = self.max_bytes if max_bytes is None else max_bytes
        evicted = self._evict_to(bound) if bound is not None else 0
        return {
            "removed_corrupt": removed["corrupt"],
            "removed_stale": removed["stale"],
            "evicted": evicted,
            "entries": len(self),
            "bytes": self.total_bytes(),
        }

    def _evict_to(self, max_bytes: int, keep: Path | None = None) -> int:
        """Unlink least-recently-used entries until the store fits.

        ``keep`` (the entry a save just wrote) is never evicted by that
        save: a bound smaller than one matrix must not turn the store
        into a write-then-delete treadmill for the active record.
        Recency is mtime — :meth:`load` touches it on every hit, so this
        is LRU by *use*, not by write.  Ties break on filename for
        determinism.
        """
        entries = []
        total = 0
        for path in self.entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, path.name, path, stat.st_size))
            total += stat.st_size
        evicted = 0
        for _, _, path, size in sorted(entries):
            if total <= max_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            with self._lock:
                self.evictions += evicted
        return evicted

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def stats(self) -> dict[str, int]:
        """Hit/miss/write/corrupt/stale/write-error/eviction counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "corrupt": self.corrupt,
                "stale": self.stale,
                "write_errors": self.write_errors,
                "evictions": self.evictions,
            }

    # ------------------------------------------------------------------
    def save(self, key: tuple, feats: FeatureMatrix) -> Path | None:
        """Persist one matrix atomically; returns the entry path.

        The temp file carries pid/thread/nonce in its name, so
        concurrent writers of the same key never collide on the temp
        path and the final ``os.replace`` is atomic on the same
        filesystem.

        Persistence is best-effort: an ``OSError`` (disk full,
        permission lost mid-run) is counted under ``write_errors`` and
        reported as ``None`` rather than raised — a successfully
        extracted record must never turn into a failure because its
        cache write did.
        """
        path = self.path_for(key)
        values = np.ascontiguousarray(feats.values, dtype=np.float64)
        payload = values.tobytes()
        header = {
            "version": type(self).VERSION,
            "key": store_key_digest(key),
            "shape": list(values.shape),
            "dtype": str(values.dtype),
            "feature_names": list(feats.feature_names),
            "length_s": float(feats.spec.length_s),
            "step_s": float(feats.spec.step_s),
            "fs": float(feats.fs),
        }
        # The checksum covers the canonical header *and* the payload: a
        # bit flip in the window geometry or sampling rate must fail
        # verification just as hard as one in the matrix bytes.
        header["checksum"] = _entry_checksum(header, payload)
        blob = json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        nonce = f"{os.getpid()}-{threading.get_ident()}-{os.urandom(4).hex()}"
        tmp = path.with_name(path.name + f".tmp-{nonce}")
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            self._count("write_errors")
            return None
        finally:
            if tmp.exists():  # replace failed; don't leave litter behind
                try:
                    tmp.unlink()
                except OSError:
                    pass
        self._count("writes")
        if self.max_bytes is not None:
            self._evict_to(self.max_bytes, keep=path)
        return path

    def load(self, key: tuple) -> FeatureMatrix | None:
        """Return the stored matrix for ``key``, or ``None`` to recompute.

        Every failure mode — absent file, truncated payload, garbage or
        stale header, checksum mismatch — degrades to ``None``; the
        store never raises on read and never returns a matrix that does
        not verify against its header.
        """
        path = self.path_for(key)
        try:
            # The filename *is* store_key_digest(key) (see path_for), so
            # the validator's filename-vs-header key check is exactly
            # the key check this load needs.
            status, header, payload = _verify_entry(path, type(self).VERSION)
        except FileNotFoundError:
            self._count("misses")
            return None
        if status != "ok":
            self._count(status)
            return None

        dtype = np.dtype(np.float64)
        try:
            shape = tuple(int(n) for n in header["shape"])
            names = tuple(str(n) for n in header["feature_names"])
            if (
                header["dtype"] != str(dtype)  # the writer only emits float64
                or len(shape) != 2
                or len(payload) != int(np.prod(shape)) * dtype.itemsize
                or len(names) != shape[1]
            ):
                raise ValueError("inconsistent entry geometry")
            spec = WindowSpec(float(header["length_s"]), float(header["step_s"]))
            fs = float(header["fs"])
        except (KeyError, TypeError, ValueError, ReproError):
            # ReproError: WindowSpec/FeatureMatrix validation — a
            # checksum-consistent but semantically invalid entry still
            # degrades to recompute, never an exception.
            self._count("corrupt")
            return None

        values = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        self._count("hits")
        try:
            # Touch the entry so LRU eviction tracks *use*, not just
            # writes; best-effort (a read-only share still serves hits).
            os.utime(path)
        except OSError:
            pass
        return FeatureMatrix(values=values, feature_names=names, spec=spec, fs=fs)
