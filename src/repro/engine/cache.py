"""In-process feature cache keyed by (record content, extractor, spec).

Feature extraction dominates the per-record pipeline cost (entropy and
spectral features over every 4 s window), and several workloads touch the
same record more than once — re-labeling under a different ``W``, the
detector evaluating a record the labeler already windowed, repeated
engine runs in one session.  :class:`FeatureCache` memoizes the full
feature matrix per (record, extractor, spec) triple with LRU eviction.

The record component of the key includes a digest that fixes the
samples, not just the ``record_id``: hand-built records often carry
empty ids, and a stale hit on different samples would silently corrupt
results.  A synthetic source is keyed by its
:meth:`~repro.data.sources.RecordSource.recipe_digest` (generator
version, numpy build, model, entropy key, geometry and overlay patches),
which costs no signal pass at all: artifact patches enter it by their
bytes, and the seizure overlay by its recipe (the generator state saved
before its draw, duration, morphology and background level), so keying
a record never shapes its seizure.  Sources without a recipe (EDF files,
in-memory arrays) are keyed by
:func:`~repro.data.sources.record_content_digest`, computed by
*streaming* the source in bounded chunks (one blake2b per channel,
folded).  Both digests are invariant to the chunk size, so a disk-store
entry written at one ``--chunk-s`` hits at any other.

A synthetic record is therefore streamed (and its seizure shaped) once
on a miss, through the extractor, and never on a hit; a file or array is streamed once to key
it and once more on a miss.  Every pass is bounded-memory; none ever
holds the full signal.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..data.sources import RecordSource, record_content_digest
from ..exceptions import EngineError
from ..features.base import FeatureExtractor, FeatureMatrix
from ..signals.windowing import WindowSpec
from .chunked import DEFAULT_CHUNK_S, extract_features_from_source

__all__ = ["FeatureCache", "source_cache_key"]


def _extractor_fingerprint(extractor: FeatureExtractor) -> str:
    """Digest of the extractor's instance configuration.

    ``repr`` alone is not a faithful identity — numpy elides the middle
    of large array reprs — so ndarray attributes are hashed over their
    raw bytes.  Extractors using ``__slots__`` (no ``__dict__``) fall
    back to enumerating their slots.
    """
    try:
        attrs = sorted(vars(extractor).items())
    except TypeError:
        attrs = sorted(
            (name, getattr(extractor, name))
            for cls in type(extractor).__mro__
            for name in getattr(cls, "__slots__", ())
        )
    h = hashlib.blake2b(digest_size=16)
    for name, value in attrs:
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(repr((value.shape, str(value.dtype))).encode())
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def source_cache_key(
    source: RecordSource,
    extractor: FeatureExtractor,
    spec: WindowSpec,
    chunk_s: float = DEFAULT_CHUNK_S,
) -> tuple:
    """Build the exact-identity cache key for one extraction call.

    The record contributes id, geometry and its recipe digest, or a
    streamed content digest when it has no recipe; the extractor
    contributes its class, feature names *and* instance configuration:
    two ``Paper10FeatureExtractor`` instances with different
    ``renyi_alpha`` produce different matrices under the same feature
    names, and must never hit each other's entries.  ``chunk_s`` tunes
    only the content-digest pass's working set — it never changes the
    key (the digest is chunk-invariant), because chunking never changes
    the extracted matrix.
    """
    digest = source.recipe_digest()
    if digest is None:
        digest = record_content_digest(source, chunk_s)
    return (
        source.record_id,
        (source.n_channels, source.n_samples),
        float(source.fs),
        digest,
        type(extractor).__qualname__,
        extractor.feature_names,
        _extractor_fingerprint(extractor),
        float(spec.length_s),
        float(spec.step_s),
    )


class FeatureCache:
    """Bounded LRU memo of feature matrices (thread-safe).

    Parameters
    ----------
    capacity:
        Maximum number of feature matrices retained.  At the paper
        geometry one hour of features is ~280 kB (3600 x 10 float64), so
        even generous capacities stay far below one record's raw signal.
    store:
        Optional second tier (a
        :class:`~repro.engine.store.DiskFeatureStore`): memory misses
        consult the store before extracting, and fresh extractions are
        persisted, so the cache survives process restarts and LRU
        eviction.  The store's load-or-recompute contract keeps a broken
        entry from ever surfacing here.
    """

    def __init__(self, capacity: int = 8, store=None) -> None:
        if capacity < 1:
            raise EngineError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.store = store
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, FeatureMatrix] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def get_or_extract_source(
        self,
        source: RecordSource,
        extractor: FeatureExtractor,
        spec: WindowSpec,
        chunk_s: float = DEFAULT_CHUNK_S,
    ) -> FeatureMatrix:
        """Return the cached matrix or extract (streamed) and cache it.

        The record's signal is only ever touched in bounded chunks: a
        miss streams it through the extractor, and a source without a
        recipe digest is streamed once more to key the lookup.  Raises
        :class:`~repro.exceptions.FeatureError` for records shorter than
        one window — the short-record contract propagates unchanged
        through the cache.
        """
        key = source_cache_key(source, extractor, spec, chunk_s)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        feats = None
        if self.store is not None:
            feats = self.store.load(key)
        if feats is None:
            feats = extract_features_from_source(source, extractor, spec, chunk_s)
            if self.store is not None:
                self.store.save(key, feats)
        self._insert(key, feats)
        return feats

    def _insert(self, key: tuple, feats: FeatureMatrix) -> None:
        with self._lock:
            self._entries[key] = feats
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current size.

        With a disk tier attached, its counters appear under a nested
        ``"store"`` key — a memory miss followed by a store hit means the
        matrix was restored from disk without extraction.
        """
        with self._lock:
            out = {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
            }
        if self.store is not None:
            out["store"] = self.store.stats()
        return out
