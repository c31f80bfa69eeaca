"""DiskFeatureStore suite: durability rules of the persistent tier.

Round-trip equality, corruption/truncation falling back to recompute,
version bumps invalidating old entries, atomic concurrent writers, and
the two-tier interaction with :class:`FeatureCache`.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.api import extract
from repro.data.sources import ArrayRecordSource
from repro.engine import (
    DiskFeatureStore,
    FeatureCache,
    source_cache_key,
    store_key_digest,
)
from repro.exceptions import EngineError, FeatureError
from repro.features.paper10 import Paper10FeatureExtractor
from repro.signals.windowing import WindowSpec

SPEC = WindowSpec(4.0, 1.0)


@pytest.fixture(scope="module")
def extractor():
    return Paper10FeatureExtractor()


@pytest.fixture(scope="module")
def feats(sample_record, extractor):
    return extract(sample_record, extractor, SPEC)


@pytest.fixture(scope="module")
def key(sample_record, extractor):
    return source_cache_key(ArrayRecordSource(sample_record), extractor, SPEC)


class TestRoundTrip:
    def test_save_load_equality(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        loaded = store.load(key)
        assert loaded is not None
        assert np.array_equal(loaded.values, feats.values)
        assert loaded.feature_names == feats.feature_names
        assert loaded.spec.length_s == feats.spec.length_s
        assert loaded.spec.step_s == feats.spec.step_s
        assert loaded.fs == feats.fs
        assert store.stats() == {
            "hits": 1, "misses": 0, "writes": 1, "corrupt": 0, "stale": 0,
            "write_errors": 0, "evictions": 0,
        }
        assert len(store) == 1

    def test_loaded_matrix_is_writable(self, tmp_path, feats, key):
        # frombuffer views are read-only; the store must hand back an
        # owning copy so downstream code can normalize in place.
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        loaded = store.load(key)
        loaded.values[0, 0] = 42.0  # must not raise

    def test_missing_entry_is_a_miss(self, tmp_path, key):
        store = DiskFeatureStore(tmp_path)
        assert store.load(key) is None
        assert store.stats()["misses"] == 1

    def test_digest_is_stable_and_key_sensitive(self, key):
        assert store_key_digest(key) == store_key_digest(tuple(key))
        assert store_key_digest(key) != store_key_digest(key + ("x",))

    def test_unwritable_root_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(EngineError, match="feature store"):
            DiskFeatureStore(blocker / "sub")


class TestCorruptionSafety:
    def entry_path(self, store, key):
        path = store.path_for(key)
        assert path.exists()
        return path

    def test_truncated_payload_recomputes(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        path = self.entry_path(store, key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.load(key) is None
        assert store.stats()["corrupt"] == 1

    def test_flipped_payload_byte_fails_checksum(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        path = self.entry_path(store, key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load(key) is None
        assert store.stats()["corrupt"] == 1

    def test_garbage_header_recomputes(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        path = self.entry_path(store, key)
        path.write_bytes(b"{not json\n" + b"\x00" * 64)
        assert store.load(key) is None
        assert store.stats()["corrupt"] == 1

    def test_headerless_blob_recomputes(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        self.entry_path(store, key).write_bytes(b"\x00" * 128)
        assert store.load(key) is None
        assert store.stats()["corrupt"] == 1

    def test_version_bump_invalidates_old_entries(
        self, tmp_path, feats, key, monkeypatch
    ):
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        monkeypatch.setattr(DiskFeatureStore, "VERSION", DiskFeatureStore.VERSION + 1)
        fresh = DiskFeatureStore(tmp_path)
        assert fresh.load(key) is None
        assert fresh.stats()["stale"] == 1
        # Recompute-and-save under the new version makes it loadable again.
        fresh.save(key, feats)
        assert fresh.load(key) is not None

    def test_foreign_dtype_rejected(self, tmp_path, feats, key):
        # The writer only emits float64; a forged header with any other
        # dtype must degrade to recompute, never load mis-typed data.
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        path = self.entry_path(store, key)
        head, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["dtype"] = "float32"
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        assert store.load(key) is None
        assert store.stats()["corrupt"] == 1

    def test_failed_write_is_counted_not_raised(
        self, tmp_path, feats, key, monkeypatch
    ):
        # Persistence is best-effort: losing the disk mid-run (here: the
        # atomic rename starts failing) costs durability, never the run.
        store = DiskFeatureStore(tmp_path)

        def broken_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.engine.store.os.replace", broken_replace)
        assert store.save(key, feats) is None
        assert store.stats()["write_errors"] == 1
        assert store.stats()["writes"] == 0
        assert len(store) == 0
        assert list(tmp_path.glob("*.tmp-*")) == []  # temp file cleaned up

    def test_wrong_key_in_header_is_stale(self, tmp_path, feats, key):
        # An entry renamed (or hash-collided) onto the wrong filename
        # must never load as another record's features.
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        other_key = key + ("other",)
        store.path_for(key).rename(store.path_for(other_key))
        assert store.load(other_key) is None
        assert store.stats()["stale"] == 1


class TestConcurrentWriters:
    def test_parallel_saves_never_clobber(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        errors = []

        def writer():
            try:
                for _ in range(5):
                    store.save(key, feats)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Whatever write won, the entry verifies end to end.
        loaded = store.load(key)
        assert loaded is not None
        assert np.array_equal(loaded.values, feats.values)
        assert len(store) == 1
        # No temp-file litter left behind.
        assert list(tmp_path.glob("*.tmp-*")) == []

    def test_header_is_one_json_line(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        first_line = store.path_for(key).read_bytes().split(b"\n", 1)[0]
        header = json.loads(first_line)
        assert header["version"] == DiskFeatureStore.VERSION
        assert header["key"] == store_key_digest(key)
        assert header["shape"] == list(feats.values.shape)


def _fill(store, feats, key, n, start_mtime=1_000_000_000):
    """Save ``n`` distinct entries with deterministic, increasing mtimes
    (tuple-extended keys; explicit utimes avoid timestamp-resolution
    flakes when ordering by recency)."""
    keys = [key + (f"fill-{i}",) for i in range(n)]
    for i, k in enumerate(keys):
        store.save(k, feats)
        ts = start_mtime + i
        os.utime(store.path_for(k), (ts, ts))
    return keys


class TestSizeBoundedEviction:
    def entry_size(self, tmp_path, feats, key):
        probe = DiskFeatureStore(tmp_path / "probe")
        probe.save(key, feats)
        return probe.path_for(key).stat().st_size

    def test_bound_enforced_on_save(self, tmp_path, feats, key):
        size = self.entry_size(tmp_path, feats, key)
        store = DiskFeatureStore(tmp_path / "s", max_bytes=2 * size)
        _fill(store, feats, key, 4)
        assert len(store) <= 2
        assert store.total_bytes() <= 2 * size
        assert store.stats()["evictions"] == 2

    def test_oldest_evicted_first(self, tmp_path, feats, key):
        size = self.entry_size(tmp_path, feats, key)
        store = DiskFeatureStore(tmp_path / "s", max_bytes=3 * size)
        keys = _fill(store, feats, key, 3)
        extra = key + ("extra",)
        store.save(extra, feats)
        assert store.load(keys[0]) is None  # oldest gone
        assert store.load(keys[2]) is not None
        assert store.load(extra) is not None

    def test_load_touch_protects_hot_entries(self, tmp_path, feats, key):
        # LRU by *use*: loading the oldest entry must move it to the
        # back of the eviction queue, so the save evicts the untouched
        # middle entry instead.
        size = self.entry_size(tmp_path, feats, key)
        store = DiskFeatureStore(tmp_path / "s", max_bytes=3 * size)
        keys = _fill(store, feats, key, 3)
        assert store.load(keys[0]) is not None  # touches mtime to "now"
        store.save(key + ("extra",), feats)
        assert store.load(keys[0]) is not None  # survived: recently used
        assert store.load(keys[1]) is None  # evicted: least recently used

    def test_new_entry_never_self_evicts(self, tmp_path, feats, key):
        size = self.entry_size(tmp_path, feats, key)
        store = DiskFeatureStore(tmp_path / "s", max_bytes=size // 2)
        store.save(key, feats)
        # The bound cannot hold even one matrix, but the write that just
        # happened must survive its own eviction pass.
        assert store.load(key) is not None
        assert len(store) == 1

    def test_unbounded_by_default(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path / "s")
        _fill(store, feats, key, 4)
        assert len(store) == 4
        assert store.stats()["evictions"] == 0

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(EngineError, match="max_bytes"):
            DiskFeatureStore(tmp_path / "s", max_bytes=0)


class TestVerifyAndGC:
    def test_verify_classifies_entries(self, tmp_path, feats, key, monkeypatch):
        store = DiskFeatureStore(tmp_path)
        keys = _fill(store, feats, key, 3)
        clean = store.verify()
        assert clean["entries"] == 3 and clean["ok"] == 3
        assert clean["bytes"] == store.total_bytes()

        # One corrupt (truncated), one stale (old version header).
        path = store.path_for(keys[0])
        path.write_bytes(path.read_bytes()[:50])
        monkeypatch.setattr(
            DiskFeatureStore, "VERSION", DiskFeatureStore.VERSION + 1
        )
        fresh = DiskFeatureStore(tmp_path)
        counts = fresh.verify()
        assert counts["corrupt"] == 1
        assert counts["stale"] == 2  # the two healthy-but-old entries
        assert counts["ok"] == 0

    def test_renamed_entry_is_stale(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        store.save(key, feats)
        path = store.path_for(key)
        path.rename(path.with_name("0" * 32 + ".feat"))
        assert store.verify()["stale"] == 1

    def test_gc_removes_broken_keeps_healthy(
        self, tmp_path, feats, key, monkeypatch
    ):
        store = DiskFeatureStore(tmp_path)
        keys = _fill(store, feats, key, 3)
        path = store.path_for(keys[0])
        path.write_bytes(b"garbage, no newline")

        # A stale entry: written under an older format version.
        monkeypatch.setattr(
            DiskFeatureStore, "VERSION", DiskFeatureStore.VERSION + 1
        )
        fresh = DiskFeatureStore(tmp_path)
        fresh.save(key + ("new",), feats)  # healthy under the new version
        result = fresh.gc()
        assert result["removed_corrupt"] == 1
        assert result["removed_stale"] == 2
        assert result["entries"] == 1
        assert fresh.load(key + ("new",)) is not None

    def test_gc_size_bound_evicts_lru(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        keys = _fill(store, feats, key, 3)
        size = store.path_for(keys[0]).stat().st_size
        result = store.gc(max_bytes=size)
        assert result["evicted"] == 2
        assert result["entries"] == 1
        assert store.load(keys[2]) is not None  # newest survives

    def test_gc_negative_bound_rejected(self, tmp_path):
        with pytest.raises(EngineError, match="max_bytes"):
            DiskFeatureStore(tmp_path).gc(max_bytes=-1)

    def test_clear_reports_count(self, tmp_path, feats, key):
        store = DiskFeatureStore(tmp_path)
        _fill(store, feats, key, 3)
        assert store.clear() == 3
        assert len(store) == 0

    def test_engine_respects_store_bound(self, dataset, tmp_path):
        # End to end through the engine: a bounded store never grows
        # past its limit, and the run's report is unaffected.
        from repro.engine import CohortEngine

        base = CohortEngine(dataset, executor="serial").run(
            patient_ids=[8]
        )
        bounded = CohortEngine(
            dataset,
            executor="serial",
            store_dir=str(tmp_path / "s"),
            store_max_bytes=1,  # cannot hold even one matrix
        )
        report = bounded.run(patient_ids=[8])
        assert report.to_json() == base.to_json()
        store = DiskFeatureStore(tmp_path / "s")
        assert len(store) <= 1  # only the most recent write survives


class TestCacheIntegration:
    def test_store_hit_synthesizes_nothing(self, dataset, tmp_path, monkeypatch):
        # A warm run keys every record by recipe and loads its features:
        # neither the background's pink floor may be drawn nor the
        # seizure overlay shaped.
        from repro.data import seizures, synthetic
        from repro.engine import CohortEngine

        patients = [2, 8]  # artifact and clutter bursts; a clean patient
        cold = CohortEngine(
            dataset, executor="serial", store_dir=str(tmp_path)
        ).run(patient_ids=patients)

        def no_synthesis(*args, **kwargs):
            raise AssertionError("pink noise synthesized on a store hit")

        monkeypatch.setattr(synthetic, "pink_noise", no_synthesis)
        monkeypatch.setattr(seizures, "shape_pink", no_synthesis)
        warm = CohortEngine(
            dataset, executor="serial", store_dir=str(tmp_path)
        ).run(patient_ids=patients)
        assert warm.to_json() == cold.to_json()

    def test_cold_then_restored(self, tmp_path, sample_record, extractor):
        source = ArrayRecordSource(sample_record)
        store = DiskFeatureStore(tmp_path)
        cache = FeatureCache(capacity=4, store=store)
        first = cache.get_or_extract_source(source, extractor, SPEC)
        assert store.stats()["writes"] == 1

        # A fresh cache (new process, conceptually) over the same store:
        # the matrix is restored from disk, not re-extracted.
        store2 = DiskFeatureStore(tmp_path)
        cache2 = FeatureCache(capacity=4, store=store2)
        restored = cache2.get_or_extract_source(source, extractor, SPEC)
        assert np.array_equal(restored.values, first.values)
        assert store2.stats() == {
            "hits": 1, "misses": 0, "writes": 0, "corrupt": 0, "stale": 0,
            "write_errors": 0, "evictions": 0,
        }
        # Second access is a pure memory hit; disk untouched.
        cache2.get_or_extract_source(source, extractor, SPEC)
        assert cache2.stats()["hits"] == 1
        assert cache2.stats()["store"]["hits"] == 1

    def test_corrupt_entry_falls_back_to_recompute(
        self, tmp_path, sample_record, extractor
    ):
        source = ArrayRecordSource(sample_record)
        store = DiskFeatureStore(tmp_path)
        cache = FeatureCache(capacity=4, store=store)
        feats = cache.get_or_extract_source(source, extractor, SPEC)
        key = source_cache_key(source, extractor, SPEC)
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:40])

        cache2 = FeatureCache(capacity=4, store=store)
        recomputed = cache2.get_or_extract_source(source, extractor, SPEC)
        assert np.array_equal(recomputed.values, feats.values)
        assert store.stats()["corrupt"] == 1
        # The recompute healed the entry on disk.
        assert store.load(key) is not None

    def test_short_record_writes_nothing(self, tmp_path, extractor):
        from repro.data.records import EEGRecord

        rng = np.random.default_rng(3)
        short = EEGRecord(data=rng.standard_normal((2, 512)), fs=256.0)
        store = DiskFeatureStore(tmp_path)
        cache = FeatureCache(capacity=2, store=store)
        with pytest.raises(FeatureError, match="shorter than one"):
            cache.get_or_extract_source(ArrayRecordSource(short), extractor, SPEC)
        assert len(store) == 0

    def test_stats_without_store_keep_legacy_shape(self, sample_record, extractor):
        cache = FeatureCache(capacity=2)
        cache.get_or_extract_source(ArrayRecordSource(sample_record), extractor, SPEC)
        assert "store" not in cache.stats()
