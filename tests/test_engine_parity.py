"""Parity suite: the cohort engine equals the sequential pipeline.

The engine's core contract is that fanning the per-record pipeline out
across workers changes *nothing* about the results: same feature
matrices (chunked == batch extraction), same labels, same detection
metrics, for any worker count.  These tests pin that contract on a
synthetic multi-patient cohort, and lock down the short-record edge
case (FeatureError, never silent zero-row output) across the engine,
streaming and batch extraction paths.
"""

import json
import re

import numpy as np
import pytest

from repro.core.aggregation import aggregate_cohort, score_seizure
from repro.core.deviation import deviation, normalized_deviation
from repro.core.labeling import APosterioriLabeler
from repro.core.streaming import StreamingFeatureExtractor
from repro.data.records import EEGRecord
from repro.engine import (
    CohortEngine,
    CohortReport,
    FeatureCache,
    RecordOutcome,
    RecordTask,
    cohort_tasks,
    source_cache_key,
)
from repro.api import extract
from repro.data.sources import ArrayRecordSource
from repro.exceptions import EngineError, FeatureError
from repro.features.extraction import extract_features
from repro.features.paper10 import Paper10FeatureExtractor
from repro.ml.metrics import classification_report
from repro.signals.windowing import WindowSpec

FS = 256.0

#: What the engine says when refusing a pool kind it does not have.
REFUSED_KIND = "executor must be one of ('process', 'serial')"

#: A small multi-patient cohort: two patients, two records each.
COHORT_TASKS = (
    RecordTask(1, 0, 0),
    RecordTask(1, 1, 0),
    RecordTask(8, 0, 0),
    RecordTask(8, 3, 0),
)


def sequential_outcome(dataset, task):
    """The pre-engine per-record pipeline, written out longhand."""
    record = dataset.generate_sample(
        task.patient_id, task.seizure_index, task.sample_index
    )
    labeler = APosterioriLabeler()
    result = labeler.label(
        record, dataset.mean_seizure_duration(task.patient_id)
    )
    truth = record.annotations[0]
    ann = result.annotation
    spec = labeler.spec
    truth_labels = record.window_labels(spec.length_s, spec.step_s, 0.5)
    pred_labels = np.zeros(result.features.n_windows, dtype=np.int64)
    for i in range(pred_labels.size):
        t0 = i * spec.step_s
        if ann.intersection_s(t0, t0 + spec.length_s) >= 0.5 * spec.length_s:
            pred_labels[i] = 1
    n = min(truth_labels.size, pred_labels.size)
    scores = classification_report(truth_labels[:n], pred_labels[:n])
    return {
        "features": result.features.values,
        "onset_s": ann.onset_s,
        "offset_s": ann.offset_s,
        "delta_s": deviation(truth, ann),
        "delta_norm": normalized_deviation(truth, ann, record.duration_s),
        "sensitivity": scores.sensitivity,
        "specificity": scores.specificity,
        "geometric_mean": scores.geometric_mean,
    }


@pytest.fixture(scope="module")
def expected(dataset):
    """Sequential-pipeline ground truth for every cohort task."""
    return {t.key: sequential_outcome(dataset, t) for t in COHORT_TASKS}


class TestChunkedEqualsBatch:
    """The engine's record path is bit-identical to batch extraction."""

    @pytest.mark.parametrize("chunk_s", [2.5, 7.0, 60.0, 1e6])
    def test_exact_equality(self, sample_record, chunk_s):
        extractor = Paper10FeatureExtractor()
        batch = extract_features(sample_record, extractor)
        chunked = extract(
            sample_record, extractor, chunk_s=chunk_s
        )
        assert chunked.values.shape == batch.values.shape
        assert np.array_equal(chunked.values, batch.values)
        assert chunked.feature_names == batch.feature_names

    def test_bad_chunk_size_rejected(self, sample_record):
        for chunk_s in (0.0, float("nan")):
            with pytest.raises(FeatureError, match="chunk_s"):
                extract(sample_record, chunk_s=chunk_s)


class TestChunkSizeInvariance:
    """The streaming data plane: any chunk size, byte-identical output.

    Workers consume :class:`RecordSource` streams instead of whole
    records; the equivalence contract therefore extends from "chunked ==
    batch" to "chunked == batch *at any chunk size*", end to end through
    the engine report.
    """

    TASKS = (RecordTask(1, 0, 0), RecordTask(8, 0, 0))

    def test_source_extraction_equals_batch(self, dataset, sample_record):
        from repro.engine import extract_features_from_source

        source = dataset.sample_source(1, 0, 0)
        extractor = Paper10FeatureExtractor()
        batch = extract_features(sample_record, extractor)
        for chunk_s in (0.5, 7.0, 60.0):
            streamed = extract_features_from_source(
                source, extractor, chunk_s=chunk_s
            )
            assert np.array_equal(streamed.values, batch.values)

    def test_reports_byte_identical_across_chunk_sizes(self, dataset):
        baseline = (
            CohortEngine(dataset, executor="serial").run(self.TASKS).to_json()
        )
        for chunk_s in (2.5, 17.3, 600.0):
            report = (
                CohortEngine(dataset, executor="serial", chunk_s=chunk_s)
                .run(self.TASKS)
                .to_json()
            )
            assert report == baseline

    def test_pool_backends_with_small_chunks(self, dataset):
        baseline = (
            CohortEngine(dataset, executor="serial").run(self.TASKS).to_json()
        )
        report = (
            CohortEngine(dataset, max_workers=2, executor="process", chunk_s=5.0)
            .run(self.TASKS)
            .to_json()
        )
        assert report == baseline

    def test_store_keys_invariant_to_chunk_size(self, dataset, tmp_path):
        # A disk store populated at one --chunk-s must serve every other:
        # the content digest is computed from the streamed bytes, not
        # from the chunking.
        store_dir = str(tmp_path / "store")
        first = CohortEngine(
            dataset, executor="serial", chunk_s=60.0, store_dir=store_dir
        )
        first.run(self.TASKS)
        assert first.cache_stats()["store"]["writes"] == len(self.TASKS)

        second = CohortEngine(
            dataset, executor="serial", chunk_s=4.5, store_dir=store_dir
        )
        second.run(self.TASKS)
        stats = second.cache_stats()["store"]
        assert stats["hits"] == len(self.TASKS)
        assert stats["writes"] == 0

    def test_tiny_chunks_coalesce_into_bounded_pushes(self, monkeypatch):
        # chunk_s far below one window step must not multiply the
        # streaming extractor's re-buffering: pushes are coalesced to at
        # least one step, so the push count matches chunk_s == step_s.
        from repro.core.streaming import StreamingFeatureExtractor

        calls = {"n": 0}
        original = StreamingFeatureExtractor.push

        def counting(self, chunk):
            calls["n"] += 1
            return original(self, chunk)

        monkeypatch.setattr(StreamingFeatureExtractor, "push", counting)
        record = EEGRecord(
            data=np.random.default_rng(3).standard_normal((2, int(30 * FS))),
            fs=FS,
        )
        spec = WindowSpec(4.0, 1.0)
        tiny = extract(record, spec=spec, chunk_s=0.01)
        n_pushes = calls["n"]
        assert n_pushes <= 31  # one push per 1 s step (+ final partial)
        calls["n"] = 0
        batch = extract_features(record, Paper10FeatureExtractor(), spec)
        assert np.array_equal(tiny.values, batch.values)


class TestStreamingPassCount:
    """How often a record's signal is produced per engine record.

    A synthetic source is keyed by its recipe, so it is synthesized once
    on a miss (through the extractor) and never on a store hit; a source
    without a recipe is still streamed once to key it."""

    TASKS = (RecordTask(1, 0, 0), RecordTask(8, 0, 0))

    @staticmethod
    def count_passes(monkeypatch, cls):
        calls = {"n": 0}
        original = cls.iter_chunks

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "iter_chunks", counting)
        return calls

    def test_synthetic_miss_streams_once_and_store_hit_never(
        self, dataset, monkeypatch, tmp_path
    ):
        from repro.data.sources import SyntheticRecordSource

        calls = self.count_passes(monkeypatch, SyntheticRecordSource)
        store_dir = str(tmp_path / "store")
        first = CohortEngine(dataset, executor="serial", store_dir=store_dir)
        first.run(self.TASKS)
        assert first.cache_stats()["store"]["misses"] == len(self.TASKS)
        assert calls["n"] == len(self.TASKS)

        calls["n"] = 0
        second = CohortEngine(dataset, executor="serial", store_dir=store_dir)
        second.run(self.TASKS)
        assert second.cache_stats()["store"]["hits"] == len(self.TASKS)
        assert calls["n"] == 0

    def test_memory_miss_streams_once(self, dataset, monkeypatch):
        from repro.data.sources import SyntheticRecordSource

        calls = self.count_passes(monkeypatch, SyntheticRecordSource)
        engine = CohortEngine(dataset, executor="serial")
        engine.run(self.TASKS)
        assert engine.cache_stats()["misses"] == len(self.TASKS)
        assert calls["n"] == len(self.TASKS)

    def test_array_source_miss_streams_twice(self, sample_record, monkeypatch):
        calls = self.count_passes(monkeypatch, ArrayRecordSource)
        cache = FeatureCache(capacity=2)
        source = ArrayRecordSource(sample_record)
        extractor, spec = Paper10FeatureExtractor(), WindowSpec(4.0, 1.0)
        cache.get_or_extract_source(source, extractor, spec)
        assert calls["n"] == 2  # content digest + extraction
        cache.get_or_extract_source(source, extractor, spec)
        assert calls["n"] == 3  # a memory hit still digests the content


class TestEngineParity:
    """Engine output == sequential pipeline, at workers=1 and workers=4."""

    def check_report(self, report, expected):
        assert len(report.outcomes) == len(COHORT_TASKS)
        for out in report.outcomes:
            want = expected[(out.patient_id, out.seizure_index, out.sample_index)]
            assert out.onset_s == want["onset_s"]
            assert out.offset_s == want["offset_s"]
            assert out.delta_s == want["delta_s"]
            assert out.delta_norm == want["delta_norm"]
            assert out.sensitivity == want["sensitivity"]
            assert out.specificity == want["specificity"]
            assert out.geometric_mean == want["geometric_mean"]
            assert out.n_windows == want["features"].shape[0]

    def test_workers_1(self, dataset, expected):
        engine = CohortEngine(dataset, max_workers=1, executor="process")
        self.check_report(engine.run(COHORT_TASKS), expected)

    def test_workers_4_process(self, dataset, expected):
        engine = CohortEngine(dataset, max_workers=4, executor="process")
        self.check_report(engine.run(COHORT_TASKS), expected)

    def test_serial_matches(self, dataset, expected):
        engine = CohortEngine(dataset, max_workers=4, executor="serial")
        self.check_report(engine.run(COHORT_TASKS), expected)


class TestEngineValidation:
    def test_unknown_executor(self, dataset):
        for kind in ("fleet", "thread"):
            with pytest.raises(EngineError, match=re.escape(REFUSED_KIND)):
                CohortEngine(dataset, executor=kind)

    def test_bad_worker_count(self, dataset):
        with pytest.raises(EngineError, match="max_workers"):
            CohortEngine(dataset, max_workers=0)

    def test_empty_task_list_yields_empty_report(self, dataset):
        report = CohortEngine(dataset, executor="serial").run(())
        assert report.n_records == 0
        assert report.n_failures == 0
        assert report.patients == ()
        # The empty report still serializes canonically (strict JSON, no
        # NaN) so resumable tooling can treat it uniformly.
        payload = json.loads(report.to_json())
        assert payload["outcomes"] == []
        assert payload["median_delta_s"] == 0.0

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("chunk_s", 0.0),
            ("chunk_s", -1.0),
            ("chunk_s", float("nan")),
            ("chunk_s", float("inf")),
            ("cache_capacity", 0),
        ],
    )
    def test_rejects_bad_pipeline_knob(self, dataset, knob, value):
        # Refused at construction, before any record is synthesized or
        # any pool worker starts.
        with pytest.raises(EngineError, match=knob):
            CohortEngine(dataset, executor="process", **{knob: value})

    def test_effective_workers(self, dataset):
        engine = CohortEngine(dataset, max_workers=8, executor="process")
        assert engine.effective_workers(3) == 3  # capped by task count
        assert engine.effective_workers(20) == 8
        serial = CohortEngine(dataset, max_workers=8, executor="serial")
        assert serial.effective_workers(20) == 1

    def test_unknown_patient_in_work_list(self, dataset):
        with pytest.raises(EngineError, match="unknown patient"):
            cohort_tasks(dataset, patient_ids=[99])

    def test_task_enumeration_is_canonical(self, dataset):
        tasks = cohort_tasks(dataset, samples_per_seizure=2, patient_ids=[8])
        assert [t.key for t in tasks] == sorted(t.key for t in tasks)
        assert len(tasks) == 2 * dataset.profile(8).n_seizures

    def test_empty_outcome_set_aggregates_to_empty_report(self):
        report = CohortReport.from_outcomes([])
        assert report.n_records == 0
        assert report.patients == ()
        assert report.median_delta_s == 0.0
        assert report.geometric_mean == 0.0


class TestFeatureCache:
    def test_hit_returns_same_matrix(self, sample_record):
        cache = FeatureCache(capacity=2)
        extractor = Paper10FeatureExtractor()
        spec = WindowSpec(4.0, 1.0)
        source = ArrayRecordSource(sample_record)
        first = cache.get_or_extract_source(source, extractor, spec)
        second = cache.get_or_extract_source(source, extractor, spec)
        assert second is first
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
        }

    def test_content_change_is_a_miss(self, sample_record):
        cache = FeatureCache(capacity=4)
        extractor = Paper10FeatureExtractor()
        spec = WindowSpec(4.0, 1.0)
        cache.get_or_extract_source(ArrayRecordSource(sample_record), extractor, spec)
        tweaked = EEGRecord(
            data=sample_record.data + 1.0,
            fs=sample_record.fs,
            channel_names=sample_record.channel_names,
            annotations=list(sample_record.annotations),
            patient_id=sample_record.patient_id,
            record_id=sample_record.record_id,  # same id, different data
        )
        cache.get_or_extract_source(ArrayRecordSource(tweaked), extractor, spec)
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 0

    def test_lru_eviction(self, dataset):
        cache = FeatureCache(capacity=1)
        extractor = Paper10FeatureExtractor()
        spec = WindowSpec(4.0, 1.0)
        rec_a = dataset.generate_seizure_free(1, 20.0, 0)
        rec_b = dataset.generate_seizure_free(1, 20.0, 1)
        cache.get_or_extract_source(ArrayRecordSource(rec_a), extractor, spec)
        cache.get_or_extract_source(ArrayRecordSource(rec_b), extractor, spec)
        cache.get_or_extract_source(ArrayRecordSource(rec_a), extractor, spec)
        stats = cache.stats()
        assert stats["evictions"] == 2
        assert stats["misses"] == 3
        assert stats["size"] == 1

    def test_capacity_validated(self):
        with pytest.raises(EngineError, match="capacity"):
            FeatureCache(capacity=0)

    def test_large_array_config_distinguished(self, seizure_free_record):
        # numpy elides the middle of large-array reprs; the fingerprint
        # must hash the bytes, not the repr, or configs differing only
        # mid-array would collide.
        class ArrayConfigExtractor(Paper10FeatureExtractor):
            def __init__(self, weights):
                super().__init__()
                self.weights = weights

        w1 = np.zeros(2000)
        w2 = np.zeros(2000)
        w2[1000] = 1.0
        spec = WindowSpec(4.0, 1.0)
        key1 = source_cache_key(
            ArrayRecordSource(seizure_free_record), ArrayConfigExtractor(w1), spec
        )
        key2 = source_cache_key(
            ArrayRecordSource(seizure_free_record), ArrayConfigExtractor(w2), spec
        )
        assert key1 != key2

    def test_extractor_config_is_part_of_key(self, seizure_free_record):
        # Same class, same feature names, different configuration: the
        # two must never hit each other's entries.
        cache = FeatureCache(capacity=4)
        spec = WindowSpec(4.0, 1.0)
        source = ArrayRecordSource(seizure_free_record)
        a = cache.get_or_extract_source(
            source, Paper10FeatureExtractor(renyi_alpha=2.0), spec
        )
        b = cache.get_or_extract_source(
            source, Paper10FeatureExtractor(renyi_alpha=1.5), spec
        )
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 2
        assert not np.array_equal(a.values, b.values)


class TestCacheTierParity:
    """Byte-identical reports with the cache cold, warm, and disk-restored.

    The disk store must be invisible to results: a run that extracts
    everything, a run served from the in-process LRU, and a fresh
    engine served purely from the persisted matrices all serialize to
    the same JSON bytes as the storeless baseline.
    """

    TASKS = (RecordTask(1, 0, 0), RecordTask(8, 0, 0))

    def test_cold_warm_restored_byte_identical(self, dataset, tmp_path):
        baseline = (
            CohortEngine(dataset, executor="serial").run(self.TASKS).to_json()
        )
        store_dir = tmp_path / "feature-store"

        first = CohortEngine(
            dataset, executor="serial", store_dir=str(store_dir)
        )
        cold = first.run(self.TASKS).to_json()  # extracts + persists
        warm = first.run(self.TASKS).to_json()  # served by the LRU tier
        stats = first.cache_stats()
        assert stats["hits"] == len(self.TASKS)
        assert stats["store"]["writes"] == len(self.TASKS)

        restored_engine = CohortEngine(
            dataset, executor="serial", store_dir=str(store_dir)
        )
        restored = restored_engine.run(self.TASKS).to_json()
        stats = restored_engine.cache_stats()
        # Every record came back from disk: no extraction, no writes.
        assert stats["store"]["hits"] == len(self.TASKS)
        assert stats["store"]["writes"] == 0

        assert cold == warm == restored == baseline

    def test_process_pool_shares_the_store(self, dataset, tmp_path):
        store_dir = tmp_path / "feature-store"
        serial = CohortEngine(
            dataset, executor="serial", store_dir=str(store_dir)
        )
        expected = serial.run(self.TASKS).to_json()
        pooled = CohortEngine(
            dataset, max_workers=2, executor="process", store_dir=str(store_dir)
        )
        assert pooled.run(self.TASKS).to_json() == expected


class TestPaperProtocolRollup:
    """Multi-sample aggregation must match repro.core.aggregation."""

    @staticmethod
    def outcome(pid, sid, sample, delta, norm):
        return RecordOutcome(
            patient_id=pid,
            seizure_index=sid,
            sample_index=sample,
            record_id=f"P{pid}_S{sid}_R{sample}",
            duration_s=600.0,
            n_windows=597,
            truth_onset_s=100.0,
            truth_offset_s=150.0,
            onset_s=100.0 + delta,
            offset_s=150.0 + delta,
            delta_s=delta,
            delta_norm=norm,
            sensitivity=0.9,
            specificity=0.95,
            geometric_mean=0.924,
        )

    def test_samples_gt_one_follows_sec_via(self):
        outcomes = [
            self.outcome(1, 0, 0, 4.0, 0.99),
            self.outcome(1, 0, 1, 8.0, 0.97),
            self.outcome(1, 1, 0, 20.0, 0.90),
            self.outcome(1, 1, 1, 40.0, 0.80),
            self.outcome(2, 0, 0, 2.0, 0.995),
            self.outcome(2, 0, 1, 6.0, 0.985),
        ]
        report = CohortReport.from_outcomes(outcomes)
        expected = aggregate_cohort(
            [
                score_seizure(1, 0, [4.0, 8.0], [0.99, 0.97]),
                score_seizure(1, 1, [20.0, 40.0], [0.90, 0.80]),
                score_seizure(2, 0, [2.0, 6.0], [0.995, 0.985]),
            ]
        )
        assert report.median_delta_s == expected.median_delta_s
        assert report.median_delta_norm == expected.median_delta_norm
        for patient in report.patients:
            want = expected.patient(patient.patient_id)
            assert patient.median_delta_s == want.median_delta_s
            assert patient.median_delta_norm == want.median_delta_norm


class TestShortRecordContract:
    """Records shorter than one window raise FeatureError on every path."""

    def short_record(self):
        rng = np.random.default_rng(7)
        return EEGRecord(data=rng.standard_normal((2, int(2.0 * FS))), fs=FS)

    def test_batch_extraction_raises(self):
        with pytest.raises(FeatureError, match="shorter than one"):
            extract_features(self.short_record(), Paper10FeatureExtractor())

    def test_chunked_extraction_raises(self):
        with pytest.raises(FeatureError, match="shorter than one"):
            extract(self.short_record())

    def test_cache_path_raises_and_caches_nothing(self):
        cache = FeatureCache(capacity=2)
        with pytest.raises(FeatureError, match="shorter than one"):
            cache.get_or_extract_source(
                ArrayRecordSource(self.short_record()),
                Paper10FeatureExtractor(),
                WindowSpec(4.0, 1.0),
            )
        assert len(cache) == 0

    def test_streaming_finalize_raises(self):
        stream = StreamingFeatureExtractor(fs=FS)
        rows = stream.push(self.short_record().data)
        assert rows.shape[0] == 0
        with pytest.raises(FeatureError, match="shorter than one"):
            stream.finalize()



class TestKernelBackendParity:
    """Cohort reports are byte-identical under every kernel backend.

    This is the registry's load-bearing guarantee: because the
    vectorized backend is bitwise identical to the reference (the kernel
    parity suite checks it), the backend can never change a report.
    Extraction resolves kernels through ``repro.kernels.get_kernel`` at
    call time, so patching that name reroutes a whole run; a serial
    executor keeps the patch in-process.
    """

    TASKS = (RecordTask(1, 0, 0), RecordTask(8, 0, 0))

    def _report_json(self, dataset, monkeypatch, backend):
        import repro.kernels
        from repro.kernels.registry import get_kernel

        resolved = set()

        def preferring(name, prefer=None):
            impl = get_kernel(name, prefer or backend)
            resolved.add(impl.__module__)
            return impl

        with monkeypatch.context() as patch:
            patch.setattr(repro.kernels, "get_kernel", preferring)
            report = CohortEngine(dataset, executor="serial").run(self.TASKS)
        return report.to_json(), resolved

    def test_reference_vectorized_and_default_byte_identical(
        self, dataset, monkeypatch
    ):
        ref, ref_modules = self._report_json(dataset, monkeypatch, "reference")
        vec, vec_modules = self._report_json(dataset, monkeypatch, "vectorized")
        default, default_modules = self._report_json(dataset, monkeypatch, None)
        assert ref_modules == {"repro.kernels.reference"}
        assert vec_modules == default_modules == {"repro.kernels.vectorized"}
        assert ref == vec == default
