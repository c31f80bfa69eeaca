"""The ``repro.api`` facade: five verbs over the full pipeline."""

import asyncio

import numpy as np
import pytest

import repro
from repro import api
from repro.data import write_edf
from repro.data.sources import (
    ArrayRecordSource,
    EDFRecordSource,
    SyntheticRecordSource,
)
from repro.exceptions import DataError
from repro.features.extraction import extract_features
from repro.features.paper10 import Paper10FeatureExtractor
from repro.service import DetectionService, ServiceClient, ServiceConfig
from repro.settings import ReproSettings


class TestOpenSource:
    def test_record_source_passes_through(self, dataset):
        source = dataset.sample_source(1, 0, 0)
        assert api.open_source(source) is source

    def test_record_is_wrapped(self, sample_record):
        source = api.open_source(sample_record)
        assert isinstance(source, ArrayRecordSource)
        assert source.materialize() is sample_record

    def test_path_opens_edf(self, sample_record, tmp_path):
        path = tmp_path / "rec.edf"
        write_edf(sample_record, path)
        source = api.open_source(path)
        assert isinstance(source, EDFRecordSource)
        # EDF stores 16-bit samples; round-trip is close, not exact.
        np.testing.assert_allclose(
            source.materialize().data, sample_record.data, atol=0.01
        )

    def test_coordinates_use_dataset(self, dataset):
        source = api.open_source(dataset=dataset, patient_id=1)
        assert isinstance(source, SyntheticRecordSource)
        reference = dataset.sample_source(1, 0, 0)
        assert source.record_id == reference.record_id
        np.testing.assert_array_equal(
            source.materialize().data, reference.materialize().data
        )

    def test_nothing_given_raises(self):
        with pytest.raises(DataError, match="patient_id"):
            api.open_source()


class TestExtract:
    def test_matches_batch_extraction(self, sample_record):
        batch = extract_features(sample_record, Paper10FeatureExtractor())
        for arg in (sample_record, ArrayRecordSource(sample_record)):
            feats = api.extract(arg)
            np.testing.assert_array_equal(feats.values, batch.values)
            assert feats.feature_names == batch.feature_names

    def test_chunk_size_does_not_change_values(self, sample_record):
        batch = extract_features(sample_record, Paper10FeatureExtractor())
        feats = api.extract(sample_record, chunk_s=7.3)
        np.testing.assert_array_equal(feats.values, batch.values)


class TestEvaluateCohort:
    def test_quick_serial_run(self, dataset):
        report = api.evaluate_cohort(
            dataset, quick=True, patient_ids=[8], executor="serial"
        )
        assert report.n_records > 0
        assert report.to_json()

    def test_settings_thread_through(self, dataset):
        # The snapshot sets the scale: two samples per seizure.
        report = api.evaluate_cohort(
            dataset,
            settings=ReproSettings(samples_per_seizure=2),
            quick=True,
            patient_ids=[8],
            executor="serial",
        )
        assert report.n_records == 2 * dataset.profile(8).n_seizures


class TestStartService:
    def test_default_service(self):
        service = api.start_service()
        assert isinstance(service, DetectionService)
        assert service.manager.config.queue_depth == 64

    def test_settings_and_overrides(self):
        settings = ReproSettings(
            service_queue_depth=8, service_backpressure="shed-oldest"
        )
        service = api.start_service(settings=settings)
        assert service.manager.config.queue_depth == 8
        assert service.manager.config.backpressure == "shed-oldest"
        service = api.start_service(settings=settings, queue_depth=2)
        assert service.manager.config.queue_depth == 2

    def test_explicit_config_wins(self):
        config = ServiceConfig(queue_depth=3)
        service = api.start_service(config)
        assert service.manager.config is config

    def test_config_plus_overrides_raises(self):
        with pytest.raises(DataError):
            api.start_service(ServiceConfig(), queue_depth=3)

    def test_workers_selects_the_shard_pool(self):
        from repro.service import ServiceShardPool

        service = api.start_service(workers=2)
        assert isinstance(service, ServiceShardPool)
        assert service.n_workers == 2
        # Constructed, not started: no processes were spawned.
        assert service._clients == []
        settings = ReproSettings(service_workers=3)
        assert isinstance(
            api.start_service(settings=settings), ServiceShardPool
        )


class TestConnect:
    def test_connect_returns_typed_client_round_trip(self, sample_record):
        """The fifth verb: dial a served pool and stream through the
        typed client, decisions matching the batch path."""
        from repro.service import batch_window_decisions

        record = sample_record
        n = 6 * 256
        batch = batch_window_decisions(
            type(record)(data=record.data[:, :n], fs=record.fs)
        )

        async def go():
            async with DetectionService(ServiceConfig()) as service:
                host, port = await service.serve()
                loop = asyncio.get_running_loop()

                def stream():
                    with api.connect(host, port) as client:
                        assert isinstance(client, ServiceClient)
                        client.open("p")
                        for seq in range(6):
                            lo = seq * 256
                            result = client.push(
                                "p", record.data[:, lo : lo + 256], seq=seq
                            )
                            assert result.accepted
                        events = client.poll("p")
                        summary = client.close("p")
                        return events + list(summary.trailing_events)

                return await loop.run_in_executor(None, stream)

        assert run_async(go()) == batch


def run_async(coro):
    return asyncio.run(coro)


class TestPackageSurface:
    def test_facade_exported_from_top_level(self):
        assert repro.open_source is api.open_source
        assert repro.extract is api.extract
        assert repro.evaluate_cohort is api.evaluate_cohort
        assert repro.start_service is api.start_service
        assert repro.connect is api.connect
        assert repro.api is api

    def test_service_types_exported(self):
        for name in (
            "DetectionService",
            "DetectorSession",
            "Replayer",
            "ReplayReport",
            "ServiceClient",
            "ServiceConfig",
            "SessionManager",
            "ReproSettings",
            "batch_window_decisions",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
