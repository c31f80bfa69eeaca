"""The one-stop facade: five verbs covering the repository's workflows.

Every subsystem keeps its full surface (``repro.data``, ``repro.engine``,
``repro.service``, ...), but the common paths compress to five calls:

* :func:`open_source` — anything record-like (an EDF path, an in-memory
  :class:`~repro.data.records.EEGRecord`, dataset coordinates) becomes a
  streaming :class:`~repro.data.sources.RecordSource`.
* :func:`extract` — a source (or record) becomes the bounded-memory
  feature matrix, bit-identical to batch extraction.
* :func:`evaluate_cohort` — the Sec. VI-A evaluation on the parallel
  cohort engine, returning its :class:`~repro.engine.report.CohortReport`.
* :func:`start_service` — a configured real-time
  :class:`~repro.service.ingest.DetectionService` ready to ``start()``/
  ``serve()``.
* :func:`connect` — a typed :class:`~repro.service.client.ServiceClient`
  speaking the versioned socket protocol to a running service
  (handshake, auth token, open/push/poll/close).

All five resolve their environment knobs through one
:class:`~repro.settings.ReproSettings` snapshot (pass ``settings=`` to
pin, omit to read the environment once per call)::

    import asyncio
    from repro import api

    source = api.open_source(patient_id=1, seizure_index=0)
    feats = api.extract(source)
    report = api.evaluate_cohort(patient_ids=[1, 2], quick=True)
    service = api.start_service()
    asyncio.run(service.serve())
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .exceptions import DataError
from .settings import ReproSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .data.dataset import SyntheticEEGDataset
    from .data.records import EEGRecord
    from .data.sources import RecordSource
    from .engine.report import CohortReport
    from .features.base import FeatureExtractor
    from .features.extraction import FeatureMatrix
    from .service.client import ServiceClient
    from .service.config import ServiceConfig
    from .service.fleet import ServiceShardPool
    from .service.ingest import DetectionService
    from .signals.windowing import WindowSpec

__all__ = [
    "open_source",
    "extract",
    "evaluate_cohort",
    "start_service",
    "connect",
]

#: Duration range used by ``evaluate_cohort(quick=True)`` — long enough
#: for every paper seizure to fit, short enough for smoke runs.
QUICK_DURATION_RANGE_S = (300.0, 360.0)


def open_source(
    record: "str | os.PathLike | EEGRecord | RecordSource | None" = None,
    *,
    dataset: SyntheticEEGDataset | None = None,
    patient_id: int | None = None,
    seizure_index: int = 0,
    sample_index: int = 0,
    duration_range_s: tuple[float, float] | None = None,
) -> RecordSource:
    """Resolve anything record-like into a streaming :class:`RecordSource`.

    Accepts, in order of precedence:

    * a :class:`RecordSource` — returned unchanged;
    * an :class:`EEGRecord` — wrapped in :class:`ArrayRecordSource`;
    * a path — opened as an EDF file (:class:`EDFRecordSource`);
    * ``patient_id=`` (plus optional ``seizure_index``/``sample_index``/
      ``duration_range_s``) — the synthetic cohort sample from
      ``dataset`` (a default :class:`SyntheticEEGDataset` when omitted).
    """
    from .data.dataset import SyntheticEEGDataset
    from .data.records import EEGRecord
    from .data.sources import ArrayRecordSource, EDFRecordSource, RecordSource

    if record is not None:
        if isinstance(record, RecordSource):
            return record
        if isinstance(record, EEGRecord):
            return ArrayRecordSource(record)
        return EDFRecordSource(record)
    if patient_id is None:
        raise DataError(
            "open_source needs a record, a path, or patient_id= coordinates"
        )
    dataset = dataset or SyntheticEEGDataset()
    return dataset.sample_source(
        patient_id, seizure_index, sample_index, duration_range_s
    )


def extract(
    source: "RecordSource | EEGRecord",
    extractor: "FeatureExtractor | None" = None,
    spec: "WindowSpec | None" = None,
    chunk_s: float | None = None,
) -> "FeatureMatrix":
    """Sliding-window features of a source or record, streamed.

    Bounded memory (one chunk plus one window of signal in flight) and
    bit-identical to batch
    :func:`~repro.features.extraction.extract_features` by the streaming
    contract.
    """
    from .data.records import EEGRecord
    from .data.sources import ArrayRecordSource
    from .engine.chunked import extract_features_from_source

    if isinstance(source, EEGRecord):
        source = ArrayRecordSource(source)
    kwargs: dict = {}
    if chunk_s is not None:
        kwargs["chunk_s"] = chunk_s
    return extract_features_from_source(source, extractor, spec, **kwargs)


def evaluate_cohort(
    dataset: SyntheticEEGDataset | None = None,
    *,
    settings: ReproSettings | None = None,
    quick: bool = False,
    samples_per_seizure: int | None = None,
    patient_ids: "list[int] | tuple[int, ...] | None" = None,
    duration_range_s: tuple[float, float] | None = None,
    executor: str | None = None,
    max_workers: int | None = None,
    **engine_kwargs,
) -> "CohortReport":
    """Run the Sec. VI-A cohort evaluation on the parallel engine.

    One call wires the environment-resolved :class:`ReproSettings`
    through the run: the samples-per-seizure count and the
    paper-vs-quick record durations follow the settings snapshot unless
    explicitly overridden.  ``executor`` (default ``"process"``) and
    ``max_workers`` go to the engine.
    ``quick=True`` shrinks records to :data:`QUICK_DURATION_RANGE_S` for
    smoke-test runtimes (ignored when the settings demand paper
    durations or an explicit range is given).

    Extra keyword arguments go to :class:`~repro.engine.executor
    .CohortEngine` (``chunk_s``, ``store_dir``, ...); the report is the
    engine's usual :class:`~repro.engine.report.CohortReport`.
    """
    from .data.dataset import SyntheticEEGDataset
    from .engine.executor import CohortEngine

    settings = settings or ReproSettings.from_env()
    dataset = dataset or SyntheticEEGDataset()
    if samples_per_seizure is None:
        samples_per_seizure = settings.resolve_samples(1)
    if duration_range_s is None and quick:
        duration_range_s = settings.resolve_duration_range(
            QUICK_DURATION_RANGE_S
        )
    engine = CohortEngine(
        dataset,
        executor=executor,
        max_workers=max_workers,
        **engine_kwargs,
    )
    return engine.run(
        samples_per_seizure=samples_per_seizure,
        patient_ids=patient_ids,
        duration_range_s=duration_range_s,
    )


def start_service(
    config: ServiceConfig | None = None,
    *,
    settings: ReproSettings | None = None,
    **config_overrides,
) -> "DetectionService | ServiceShardPool":
    """Build a real-time detection service from settings.

    Queue depth, backpressure policy, and worker count come from
    ``settings`` (the environment when omitted); keyword overrides win.
    ``workers == 1`` yields the single-process
    :class:`DetectionService`; larger values yield a
    :class:`~repro.service.fleet.ServiceShardPool` hosting sessions
    across that many worker processes.  Both serve the same socket
    protocol from the same verb table and work as async context
    managers; in process, ``open_session`` takes a detector object on
    the former and a serialized state on the latter, and ``snapshot()``
    is sync on the former and a coroutine on the latter.  The returned
    service is constructed but not yet running.
    """
    from .service.config import ServiceConfig
    from .service.fleet import ServiceShardPool
    from .service.ingest import DetectionService

    if config is None:
        config = ServiceConfig.from_settings(settings, **config_overrides)
    elif config_overrides:
        raise DataError("pass config or overrides, not both")
    if config.workers > 1:
        return ServiceShardPool(config)
    return DetectionService(config)


def connect(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    token: str | None = None,
    handshake: bool = True,
    timeout: float = 30.0,
) -> ServiceClient:
    """Connect to a running detection service as a typed client.

    Performs the versioned ``hello`` handshake (with ``token`` when the
    service enforces auth) and returns a
    :class:`~repro.service.client.ServiceClient` — ``open`` / ``push`` /
    ``poll`` / ``close`` with the service's own result types, usable as
    a context manager.  ``handshake=False`` speaks the versionless
    legacy protocol (accepted while the service has auth disabled).
    """
    from .service.client import ServiceClient

    return ServiceClient(
        host, port, token=token, handshake=handshake, timeout=timeout
    )
