"""repro — reproduction of "A Self-Learning Methodology for Epileptic
Seizure Detection with Minimally-Supervised Edge Labeling" (DATE 2019).

The package is organized as one subpackage per subsystem:

* :mod:`repro.core` — the paper's contribution: Algorithm 1 (a-posteriori
  seizure labeling), the deviation metric and the evaluation protocol;
* :mod:`repro.signals` — DWT / spectral / windowing substrate;
* :mod:`repro.entropy` — permutation, Rényi, sample/approximate, Shannon;
* :mod:`repro.data` — synthetic CHB-MIT-like cohort, records, EDF I/O;
* :mod:`repro.features` — the 10 selected features, the e-Glass 54-feature
  family, backward elimination;
* :mod:`repro.ml` — random forest, clustering baselines, metrics;
* :mod:`repro.engine` — cohort-scale parallel batch execution with an
  equivalence guarantee against the sequential pipeline;
* :mod:`repro.selflearning` — the Fig. 1 closed loop;
* :mod:`repro.platform` — the wearable power/battery/memory/runtime model;
* :mod:`repro.service` — the real-time detection service (sessions,
  backpressure, wall-clock replay, latency telemetry);
* :mod:`repro.api` — the four-verb facade (:func:`~repro.api.open_source`,
  :func:`~repro.api.extract`, :func:`~repro.api.evaluate_cohort`,
  :func:`~repro.api.start_service`);
* :mod:`repro.settings` — every environment knob resolved into one
  :class:`~repro.settings.ReproSettings` snapshot.

Quickstart::

    from repro import SyntheticEEGDataset, APosterioriLabeler, deviation

    dataset = SyntheticEEGDataset(duration_range_s=(600, 900))
    record = dataset.generate_sample(patient_id=1, seizure_index=0)
    labeler = APosterioriLabeler()
    result = labeler.label(record, dataset.mean_seizure_duration(1))
    print(deviation(record.annotations[0], result.annotation), "seconds off")
"""

from .core import (
    APosterioriLabeler,
    CohortScore,
    DetectionResult,
    LabelingResult,
    PatientScore,
    SeizureScore,
    a_posteriori_fast,
    a_posteriori_reference,
    aggregate_cohort,
    deviation,
    fraction_within,
    geometric_mean,
    max_deviation,
    normalized_deviation,
    score_seizure,
)
from .engine import (
    CohortCheckpoint,
    CohortEngine,
    CohortReport,
    DiskFeatureStore,
    FeatureCache,
    RecordTask,
    ShardLauncher,
    ShardSpec,
    cohort_tasks,
    collect_shards,
    extract_features_from_source,
    merge_checkpoints,
    merge_shards,
    merged_report,
    orchestrate,
    plan_shards,
    run_shard,
    write_plan,
)
from .data import (
    ArrayRecordSource,
    EDFRecordSource,
    EEGRecord,
    PAPER_PATIENTS,
    PatientProfile,
    RecordSource,
    SeizureAnnotation,
    SyntheticEEGDataset,
    SyntheticRecordSource,
    iter_evaluation_samples,
    load_record,
    patient_by_id,
    record_content_digest,
    save_record,
)
from .features import (
    EGlassFeatureExtractor,
    FeatureMatrix,
    Paper10FeatureExtractor,
    backward_elimination,
    extract_features,
    extract_labeled_features,
)
from .ml import (
    KMeans,
    KMedoids,
    RandomForestClassifier,
    build_balanced_training_set,
    classification_report,
    geometric_mean_score,
)
from .platform import (
    MemoryBudget,
    PowerBudget,
    RuntimeModel,
    Task,
    WearablePlatform,
    labeling_duty_cycle,
)
from .selflearning import (
    PatientTrigger,
    RealTimeDetector,
    SelfLearningPipeline,
    SelfLearningReport,
)
from . import api
from .api import connect, evaluate_cohort, extract, open_source, start_service
from .service import (
    DetectionService,
    DetectorSession,
    Replayer,
    ReplayReport,
    ServiceClient,
    ServiceConfig,
    ServiceTelemetry,
    SessionManager,
    batch_window_decisions,
)
from .settings import ReproSettings
from .version import __version__

__all__ = [
    "__version__",
    # facade
    "api",
    "connect",
    "evaluate_cohort",
    "extract",
    "open_source",
    "start_service",
    # settings
    "ReproSettings",
    # service
    "DetectionService",
    "DetectorSession",
    "ReplayReport",
    "Replayer",
    "ServiceClient",
    "ServiceConfig",
    "ServiceTelemetry",
    "SessionManager",
    "batch_window_decisions",
    # core
    "APosterioriLabeler",
    "CohortScore",
    "DetectionResult",
    "LabelingResult",
    "PatientScore",
    "SeizureScore",
    "a_posteriori_fast",
    "a_posteriori_reference",
    "aggregate_cohort",
    "deviation",
    "fraction_within",
    "geometric_mean",
    "max_deviation",
    "normalized_deviation",
    "score_seizure",
    # engine
    "CohortCheckpoint",
    "CohortEngine",
    "CohortReport",
    "DiskFeatureStore",
    "FeatureCache",
    "RecordTask",
    "ShardLauncher",
    "ShardSpec",
    "cohort_tasks",
    "collect_shards",
    "extract_features_from_source",
    "merge_checkpoints",
    "merge_shards",
    "merged_report",
    "orchestrate",
    "plan_shards",
    "run_shard",
    "write_plan",
    # data
    "ArrayRecordSource",
    "EDFRecordSource",
    "EEGRecord",
    "PAPER_PATIENTS",
    "PatientProfile",
    "RecordSource",
    "SeizureAnnotation",
    "SyntheticEEGDataset",
    "SyntheticRecordSource",
    "iter_evaluation_samples",
    "load_record",
    "patient_by_id",
    "record_content_digest",
    "save_record",
    # features
    "EGlassFeatureExtractor",
    "FeatureMatrix",
    "Paper10FeatureExtractor",
    "backward_elimination",
    "extract_features",
    "extract_labeled_features",
    # ml
    "KMeans",
    "KMedoids",
    "RandomForestClassifier",
    "build_balanced_training_set",
    "classification_report",
    "geometric_mean_score",
    # platform
    "MemoryBudget",
    "PowerBudget",
    "RuntimeModel",
    "Task",
    "WearablePlatform",
    "labeling_duty_cycle",
    # selflearning
    "PatientTrigger",
    "RealTimeDetector",
    "SelfLearningPipeline",
    "SelfLearningReport",
]
