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

Every name below is imported from its module on first use (PEP 562), so
``import repro`` itself loads no submodule: a process pays only for the
modules it touches — the cohort engine never loads the service, and a
service shard never loads the engine.
"""

import importlib


def _lazy_exports(namespace: dict, exports: dict) -> tuple:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    module path relative to the package to the names it provides (a
    name equal to the module's own name that the module does not define
    is the submodule itself).  A
    name is imported on first access and then bound in the package, so
    every later lookup is a plain attribute read and a ``setattr`` patch
    replaces what callers see, as with an eager import.  Any other name
    raises ``AttributeError``, which keeps ``hasattr`` and ``from
    package import submodule`` working.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        target = importlib.import_module(module, package)
        value = getattr(target, name, target) if module == "." + name else getattr(target, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__


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

_EXPORTS = {
    ".version": ("__version__",),
    ".api": ("api", "connect", "evaluate_cohort", "extract", "open_source", "start_service"),
    ".settings": ("ReproSettings",),
    ".service": (
        "DetectionService", "DetectorSession", "ReplayReport", "Replayer", "ServiceClient",
        "ServiceConfig", "ServiceTelemetry", "SessionManager", "batch_window_decisions",
    ),
    ".core": (
        "APosterioriLabeler", "CohortScore", "DetectionResult", "LabelingResult", "PatientScore",
        "SeizureScore", "a_posteriori_fast", "a_posteriori_reference", "aggregate_cohort",
        "deviation", "fraction_within", "geometric_mean", "max_deviation", "normalized_deviation",
        "score_seizure",
    ),
    ".engine": (
        "CohortCheckpoint", "CohortEngine", "CohortReport", "DiskFeatureStore", "FeatureCache",
        "RecordTask", "ShardLauncher", "ShardSpec", "cohort_tasks", "collect_shards",
        "extract_features_from_source", "merge_shards", "merged_report", "orchestrate",
        "plan_shards", "run_shard", "write_plan",
    ),
    ".data": (
        "ArrayRecordSource", "EDFRecordSource", "EEGRecord", "PAPER_PATIENTS", "PatientProfile",
        "RecordSource", "SeizureAnnotation", "SyntheticEEGDataset", "SyntheticRecordSource",
        "iter_evaluation_samples", "load_record", "patient_by_id", "record_content_digest",
        "save_record",
    ),
    ".features": (
        "EGlassFeatureExtractor", "FeatureMatrix", "Paper10FeatureExtractor",
        "backward_elimination", "extract_features", "extract_labeled_features",
    ),
    ".ml": (
        "KMeans", "KMedoids", "RandomForestClassifier", "build_balanced_training_set",
        "classification_report", "geometric_mean_score",
    ),
    ".platform": (
        "MemoryBudget", "PowerBudget", "RuntimeModel", "Task", "WearablePlatform",
        "labeling_duty_cycle",
    ),
    ".selflearning": (
        "PatientTrigger", "RealTimeDetector", "SelfLearningPipeline", "SelfLearningReport",
    ),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
