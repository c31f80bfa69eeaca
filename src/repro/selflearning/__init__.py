"""The closed self-learning loop of Fig. 1: real-time detector, patient
trigger events, and the pipeline that turns missed seizures into
personalized training data."""

from .. import _lazy_exports

__all__ = [
    "DetectionEvent",
    "RealTimeDetector",
    "EventKind",
    "PatientTrigger",
    "TimelineEvent",
    "SelfLearningPipeline",
    "SelfLearningReport",
]

_EXPORTS = {
    ".detector": ("DetectionEvent", "RealTimeDetector"),
    ".events": ("EventKind", "PatientTrigger", "TimelineEvent"),
    ".pipeline": ("SelfLearningPipeline", "SelfLearningReport"),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
