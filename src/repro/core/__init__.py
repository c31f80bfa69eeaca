"""The paper's primary contribution: Algorithm 1 and its evaluation
machinery — reference and fast implementations, the high-level labeler,
the deviation metric (Eqs. 1-2), and the Sec. VI-A aggregation protocol."""

from .. import _lazy_exports

# ``deviation`` is also the name of its submodule, and importing
# ``repro.core.deviation`` binds the module here over any lazily
# resolved name, so the function is bound eagerly, after the module.
from .deviation import deviation

__all__ = [
    "CohortScore",
    "PatientScore",
    "SeizureScore",
    "aggregate_cohort",
    "fraction_within",
    "geometric_mean",
    "score_seizure",
    "DetectionResult",
    "a_posteriori_reference",
    "deviation",
    "max_deviation",
    "normalized_deviation",
    "a_posteriori_fast",
    "grid_distance_sums",
    "APosterioriLabeler",
    "LabelingResult",
    "LabelDiagnostics",
    "label_confidence",
    "top_k_detections",
    "RollingFeatureBuffer",
    "StreamingFeatureExtractor",
    "StreamingLabeler",
]

_EXPORTS = {
    ".aggregation": (
        "CohortScore", "PatientScore", "SeizureScore", "aggregate_cohort", "fraction_within",
        "geometric_mean", "score_seizure",
    ),
    ".algorithm": ("DetectionResult", "a_posteriori_reference"),
    ".deviation": ("deviation", "max_deviation", "normalized_deviation"),
    ".diagnostics": ("LabelDiagnostics", "label_confidence", "top_k_detections"),
    ".fast": ("a_posteriori_fast", "grid_distance_sums"),
    ".labeling": ("APosterioriLabeler", "LabelingResult"),
    ".streaming": ("RollingFeatureBuffer", "StreamingFeatureExtractor", "StreamingLabeler"),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
