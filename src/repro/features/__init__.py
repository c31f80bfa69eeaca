"""Feature substrate: the paper's 10 features, the e-Glass 54-feature
family, backward elimination, normalization and windowed extraction."""

from .. import _lazy_exports

__all__ = [
    "FeatureExtractor",
    "FeatureMatrix",
    "N_EGLASS_PER_CHANNEL",
    "EGlassFeatureExtractor",
    "eglass_feature_names",
    "extract_features",
    "extract_labeled_features",
    "ZScoreScaler",
    "zscore",
    "PAPER10_FEATURE_NAMES",
    "Paper10FeatureExtractor",
    "SelectionResult",
    "backward_elimination",
    "fisher_mean_score",
    "fisher_ratio",
    "nearest_centroid_score",
    "dwt_details",
    "subband_energy",
    "subband_stats",
]

_EXPORTS = {
    ".base": ("FeatureExtractor", "FeatureMatrix"),
    ".eglass": ("N_EGLASS_PER_CHANNEL", "EGlassFeatureExtractor", "eglass_feature_names"),
    ".extraction": ("extract_features", "extract_labeled_features"),
    ".normalize": ("ZScoreScaler", "zscore"),
    ".paper10": ("PAPER10_FEATURE_NAMES", "Paper10FeatureExtractor"),
    ".selection": (
        "SelectionResult", "backward_elimination", "fisher_mean_score", "fisher_ratio",
        "nearest_centroid_score",
    ),
    ".wavelet_features": ("dwt_details", "subband_energy", "subband_stats"),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
