"""ML substrate: CART/random forest, clustering baselines, metrics,
and the Sec. VI-B training-set construction protocol."""

from .. import _lazy_exports

__all__ = [
    "RandomForestClassifier",
    "KMeans",
    "KMedoids",
    "cluster_seizure_labels",
    "ClassificationReport",
    "accuracy",
    "classification_report",
    "confusion_counts",
    "f1_score",
    "geometric_mean_score",
    "precision",
    "sensitivity",
    "specificity",
    "RocCurve",
    "auc",
    "best_gmean_threshold",
    "roc_curve",
    "DecisionTreeClassifier",
    "TrainingSet",
    "build_balanced_training_set",
    "leave_one_seizure_out",
    "train_test_split",
]

_EXPORTS = {
    ".forest": ("RandomForestClassifier",),
    ".kmeans": ("KMeans", "KMedoids", "cluster_seizure_labels"),
    ".roc": ("RocCurve", "auc", "best_gmean_threshold", "roc_curve"),
    ".metrics": (
        "ClassificationReport", "accuracy", "classification_report", "confusion_counts",
        "f1_score", "geometric_mean_score", "precision", "sensitivity", "specificity",
    ),
    ".tree": ("DecisionTreeClassifier",),
    ".validation": (
        "TrainingSet", "build_balanced_training_set", "leave_one_seizure_out", "train_test_split",
    ),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
