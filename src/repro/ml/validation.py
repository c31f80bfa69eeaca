"""Training-set construction and cross-validation for the Sec. VI-B study.

"A set of experiments with personalized data are performed where the
training set is balanced and consists of 2 to 5 seizures coming from the
same subject that is being tested.  Thus, the length of the training set
ranges between 5 and 30 minutes of EEG recordings."

The helpers here assemble such balanced window-level training sets from
annotated records (expert labels or algorithm self-labels) and provide a
leave-one-seizure-out iterator for personalized evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..data.records import EEGRecord, SeizureAnnotation
from ..exceptions import ModelError, at_least, integer, within
from ..features.base import FeatureExtractor
from ..features.extraction import extract_labeled_features
from ..signals.windowing import WindowSpec

__all__ = [
    "TrainingSet",
    "build_balanced_training_set",
    "train_test_split",
    "leave_one_seizure_out",
]


@dataclass
class TrainingSet:
    """Window-level features and binary labels ready for a classifier."""

    values: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.values.shape[0] != self.labels.shape[0]:
            raise ModelError(
                f"{self.values.shape[0]} rows vs {self.labels.shape[0]} labels"
            )

    @property
    def n_windows(self) -> int:
        return self.values.shape[0]

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def balance(self) -> float:
        """Fraction of positive (seizure) windows."""
        return self.n_positive / self.n_windows if self.n_windows else 0.0

    def merged_with(self, other: "TrainingSet") -> "TrainingSet":
        if self.feature_names != other.feature_names:
            raise ModelError("cannot merge training sets with different features")
        return TrainingSet(
            values=np.vstack([self.values, other.values]),
            labels=np.concatenate([self.labels, other.labels]),
            feature_names=self.feature_names,
        )


def _seizure_segment(
    record: EEGRecord, ann: SeizureAnnotation, context_s: float
) -> EEGRecord:
    """Cut a seizure-centred segment with ``context_s`` margin each side."""
    t0 = max(0.0, ann.onset_s - context_s)
    t1 = min(record.duration_s, ann.offset_s + context_s)
    return record.crop(t0, t1)


def build_balanced_training_set(
    seizure_records: Sequence[EEGRecord],
    seizure_free_records: Sequence[EEGRecord],
    extractor: FeatureExtractor,
    spec: WindowSpec | None = None,
    context_s: float = 30.0,
    label_source: str | None = None,
    seed: int = 0,
) -> TrainingSet:
    """Assemble a balanced window training set (Sec. VI-B protocol).

    For every annotated record, a segment around each seizure (plus
    ``context_s`` of surrounding signal) is extracted and labeled
    per-window; seizure-free records contribute negative windows, randomly
    subsampled so positives and negatives are balanced.

    Parameters
    ----------
    seizure_records:
        Records whose annotations define the positive windows.  When
        ``label_source`` is given, only annotations with that ``source``
        ("expert" or "algorithm") are used — this is the knob the Fig. 4
        experiment turns.
    seizure_free_records:
        Interictal records supplying negatives.
    extractor / spec:
        Feature definition (the real-time detector's 54x2 set by default
        in the experiments).
    context_s:
        Interictal margin kept around each seizure (gives the classifier
        nearby negatives, as training on seizure-only segments would),
        finite and >= 0.
    seed:
        Subsampling seed, a non-negative integer.
    """
    at_least(context_s, "context_s", ModelError, 0)
    integer(seed, "seed", ModelError)
    spec = spec or WindowSpec(length_s=4.0, step_s=1.0)
    pos_rows, neg_rows = [], []
    names: tuple[str, ...] | None = None
    for record in seizure_records:
        anns = record.annotations
        if label_source is not None:
            anns = [a for a in anns if a.source == label_source]
        if not anns:
            raise ModelError(
                f"record {record.record_id!r} has no annotations"
                + (f" with source {label_source!r}" if label_source else "")
            )
        work = EEGRecord(
            data=record.data,
            fs=record.fs,
            channel_names=record.channel_names,
            annotations=anns,
            patient_id=record.patient_id,
            record_id=record.record_id,
        )
        for ann in anns:
            segment = _seizure_segment(work, ann, context_s)
            feats, labels = extract_labeled_features(segment, extractor, spec)
            names = feats.feature_names
            pos_rows.append(feats.values[labels == 1])
            neg_rows.append(feats.values[labels == 0])
    for record in seizure_free_records:
        feats, labels = extract_labeled_features(record, extractor, spec)
        names = feats.feature_names
        neg_rows.append(feats.values[labels == 0])

    if names is None:
        raise ModelError("no records supplied")
    pos = np.vstack(pos_rows) if pos_rows else np.empty((0, len(names)))
    neg = np.vstack(neg_rows) if neg_rows else np.empty((0, len(names)))
    if pos.shape[0] == 0:
        raise ModelError("training set contains no seizure windows")
    if neg.shape[0] == 0:
        raise ModelError("training set contains no non-seizure windows")

    rng = np.random.default_rng(seed)
    n = min(pos.shape[0], neg.shape[0])
    pos_idx = rng.choice(pos.shape[0], size=n, replace=False)
    neg_idx = rng.choice(neg.shape[0], size=n, replace=False)
    values = np.vstack([pos[pos_idx], neg[neg_idx]])
    labels = np.concatenate([np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)])
    perm = rng.permutation(values.shape[0])
    return TrainingSet(values=values[perm], labels=labels[perm], feature_names=names)


def train_test_split(
    values: np.ndarray,
    labels: np.ndarray,
    test_fraction: float = 0.3,
    seed: int = 0,
    stratify: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random (optionally stratified) split; returns (Xtr, Xte, ytr, yte)."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    within(test_fraction, "test_fraction", ModelError, 0, 1, low_open=True, high_open=True)
    if values.shape[0] != labels.shape[0]:
        raise ModelError("values/labels length mismatch")
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(values.shape[0], dtype=bool)
    if stratify:
        for cls in np.unique(labels):
            pool = np.where(labels == cls)[0]
            n_test = max(1, int(round(test_fraction * pool.size)))
            test_mask[rng.choice(pool, size=n_test, replace=False)] = True
    else:
        n_test = max(1, int(round(test_fraction * values.shape[0])))
        test_mask[rng.choice(values.shape[0], size=n_test, replace=False)] = True
    return (
        values[~test_mask],
        values[test_mask],
        labels[~test_mask],
        labels[test_mask],
    )


def leave_one_seizure_out(n_seizures: int) -> Iterator[tuple[list[int], int]]:
    """Yield (train_indices, test_index) over a patient's seizures.

    The Sec. VI-B experiments train on 2-5 of a subject's seizures and
    test on held-out data from the same subject; this iterator enumerates
    the personalized folds.
    """
    if n_seizures < 2:
        raise ModelError("leave-one-seizure-out needs at least 2 seizures")
    for test_idx in range(n_seizures):
        train = [i for i in range(n_seizures) if i != test_idx]
        yield train, test_idx
