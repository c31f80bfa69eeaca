"""Supervised real-time seizure detector (Sec. III-C).

Wraps the e-Glass feature family and the random-forest classifier into a
record-level detector: window features -> RF probability -> alarm
smoothing.  The detector is label-source-agnostic — the whole point of the
paper is that it can be trained from expert labels *or* the a-posteriori
algorithm's self-labels, and Fig. 4 compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.records import EEGRecord
from ..exceptions import ModelError, integer, within
from ..features.base import FeatureExtractor
from ..features.eglass import EGlassFeatureExtractor
from ..features.extraction import extract_features, extract_labeled_features
from ..features.normalize import ZScoreScaler
from ..ml.forest import RandomForestClassifier
from ..ml.metrics import ClassificationReport, classification_report
from ..ml.validation import TrainingSet
from ..signals.windowing import WindowSpec

__all__ = ["DetectionEvent", "RealTimeDetector"]


@dataclass(frozen=True)
class DetectionEvent:
    """A raised alarm: a maximal run of consecutive positive windows."""

    onset_s: float
    offset_s: float

    @property
    def duration_s(self) -> float:
        return self.offset_s - self.onset_s


@dataclass
class RealTimeDetector:
    """Window-level RF detector with alarm smoothing.

    Parameters
    ----------
    extractor:
        Feature definition (default: the 54x2 e-Glass family).
    spec:
        Window geometry (default 4 s / 1 s, as in the paper).
    n_estimators / max_depth:
        Forest capacity, as for
        :class:`~repro.ml.forest.RandomForestClassifier`.
    threshold:
        Seizure probability above which a window is positive, in (0, 1).
    min_consecutive:
        Windows that must be consecutively positive before an alarm is
        raised — standard debouncing in wearable detectors; 3 windows at
        1 s step adds 3 s latency and suppresses isolated false windows.
        An integer >= 1.
    seed:
        Forest seed, a non-negative integer.
    """

    extractor: FeatureExtractor = field(default_factory=EGlassFeatureExtractor)
    spec: WindowSpec = field(default_factory=lambda: WindowSpec(4.0, 1.0))
    n_estimators: int = 40
    max_depth: int | None = 10
    threshold: float = 0.5
    min_consecutive: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        integer(self.n_estimators, "n_estimators", ModelError, 1)
        if self.max_depth is not None:
            integer(self.max_depth, "max_depth", ModelError, 1)
        within(self.threshold, "threshold", ModelError, 0, 1, low_open=True, high_open=True)
        integer(self.min_consecutive, "min_consecutive", ModelError, 1)
        integer(self.seed, "seed", ModelError)
        self._scaler = ZScoreScaler()
        self._forest = None

    @property
    def _forest(self) -> RandomForestClassifier | None:
        return self._fitted_forest

    @_forest.setter
    def _forest(self, forest: RandomForestClassifier | None) -> None:
        # Installing a forest resolves its seizure-class column once, so
        # scoring never searches classes_ and a forest without class 1 is
        # refused here rather than at the first scored window.
        self._pos_col = 0 if forest is None else _positive_column(forest)
        self._fitted_forest = forest

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, training_set: TrainingSet) -> "RealTimeDetector":
        """Train from a prepared window-level training set."""
        if training_set.n_positive == 0:
            raise ModelError("training set has no seizure windows")
        values = self._scaler.fit_transform(training_set.values)
        self._forest = RandomForestClassifier(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            class_weight="balanced",
            random_state=self.seed,
        ).fit(values, training_set.labels)
        return self

    @property
    def is_fitted(self) -> bool:
        return self._forest is not None

    # ------------------------------------------------------------------
    # Serialization (live hot-swap into running service shards)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Plain-data export of a *fitted* detector.

        JSON-safe by construction; every float round-trips exactly, so
        a deserialized detector's :meth:`row_probabilities` is
        bit-identical to the original's — the property the service's
        ``swap_detector`` verb and re-homing replay rely on.  The
        extractor is shipped by class name and rebuilt with default
        construction (both paper extractors are default-constructible).
        """
        if self._forest is None:
            raise ModelError("detector is not fitted; nothing to serialize")
        assert self._scaler.mean_ is not None and self._scaler.std_ is not None
        return {
            "kind": "RealTimeDetector",
            "extractor": type(self.extractor).__name__,
            "spec": [self.spec.length_s, self.spec.step_s],
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "threshold": self.threshold,
            "min_consecutive": self.min_consecutive,
            "seed": self.seed,
            "scaler": {
                "mean": self._scaler.mean_.tolist(),
                "std": self._scaler.std_.tolist(),
            },
            "forest": self._forest.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RealTimeDetector":
        """Rebuild a fitted detector from :meth:`to_state` output.

        Raises :class:`ModelError` for a state that could not score: a
        malformed forest, a forest without the seizure class ``1``, or
        scaler ``mean`` / ``std`` not both the extractor's width.
        """
        from ..features.paper10 import Paper10FeatureExtractor

        extractors = {
            "EGlassFeatureExtractor": EGlassFeatureExtractor,
            "Paper10FeatureExtractor": Paper10FeatureExtractor,
        }
        try:
            extractor_cls = extractors[state["extractor"]]
            detector = cls(
                extractor=extractor_cls(),
                spec=WindowSpec(*(float(v) for v in state["spec"])),
                n_estimators=int(state["n_estimators"]),
                max_depth=state["max_depth"],
                threshold=float(state["threshold"]),
                min_consecutive=int(state["min_consecutive"]),
                seed=int(state["seed"]),
            )
            detector._scaler.mean_ = np.asarray(
                state["scaler"]["mean"], dtype=float
            )
            detector._scaler.std_ = np.asarray(
                state["scaler"]["std"], dtype=float
            )
            detector._forest = RandomForestClassifier.from_state(
                state["forest"]
            )
        except KeyError as exc:
            raise ModelError(f"bad detector state: missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ModelError(f"bad detector state: {exc}") from None
        n_features = detector.extractor.n_features
        for name in ("mean", "std"):
            shape = getattr(detector._scaler, f"{name}_").shape
            if shape != (n_features,):
                raise ModelError(
                    f"bad detector state: scaler {name} has shape {shape}, "
                    f"extractor has {n_features} features"
                )
        return detector

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def row_probabilities(self, values: np.ndarray) -> np.ndarray:
        """Seizure probability of already-extracted feature rows.

        The row-level scoring path shared by :meth:`window_probabilities`
        (batch records) and the real-time service's
        :class:`~repro.service.session.ForestWindowDetector` (streamed
        rows) — per-row pure, so any batching of the same rows produces
        identical probabilities.
        """
        if self._forest is None:
            raise ModelError("detector is not fitted; call fit() first")
        values = self._scaler.transform(np.asarray(values, dtype=float))
        return self._forest.predict_proba(values)[:, self._pos_col]

    def window_probabilities(self, record: EEGRecord) -> np.ndarray:
        """Per-window seizure probability over a record."""
        feats = extract_features(record, self.extractor, self.spec)
        return self.row_probabilities(feats.values)

    def window_predictions(self, record: EEGRecord) -> np.ndarray:
        """Binary per-window decisions (before alarm smoothing)."""
        return (self.window_probabilities(record) >= self.threshold).astype(np.int64)

    def detect(self, record: EEGRecord) -> list[DetectionEvent]:
        """Run detection and return debounced alarm events."""
        positive = self.window_predictions(record)
        events: list[DetectionEvent] = []
        run_start: int | None = None
        for i, flag in enumerate(np.append(positive, 0)):
            if flag and run_start is None:
                run_start = i
            elif not flag and run_start is not None:
                if i - run_start >= self.min_consecutive:
                    events.append(
                        DetectionEvent(
                            onset_s=run_start * self.spec.step_s,
                            offset_s=i * self.spec.step_s + self.spec.length_s,
                        )
                    )
                run_start = None
        return events

    def caught_seizure(self, record: EEGRecord, tolerance_s: float = 60.0) -> bool:
        """True if any alarm overlaps (within tolerance) a true seizure."""
        events = self.detect(record)
        for ann in record.annotations:
            for ev in events:
                if ev.onset_s < ann.offset_s + tolerance_s and ev.offset_s > (
                    ann.onset_s - tolerance_s
                ):
                    return True
        return False

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, record: EEGRecord) -> ClassificationReport:
        """Window-level sensitivity/specificity/gmean on an annotated
        record (the Sec. VI-B metrics)."""
        feats, labels = extract_labeled_features(record, self.extractor, self.spec)
        if self._forest is None:
            raise ModelError("detector is not fitted; call fit() first")
        values = self._scaler.transform(feats.values)
        proba = self._forest.predict_proba(values)[:, self._pos_col]
        pred = (proba >= self.threshold).astype(np.int64)
        return classification_report(labels, pred)


def _positive_column(forest: RandomForestClassifier) -> int:
    """Column of the seizure class ``1`` in ``forest.predict_proba``."""
    assert forest.classes_ is not None
    hits = np.flatnonzero(forest.classes_ == 1)
    if hits.size == 0:
        raise ModelError(
            f"forest classes {forest.classes_.tolist()} "
            f"lack the seizure class 1"
        )
    return int(hits[0])
