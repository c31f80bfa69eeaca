"""High-level a-posteriori labeling API (the paper's edge-side labeler).

:class:`APosterioriLabeler` wires the pieces of Secs. III-IV together:
extract the 10 selected features over 4 s / 1 s-step windows, z-score them
across the signal, run Algorithm 1 with ``W`` equal to the patient's
average seizure duration, and map the winning window back to record time
as an ``"algorithm"``-sourced annotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.records import EEGRecord, SeizureAnnotation
from ..exceptions import LabelingError
from ..features.base import FeatureExtractor, FeatureMatrix
from ..features.extraction import extract_features
from ..features.paper10 import Paper10FeatureExtractor
from ..signals.windowing import WindowSpec
from .algorithm import DetectionResult
from .fast import a_posteriori_fast

__all__ = ["LabelingResult", "APosterioriLabeler"]


@dataclass(frozen=True)
class LabelingResult:
    """Everything the labeler knows about one detection.

    Attributes
    ----------
    annotation:
        The produced seizure label, in record seconds, tagged
        ``source="algorithm"``.
    detection:
        Raw Algorithm 1 output (position + full distance curve).
    features:
        The feature matrix the decision was made on (useful for plots and
        failure analysis).
    """

    annotation: SeizureAnnotation
    detection: DetectionResult
    features: FeatureMatrix


class APosterioriLabeler:
    """Minimally-supervised seizure labeler (Secs. III-B and IV).

    Parameters
    ----------
    extractor:
        Feature definition; defaults to the paper's 10 features.
    spec:
        Window geometry; defaults to 4 s windows, 1 s step, making feature
        indices equal to seconds.
    grid_step:
        Outside-point subsampling (paper: 4).
    """

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        spec: WindowSpec | None = None,
        grid_step: int = 4,
    ) -> None:
        self.extractor = extractor or Paper10FeatureExtractor()
        self.spec = spec or WindowSpec(length_s=4.0, step_s=1.0)
        self.grid_step = grid_step

    # ------------------------------------------------------------------
    def window_length_for(self, avg_seizure_duration_s: float) -> int:
        """Convert the expert prior (mean seizure duration, seconds) to
        Algorithm 1's ``W`` in feature steps."""
        if avg_seizure_duration_s <= 0:
            raise LabelingError(
                f"average seizure duration must be positive, got "
                f"{avg_seizure_duration_s}"
            )
        w = int(round(avg_seizure_duration_s / self.spec.step_s))
        return max(w, 1)

    def label_features(
        self, features: np.ndarray, window_length: int
    ) -> DetectionResult:
        """Run Algorithm 1 directly on an (L, F) array."""
        return a_posteriori_fast(features, window_length, grid_step=self.grid_step)

    def label_matrix(
        self,
        feats: FeatureMatrix,
        avg_seizure_duration_s: float,
        duration_s: float,
    ) -> LabelingResult:
        """Label from a precomputed feature matrix.

        The single code path behind both :meth:`label` and the cohort
        engine (which extracts features chunked/cached and must produce
        results identical to the sequential pipeline).

        Parameters
        ----------
        feats:
            The record's full sliding-window feature matrix.
        avg_seizure_duration_s:
            The expert prior (Algorithm 1's ``W``).
        duration_s:
            Record duration, used to clip the label's right edge.
        """
        w = self.window_length_for(avg_seizure_duration_s)
        if w >= feats.n_windows:
            raise LabelingError(
                f"record yields only {feats.n_windows} feature points; "
                f"cannot search for a {w}-step seizure window"
            )
        detection = self.label_features(feats.values, w)

        onset_s = detection.position * self.spec.step_s
        offset_s = (detection.position + w) * self.spec.step_s
        # Clip the right edge to the record (the window can touch the end).
        offset_s = min(offset_s, duration_s)
        annotation = SeizureAnnotation(
            onset_s=onset_s, offset_s=offset_s, source="algorithm"
        )
        return LabelingResult(
            annotation=annotation, detection=detection, features=feats
        )

    def label(
        self,
        record: EEGRecord,
        avg_seizure_duration_s: float,
    ) -> LabelingResult:
        """Locate and label the seizure in ``record``.

        The record is the "last hour" of signal the patient flagged
        (Fig. 1); the only supervision consumed is the average seizure
        duration provided once by a clinician.
        """
        feats = extract_features(record, self.extractor, self.spec)
        return self.label_matrix(feats, avg_seizure_duration_s, record.duration_s)
