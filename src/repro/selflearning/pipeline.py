"""The closed self-learning loop (Fig. 1 and Sec. III).

:class:`SelfLearningPipeline` simulates the paper's deployment scenario on
recorded (or synthetic) data:

1. a monitoring record arrives (hours of EEG containing seizures);
2. the current real-time detector — possibly untrained at cold start —
   scans it; detected seizures raise alerts and produce no learning;
3. every *missed* seizure triggers the a-posteriori labeler on the last
   hour of signal (the patient's button press), yielding an
   ``"algorithm"``-sourced annotation;
4. self-labels accumulate in a training buffer; once at least
   ``min_train_seizures`` labels exist, the detector is (re)trained on the
   balanced window set built from them;
5. over successive missed seizures the detector becomes "more robust"
   (the paper's claim), which the pipeline exposes as a learning curve.

The simulator knows the ground truth only to decide *whether the detector
missed* — exactly the information the real patient's button press conveys.
Ground-truth onset/offset never reach the training path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.diagnostics import label_confidence
from ..core.labeling import APosterioriLabeler, LabelingResult
from ..data.records import EEGRecord, SeizureAnnotation
from ..exceptions import ModelError
from ..ml.validation import build_balanced_training_set
from .detector import RealTimeDetector
from .events import EventKind, PatientTrigger, TimelineEvent

__all__ = ["AnnotationAssessment", "SelfLearningReport", "SelfLearningPipeline"]


@dataclass
class SelfLearningReport:
    """Outcome of processing one monitoring record."""

    n_seizures: int = 0
    n_detected: int = 0
    n_missed: int = 0
    n_self_labels: int = 0
    retrained: bool = False
    events: list[TimelineEvent] = field(default_factory=list)

    @property
    def detection_rate(self) -> float:
        return self.n_detected / self.n_seizures if self.n_seizures else 0.0


@dataclass(frozen=True)
class AnnotationAssessment:
    """One seizure's evaluation against the *frozen* detector state.

    This is the read-only half of :meth:`observe_record`: given a fixed
    detector, assessing each annotation (did the detector catch it? if
    not, where does the a-posteriori labeler place it?) is a pure,
    independent computation.  State mutation (buffer, retraining, event
    log) happens afterwards, in annotation order, in
    :meth:`apply_assessments`.
    """

    annotation: SeizureAnnotation
    caught: bool
    trigger: PatientTrigger | None = None
    #: Start (record seconds) of the cropped lookback segment the
    #: labeler examined; shifts the self-label back into record time.
    crop_start_s: float = 0.0
    result: LabelingResult | None = None
    #: Detection confidence, computed only when the quality gate is on.
    confidence: float | None = None


class SelfLearningPipeline:
    """Orchestrates labeler + detector + training buffer.

    Parameters
    ----------
    labeler:
        The a-posteriori labeler (paper's Algorithm 1 behind the scenes).
    detector:
        The supervised real-time detector to self-train.
    avg_seizure_duration_s:
        The single expert prior the methodology consumes.
    seizure_free_pool:
        Interictal records used as the negative half of the balanced
        training sets.
    min_train_seizures:
        Self-labels required before the first training (paper's validation
        uses 2-5 seizures).
    lookback_s:
        The patient-trigger search horizon (paper: one hour).
    min_confidence:
        Optional quality gate (an extension over the paper): self-labels
        whose detection confidence — the normalized margin over the best
        non-overlapping competitor window — falls below this threshold are
        discarded instead of entering the training buffer.  Quarantines
        the artifact-stolen labels behind Table II's outliers.
    """

    def __init__(
        self,
        labeler: APosterioriLabeler,
        detector: RealTimeDetector,
        avg_seizure_duration_s: float,
        seizure_free_pool: list[EEGRecord],
        min_train_seizures: int = 2,
        lookback_s: float = 3600.0,
        min_confidence: float = 0.0,
    ) -> None:
        if avg_seizure_duration_s <= 0:
            raise ModelError("average seizure duration must be positive")
        if min_train_seizures < 1:
            raise ModelError("min_train_seizures must be >= 1")
        if not seizure_free_pool:
            raise ModelError("need at least one seizure-free record for negatives")
        self.labeler = labeler
        self.detector = detector
        self.avg_seizure_duration_s = avg_seizure_duration_s
        self.seizure_free_pool = list(seizure_free_pool)
        if not 0.0 <= min_confidence < 1.0:
            raise ModelError(
                f"min_confidence must be in [0, 1), got {min_confidence}"
            )
        self.min_train_seizures = min_train_seizures
        self.lookback_s = lookback_s
        self.min_confidence = min_confidence
        self.n_rejected_labels = 0
        #: (record, self-annotation) pairs accumulated across records.
        self.training_buffer: list[tuple[EEGRecord, SeizureAnnotation]] = []
        self.history: list[TimelineEvent] = []
        self.n_retrainings = 0

    # ------------------------------------------------------------------
    def observe_record(self, record: EEGRecord) -> SelfLearningReport:
        """Process one monitoring record through the closed loop.

        ``record.annotations`` serve only as the oracle for "did the
        patient have a seizure the detector did not alert on".

        Internally this is assess-then-apply: every annotation is first
        evaluated against the frozen detector (:meth:`assess_annotation`),
        then the assessments mutate pipeline state in canonical order
        (:meth:`apply_assessments`).  Records must be observed one after
        another: each sees the detector its predecessors trained.
        """
        assessments = [
            self.assess_annotation(record, ann) for ann in record.annotations
        ]
        return self.apply_assessments(record, assessments)

    def assess_annotation(
        self, record: EEGRecord, ann: SeizureAnnotation
    ) -> AnnotationAssessment:
        """Evaluate one seizure against the current detector — pure.

        Reads detector/labeler state but never writes it, so any number
        of assessments of the same record may run concurrently between
        retrainings.
        """
        if self._detector_catches(record, ann):
            return AnnotationAssessment(annotation=ann, caught=True)
        # The patient recovers within the lookback hour; cap the modeled
        # recovery delay so the whole seizure stays inside the search
        # window (press - lookback must precede the seizure onset).
        max_recovery = max(
            0.0, self.lookback_s - ann.duration_s - 2.0 * self.labeler.spec.length_s
        )
        recovery_s = min(
            0.45 * self.lookback_s,
            max_recovery,
            max(0.0, record.duration_s - ann.offset_s - 1.0),
        )
        trigger = PatientTrigger.after_seizure(
            ann, recovery_s=recovery_s, lookback_s=self.lookback_s
        )
        t0, t1 = trigger.search_interval(record.duration_s)
        segment = record.crop(t0, t1)
        result = self.labeler.label(segment, self.avg_seizure_duration_s)
        confidence = (
            label_confidence(result.detection).confidence
            if self.min_confidence > 0.0
            else None
        )
        return AnnotationAssessment(
            annotation=ann,
            caught=False,
            trigger=trigger,
            crop_start_s=t0,
            result=result,
            confidence=confidence,
        )

    def apply_assessments(
        self, record: EEGRecord, assessments: list[AnnotationAssessment]
    ) -> SelfLearningReport:
        """Fold assessments into pipeline state, in annotation order.

        The serial half of the loop: event log, training buffer and
        retraining all happen here, exactly as the pre-refactor
        ``observe_record`` did them.
        """
        report = SelfLearningReport(n_seizures=len(assessments))
        for assessment in assessments:
            ann = assessment.annotation
            report.events.append(
                TimelineEvent(EventKind.SEIZURE_OCCURRED, ann.onset_s)
            )
            if assessment.caught:
                report.n_detected += 1
                report.events.append(
                    TimelineEvent(EventKind.SEIZURE_DETECTED, ann.onset_s)
                )
                continue
            report.n_missed += 1
            report.events.append(
                TimelineEvent(EventKind.SEIZURE_MISSED, ann.onset_s)
            )
            self._absorb_assessment(record, assessment, report)

        if (
            len(self.training_buffer) >= self.min_train_seizures
            and report.n_self_labels > 0
        ):
            self._retrain()
            report.retrained = True
            report.events.append(
                TimelineEvent(
                    EventKind.DETECTOR_RETRAINED,
                    record.duration_s,
                    detail=f"buffer={len(self.training_buffer)}",
                )
            )
        self.history.extend(report.events)
        return report

    # ------------------------------------------------------------------
    def _detector_catches(self, record: EEGRecord, ann: SeizureAnnotation) -> bool:
        """Would the current detector alert on this seizure?"""
        if not self.detector.is_fitted:
            return False  # cold start: everything is missed
        # Evaluate on a window around the seizure, as the deployed device
        # would while the seizure unfolds.
        t0 = max(0.0, ann.onset_s - 120.0)
        t1 = min(record.duration_s, ann.offset_s + 120.0)
        segment = record.crop(t0, t1)
        return self.detector.caught_seizure(segment)

    def _absorb_assessment(
        self,
        record: EEGRecord,
        assessment: AnnotationAssessment,
        report: SelfLearningReport,
    ) -> None:
        """Patient trigger -> a-posteriori label -> buffer."""
        trigger = assessment.trigger
        result = assessment.result
        t0 = assessment.crop_start_s
        assert trigger is not None and result is not None
        report.events.append(
            TimelineEvent(EventKind.PATIENT_TRIGGER, trigger.press_time_s)
        )
        if assessment.confidence is not None:
            if assessment.confidence < self.min_confidence:
                self.n_rejected_labels += 1
                report.events.append(
                    TimelineEvent(
                        EventKind.SELF_LABEL_ADDED,
                        result.annotation.onset_s + t0,
                        detail=(
                            f"REJECTED (confidence "
                            f"{assessment.confidence:.2f})"
                        ),
                    )
                )
                return
        self_label = result.annotation.shifted(t0)
        labeled = EEGRecord(
            data=record.data,
            fs=record.fs,
            channel_names=record.channel_names,
            annotations=[
                SeizureAnnotation(
                    onset_s=self_label.onset_s,
                    offset_s=min(self_label.offset_s, record.duration_s),
                    source="algorithm",
                )
            ],
            patient_id=record.patient_id,
            record_id=record.record_id,
        )
        self.training_buffer.append((labeled, labeled.annotations[0]))
        report.n_self_labels += 1
        report.events.append(
            TimelineEvent(
                EventKind.SELF_LABEL_ADDED,
                self_label.onset_s,
                detail=f"[{self_label.onset_s:.0f}, {self_label.offset_s:.0f}]s",
            )
        )

    def _retrain(self) -> None:
        records = [rec for rec, _ in self.training_buffer]
        training = build_balanced_training_set(
            seizure_records=records,
            seizure_free_records=self.seizure_free_pool,
            extractor=self.detector.extractor,
            spec=self.detector.spec,
            label_source="algorithm",
            seed=self.n_retrainings,
        )
        self.detector.fit(training)
        self.n_retrainings += 1

    # ------------------------------------------------------------------
    @property
    def n_self_labels(self) -> int:
        return len(self.training_buffer)
