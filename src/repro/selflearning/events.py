"""Timeline events of the self-learning scenario (Fig. 1).

The closed loop revolves around a small vocabulary of events: a seizure
occurs; the real-time detector either catches it (alert sent, no learning
needed) or misses it; after a missed seizure the patient recovers within
an hour and presses the button; the labeler runs on the last hour of
signal and appends a self-label to the training buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..data.records import SeizureAnnotation
from ..exceptions import DataError, at_least, positive

__all__ = ["EventKind", "TimelineEvent", "PatientTrigger"]


class EventKind(Enum):
    """What happened at a point of the monitoring timeline."""

    SEIZURE_OCCURRED = "seizure_occurred"
    SEIZURE_DETECTED = "seizure_detected"
    SEIZURE_MISSED = "seizure_missed"
    PATIENT_TRIGGER = "patient_trigger"
    SELF_LABEL_ADDED = "self_label_added"
    DETECTOR_RETRAINED = "detector_retrained"


@dataclass(frozen=True)
class TimelineEvent:
    """One entry of the self-learning audit log."""

    kind: EventKind
    time_s: float
    detail: str = ""

    def __post_init__(self) -> None:
        at_least(self.time_s, "time_s", DataError, 0)


@dataclass(frozen=True)
class PatientTrigger:
    """The patient's button press: "a seizure occurred in the last hour".

    Attributes
    ----------
    press_time_s:
        When the button was pressed, in record time (finite, >= 0).
    lookback_s:
        How far back the labeler searches (paper: one hour — patients
        recover from post-ictal impaired consciousness within an hour);
        finite and positive.
    """

    press_time_s: float
    lookback_s: float = 3600.0

    def __post_init__(self) -> None:
        at_least(self.press_time_s, "press_time_s", DataError, 0)
        positive(self.lookback_s, "lookback_s", DataError)

    def search_interval(self, record_duration_s: float) -> tuple[float, float]:
        """The [t0, t1) slice of the record the labeler should examine."""
        t1 = min(self.press_time_s, record_duration_s)
        t0 = max(0.0, t1 - self.lookback_s)
        if t1 <= t0:
            raise DataError(
                f"empty search interval for press at {self.press_time_s:.0f}s"
            )
        return t0, t1

    @staticmethod
    def after_seizure(
        ann: SeizureAnnotation,
        recovery_s: float = 1800.0,
        lookback_s: float = 3600.0,
    ) -> "PatientTrigger":
        """Model the paper's recovery behaviour: the patient presses the
        button ``recovery_s`` after seizure offset (within the hour)."""
        if at_least(recovery_s, "recovery_s", DataError, 0) >= lookback_s:
            raise DataError("recovery must be shorter than the lookback")
        return PatientTrigger(
            press_time_s=ann.offset_s + recovery_s, lookback_s=lookback_s
        )
