"""The paper's aggregation protocol for the labeling evaluation (Sec. VI-A).

"We firstly calculate the mean of the non-normalized metric and the
geometric mean of the normalized metric (which is the only correct average
of normalized values), across the 100 samples of each seizure.  Next, we
extract the median values across the seizures of each patient ...
Finally, we calculate the total classification performance as the median
across all seizures."

So: per-seizure (arithmetic mean delta, geometric mean delta_norm) ->
per-patient medians (Table I) -> cohort medians across all 45 seizures
(the headline delta = 10.1 s / delta_norm = 0.9935).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import LabelingError, integer, positive

__all__ = [
    "geometric_mean",
    "SeizureScore",
    "PatientScore",
    "CohortScore",
    "score_seizure",
    "aggregate_cohort",
    "fraction_within",
]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of nonnegative values; zeros propagate to 0.0."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise LabelingError("geometric mean of an empty sequence")
    if np.any(arr < 0):
        raise LabelingError("geometric mean requires nonnegative values")
    if np.any(arr == 0):
        return 0.0
    return float(np.exp(np.mean(np.log(arr))))


@dataclass(frozen=True)
class SeizureScore:
    """Per-seizure aggregate over its evaluation samples."""

    patient_id: int
    seizure_index: int
    mean_delta_s: float
    geomean_delta_norm: float
    n_samples: int


@dataclass(frozen=True)
class PatientScore:
    """Per-patient medians across its seizures (one Table I column)."""

    patient_id: int
    median_delta_s: float
    median_delta_norm: float
    seizures: tuple[SeizureScore, ...]


@dataclass(frozen=True)
class CohortScore:
    """Cohort-level summary: the headline numbers plus the full breakdown."""

    median_delta_s: float
    median_delta_norm: float
    patients: tuple[PatientScore, ...] = field(repr=False)

    def patient(self, patient_id: int) -> PatientScore:
        for p in self.patients:
            if p.patient_id == patient_id:
                return p
        raise LabelingError(f"no patient {patient_id} in cohort score")

    def all_seizures(self) -> tuple[SeizureScore, ...]:
        return tuple(s for p in self.patients for s in p.seizures)


def score_seizure(
    patient_id: int,
    seizure_index: int,
    deltas_s: Sequence[float],
    delta_norms: Sequence[float],
) -> SeizureScore:
    """Aggregate one seizure's samples: mean delta, geomean delta_norm.
    ``patient_id`` is an integer >= 1, ``seizure_index`` one >= 0."""
    integer(patient_id, "patient_id", LabelingError, 1)
    integer(seizure_index, "seizure_index", LabelingError)
    if len(deltas_s) == 0 or len(deltas_s) != len(delta_norms):
        raise LabelingError(
            f"need equal nonzero sample counts, got {len(deltas_s)} / "
            f"{len(delta_norms)}"
        )
    return SeizureScore(
        patient_id=patient_id,
        seizure_index=seizure_index,
        mean_delta_s=float(np.mean(deltas_s)),
        geomean_delta_norm=geometric_mean(delta_norms),
        n_samples=len(deltas_s),
    )


def aggregate_cohort(
    seizure_scores: Iterable[SeizureScore],
) -> CohortScore:
    """Roll per-seizure scores up to Table I and the headline medians."""
    by_patient: dict[int, list[SeizureScore]] = {}
    for score in seizure_scores:
        by_patient.setdefault(score.patient_id, []).append(score)
    if not by_patient:
        raise LabelingError("no seizure scores to aggregate")

    patients = []
    for pid in sorted(by_patient):
        scores = sorted(by_patient[pid], key=lambda s: s.seizure_index)
        patients.append(
            PatientScore(
                patient_id=pid,
                median_delta_s=float(np.median([s.mean_delta_s for s in scores])),
                median_delta_norm=float(
                    np.median([s.geomean_delta_norm for s in scores])
                ),
                seizures=tuple(scores),
            )
        )

    all_scores = [s for p in patients for s in p.seizures]
    return CohortScore(
        median_delta_s=float(np.median([s.mean_delta_s for s in all_scores])),
        median_delta_norm=float(
            np.median([s.geomean_delta_norm for s in all_scores])
        ),
        patients=tuple(patients),
    )


def fraction_within(
    seizure_scores: Iterable[SeizureScore],
    threshold_s: float,
) -> float:
    """Fraction of seizures whose mean delta is within ``threshold_s``.

    Reproduces Sec. VI-A's "73.3% of the seizures are detected within 15
    seconds, 86.7% within 30 seconds and 93.3% within one minute".
    ``threshold_s`` is finite and positive.
    """
    positive(threshold_s, "threshold_s", LabelingError)
    scores = list(seizure_scores)
    if not scores:
        raise LabelingError("no seizure scores given")
    hits = sum(1 for s in scores if s.mean_delta_s <= threshold_s)
    return hits / len(scores)
