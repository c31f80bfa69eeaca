"""The paper's deviation metric (Sec. V-C, Eqs. 1-2).

``delta`` is the average of the absolute onset and offset errors between
the a-posteriori label and the ground truth, in seconds — a combined
measure of distance and overlap (Fig. 3).  ``delta_norm`` maps it to
[0, 1] by dividing by the maximum achievable error ``N`` for that record:

``N = max(L - (ystart + yend) / 2, (ystart + yend) / 2)``

i.e. the distance from the true seizure's midpoint to the farther record
edge.
"""

from __future__ import annotations

from ..data.records import SeizureAnnotation
from ..exceptions import LabelingError, positive

__all__ = ["deviation", "max_deviation", "normalized_deviation"]


def deviation(truth: SeizureAnnotation, predicted: SeizureAnnotation) -> float:
    """Eq. 1: ``(|ystart - y'start| + |yend - y'end|) / 2`` in seconds."""
    return 0.5 * (
        abs(truth.onset_s - predicted.onset_s)
        + abs(truth.offset_s - predicted.offset_s)
    )


def max_deviation(truth: SeizureAnnotation, signal_length_s: float) -> float:
    """The normalizer ``N`` of Eq. 2: the worst possible deviation for a
    seizure centred at ``truth``'s midpoint in a record of the given
    length."""
    positive(signal_length_s, "signal_length_s", LabelingError)
    mid = truth.midpoint_s
    if mid > signal_length_s:
        raise LabelingError(
            f"seizure midpoint {mid:.1f}s beyond record end "
            f"{signal_length_s:.1f}s"
        )
    return max(signal_length_s - mid, mid)


def normalized_deviation(
    truth: SeizureAnnotation,
    predicted: SeizureAnnotation,
    signal_length_s: float,
) -> float:
    """Eq. 2: ``1 - delta / N``; 1.0 is a perfect label.

    The result lies in [0, 1] whenever both annotations lie inside the
    record, because ``delta`` cannot exceed ``N`` in that case.
    """
    n = max_deviation(truth, signal_length_s)
    value = 1.0 - deviation(truth, predicted) / n
    # Guard tiny negative excursions from floating arithmetic.
    return min(1.0, max(0.0, value))
