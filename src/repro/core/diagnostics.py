"""Label-quality diagnostics and multi-seizure extensions of Algorithm 1.

Two natural extensions the paper leaves open:

* **Confidence.**  Algorithm 1 returns an argmax but no measure of how
  decisive the detection was.  :func:`label_confidence` scores a
  detection by the margin between the winning window and the best
  *non-overlapping* competitor (normalized), which separates clean
  detections from the artifact-shadowed failures of Table II: stolen
  labels come with a near-1 competitor, i.e. low confidence.  The
  self-learning pipeline can use this to quarantine dubious self-labels
  instead of training on them.

* **Multiple seizures.**  The paper assumes exactly one seizure in the
  patient-flagged hour.  :func:`top_k_detections` generalizes the argmax
  to the ``k`` best non-overlapping windows (greedy non-maximum
  suppression over the distance curve), supporting clusters of seizures
  in one lookback window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import LabelingError, integer
from .algorithm import DetectionResult

__all__ = ["LabelDiagnostics", "label_confidence", "top_k_detections"]


@dataclass(frozen=True)
class LabelDiagnostics:
    """Diagnostic summary of one detection.

    Attributes
    ----------
    confidence:
        ``1 - d2/d1`` where ``d1`` is the winning distance and ``d2`` the
        best distance at least one window length away; in [0, 1], higher
        is more decisive.
    peak_distance:
        The winning window's distance value.
    runner_up_distance:
        The best non-overlapping competitor's distance (0 when no
        non-overlapping window exists).
    runner_up_position:
        Its window index (-1 when absent).
    snr:
        Peak distance over the median of the distance curve — a scale-free
        measure of how much the detection pops out of the background.
    """

    confidence: float
    peak_distance: float
    runner_up_distance: float
    runner_up_position: int
    snr: float


def label_confidence(result: DetectionResult) -> LabelDiagnostics:
    """Score how decisive a :class:`DetectionResult` is."""
    distances = np.asarray(result.distances, dtype=float)
    if distances.size == 0:
        raise LabelingError("empty distance curve")
    w = result.window_length
    pos = result.position
    peak = float(distances[pos])

    mask = np.ones(distances.size, dtype=bool)
    lo = max(0, pos - w)
    hi = min(distances.size, pos + w + 1)
    mask[lo:hi] = False
    if mask.any():
        runner_idx = int(np.argmax(np.where(mask, distances, -np.inf)))
        runner = float(distances[runner_idx])
    else:
        runner_idx, runner = -1, 0.0

    confidence = 1.0 - (runner / peak) if peak > 0 else 0.0
    confidence = float(min(1.0, max(0.0, confidence)))
    median = float(np.median(distances))
    snr = peak / median if median > 0 else float("inf")
    return LabelDiagnostics(
        confidence=confidence,
        peak_distance=peak,
        runner_up_distance=runner,
        runner_up_position=runner_idx,
        snr=snr,
    )


def top_k_detections(result: DetectionResult, k: int) -> list[int]:
    """The ``k`` best mutually non-overlapping window positions.

    Greedy non-maximum suppression: repeatedly take the best remaining
    window and suppress every window within one window length of it.
    Returns positions in decreasing distance order; fewer than ``k`` are
    returned when the curve cannot host ``k`` disjoint windows.
    """
    integer(k, "k", LabelingError, 1)
    distances = np.asarray(result.distances, dtype=float).copy()
    w = result.window_length
    picks: list[int] = []
    for _ in range(k):
        if not np.isfinite(distances).any() or np.all(np.isneginf(distances)):
            break
        pos = int(np.argmax(distances))
        if np.isneginf(distances[pos]):
            break
        picks.append(pos)
        lo = max(0, pos - w)
        hi = min(distances.size, pos + w + 1)
        distances[lo:hi] = -np.inf
    return picks
