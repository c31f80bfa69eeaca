"""Algorithm 1: minimally-supervised a-posteriori seizure detection.

This module is the *reference* implementation — a direct transcription of
the paper's pseudo-code (Sec. IV) kept deliberately close to the printed
loops so it can be audited line-by-line.  The production-speed
implementation lives in :mod:`repro.core.fast` and is property-tested to
produce bit-identical distances.

Semantics (0-based translation of the pseudo-code):

* ``X`` is the z-score-normalized (L, F) feature array (Line 1).
* A window of ``W`` consecutive feature points slides with step 1 over
  positions ``i = 0 .. L - W - 1`` (Line 2; the pseudo-code's ``i = 1 ..
  L - W`` with a distance array of size L - W).
* For every point ``p`` inside the window, the absolute difference to
  every *fourth* point outside the window is accumulated per feature
  (Lines 3-9); the step of 4 skips the 75%-overlap redundancy.
* Each per-point sum is normalized by the constant ``(L - W) / 4``
  (Line 10) — note the pseudo-code uses this fixed normalizer, not the
  exact outside-grid count, and we preserve that faithfully.
* Per-window accumulation is normalized by ``W`` (Line 13) and collapsed
  across features by the Euclidean norm (Line 14).
* The window with maximum distance is declared the seizure (Line 16) and
  the label is the range ``[y, y + W]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import LabelingError, integer, matrix, positive

__all__ = ["DetectionResult", "a_posteriori_reference", "validate_inputs"]


@dataclass(frozen=True)
class DetectionResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    position:
        ``y`` — index of the maximum-distance window (feature index; with
        the paper's 1 s feature step this is also seconds).
    window_length:
        ``W`` used for the detection.
    distances:
        The full ``distance`` array (length L - W); useful for diagnosing
        near-misses and for the artifact failure mode.
    """

    position: int
    window_length: int
    distances: np.ndarray

    @property
    def label_range(self) -> tuple[int, int]:
        """The labeled seizure interval ``[y, y + W]`` in feature indices."""
        return self.position, self.position + self.window_length


def validate_inputs(
    features: np.ndarray, window_length: int, grid_step: int = 4
) -> np.ndarray:
    """Shared input validation for both implementations: a finite
    ``(L, F)`` matrix, an integer ``1 <= W < L`` and an integer
    ``grid_step >= 1`` that a float can hold (it divides ``L - W``)."""
    features = matrix(features, "features", LabelingError)
    length = features.shape[0]
    if integer(window_length, "window length W", LabelingError, 1) >= length:
        raise LabelingError(
            f"window length W={window_length} must be smaller than the "
            f"number of feature points L={length}"
        )
    positive(integer(grid_step, "grid_step", LabelingError, 1), "grid_step", LabelingError)
    return features


def _normalize(features: np.ndarray) -> np.ndarray:
    """Line 1 of Algorithm 1: per-feature z-score across the signal.

    Numerically-constant features are mapped to zero (they carry no
    distance information); the relative threshold guards against floating
    accumulation making a constant column's std a tiny nonzero value.
    """
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    constant = std <= 1e-12 * (np.abs(mean) + 1.0)
    safe = np.where(constant, 1.0, std)
    out = (features - mean) / safe
    out[:, constant] = 0.0
    return out


def a_posteriori_reference(
    features: np.ndarray,
    window_length: int,
    grid_step: int = 4,
    normalize: bool = True,
) -> DetectionResult:
    """Reference (pseudo-code-faithful) Algorithm 1.

    Parameters
    ----------
    features:
        ``X[L][F]`` feature array.
    window_length:
        ``W``, the patient's average seizure duration in feature steps.
    grid_step:
        The outside-point subsampling step (paper: 4, matching the 75%
        window overlap); exposed for the ablation bench.
    normalize:
        Apply Line 1's z-score (disable only when the caller already
        normalized, e.g. in equivalence tests).

    Notes
    -----
    Complexity is O(L^2 * W * F / grid_step) — the paper's O(L^2 W F).
    The inner-most loop over outside grid points is vectorized with numpy
    (a pure-Python transcription would be ~100x slower at identical
    semantics), but the window/point loops mirror the pseudo-code.
    """
    features = validate_inputs(features, window_length, grid_step)
    if normalize:
        features = _normalize(features)
    length, _ = features.shape
    w = window_length
    grid = np.arange(0, length, min(grid_step, length))  # [0] for any step >= L
    normalizer = (length - w) / grid_step  # > 0: W < L and grid_step >= 1

    distances = np.empty(length - w)
    for i in range(length - w):
        outside = grid[(grid < i) | (grid >= i + w)]
        outside_values = features[outside]  # (n_out, F)
        distance_vector = np.zeros(features.shape[1])
        for p in range(i, i + w):
            # Lines 5-10: |X[p] - X[k]| summed over outside grid points,
            # normalized by the constant (L - W) / grid_step.
            edge = np.abs(features[p][None, :] - outside_values).sum(axis=0)
            distance_vector += edge / normalizer
        distance_vector /= w
        distances[i] = np.linalg.norm(distance_vector)

    position = int(np.argmax(distances))
    return DetectionResult(
        position=position, window_length=w, distances=distances
    )
