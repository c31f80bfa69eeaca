"""DWT subband access and subband statistics.

The paper computes entropy features "at level k" of the db4 decomposition
(Sec. III-A): permutation entropy of the level-6/7 coefficients, Rényi
entropy at level 3, sample entropy at level 6.  This module provides the
subband splitter those features share, plus per-level statistical features
used by the e-Glass real-time detector family.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import FeatureError, SignalError, integer
from ..signals.wavelet import wavedec

__all__ = ["dwt_details", "subband_energy", "subband_stats"]


def dwt_details(
    x: np.ndarray, level: int = 7, wavelet: int = 4
) -> dict[int, np.ndarray]:
    """Decompose ``x`` and return detail coefficients keyed by level.

    Returns ``{1: d1, ..., level: d_level}``; level k details of a 256 Hz
    signal cover roughly the ``[256/2^(k+1), 256/2^k]`` Hz band, so level 7
    sits in the low-delta range where ictal rhythms concentrate.
    """
    integer(level, "level", FeatureError, 1)
    try:
        coeffs = wavedec(np.asarray(x, dtype=float), level, wavelet)
    except SignalError as exc:
        # A window too short (or otherwise unusable) for the requested
        # decomposition depth is a *feature* failure from the extractor's
        # point of view: batch, streaming and kernel paths must all raise
        # FeatureError for it, not leak the signal-layer type.
        raise FeatureError(str(exc)) from exc
    # wavedec layout: [a_L, d_L, d_{L-1}, ..., d_1]
    details = {}
    for i, det in enumerate(coeffs[1:]):
        details[level - i] = det
    return details


def subband_energy(details: dict[int, np.ndarray]) -> dict[int, float]:
    """Energy (sum of squares) of each detail subband."""
    return {lvl: float((c**2).sum()) for lvl, c in details.items()}


def subband_stats(coeffs: np.ndarray) -> tuple[float, float, float]:
    """(mean absolute value, standard deviation, energy) of one subband —
    the standard DWT feature triple in wearable seizure detectors."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        raise FeatureError("empty subband")
    return (
        float(np.mean(np.abs(coeffs))),
        float(np.std(coeffs)),
        float((coeffs**2).sum()),
    )
