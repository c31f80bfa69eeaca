"""Shannon and spectral entropy estimators.

Members of the e-Glass 54-feature family (Sec. III-C): Shannon entropy of
the amplitude distribution and entropy of the normalized power spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import SignalError
from ..signals.spectral import welch_psd

__all__ = ["shannon_entropy", "spectral_entropy"]


def binnable(x: np.ndarray, bins: int) -> bool:
    """Whether the range of non-empty ``x`` cuts into ``bins`` equal-width
    bins of nonzero width.

    False for a constant series, and for a spread so small (subnormal)
    that neighbouring edges coincide, where ``np.histogram`` raises.
    Neither carries amplitude information.
    """
    edges = np.linspace(x.min(), x.max(), bins + 1)
    return bool(np.all(edges[:-1] < edges[1:]))


def shannon_entropy(x: np.ndarray, bins: int = 16, normalize: bool = False) -> float:
    """Shannon entropy (bits) of the histogram distribution of ``x``.

    Empty, constant or subnormal-spread series (see :func:`binnable`)
    return 0.0; ``normalize`` maps to [0, 1] by dividing by
    ``log2(bins)``.
    """
    if bins < 2:
        raise SignalError(f"need at least 2 histogram bins, got {bins}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise SignalError(f"expected 1-D series, got shape {x.shape}")
    if x.size == 0 or not binnable(x, bins):
        return 0.0
    counts, _ = np.histogram(x, bins=bins)
    p = counts[counts > 0] / x.size
    h = float(-(p * np.log2(p)).sum())
    if normalize:
        h /= math.log2(bins)
    return h


def spectral_entropy(
    x: np.ndarray, fs: float, normalize: bool = True
) -> float:
    """Entropy of the normalized Welch power spectrum of ``x``.

    A flat (white) spectrum gives 1.0 when normalized; a pure tone gives a
    value near 0.  Ictal EEG concentrates power in a narrow rhythmic band,
    lowering this feature — which is why it belongs to the detector's
    feature family.
    """
    freqs, psd = welch_psd(np.asarray(x, dtype=float), fs, nperseg=min(len(x), 256))
    total = psd.sum()
    if total <= 0.0:
        return 0.0
    p = psd[psd > 0] / total
    h = float(-(p * np.log2(p)).sum())
    if normalize:
        h /= math.log2(psd.size)
    return h
