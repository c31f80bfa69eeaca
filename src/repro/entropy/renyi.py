"""Rényi entropy of a sampled amplitude distribution.

The paper's features include the "third level Renyi entropy" (Sec. III-A):
Rényi entropy of the level-3 DWT coefficients.  We estimate the amplitude
distribution with a fixed-count histogram, the standard plug-in estimator
for subband entropies in EEG work.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import SignalError, integer, positive
from .shannon import binnable

__all__ = ["renyi_entropy"]


def renyi_entropy(
    x: np.ndarray,
    alpha: float = 2.0,
    bins: int = 16,
    normalize: bool = False,
) -> float:
    """Rényi entropy of order ``alpha`` of the value distribution of ``x``.

    Parameters
    ----------
    x:
        Input series (e.g. DWT level-3 coefficients of one window).
    alpha:
        Entropy order; ``alpha -> 1`` recovers Shannon entropy, which is
        used as the limit case here.  Must be finite and positive; the
        estimator is undefined for ``alpha == 1`` only formally — we
        dispatch to the Shannon formula there.
    bins:
        Number of equal-width histogram bins over the data range, an
        integer >= 2.
    normalize:
        Divide by ``log2(bins)`` to map into [0, 1].

    Returns
    -------
    float
        Entropy in bits.  Empty, constant or subnormal-spread series
        (see :func:`~repro.entropy.shannon.binnable`) carry no amplitude
        information and return 0.0.
    """
    positive(alpha, "alpha", SignalError)
    integer(bins, "bins", SignalError, 2)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise SignalError(f"expected 1-D series, got shape {x.shape}")
    if x.size == 0 or not binnable(x, bins):
        return 0.0
    counts, _ = np.histogram(x, bins=bins)
    p = counts[counts > 0] / x.size
    if abs(alpha - 1.0) < 1e-12:
        h = float(-(p * np.log2(p)).sum())
    else:
        h = float(np.log2((p**alpha).sum()) / (1.0 - alpha))
    if normalize:
        h /= math.log2(bins)
    return h
