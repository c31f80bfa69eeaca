"""Permutation entropy (Bandt & Pompe, Phys. Rev. Lett. 2002).

The paper's selected features include "seventh level permutation entropy
for n = 5 and n = 7 and sixth level permutation entropy for n = 7"
(Sec. III-A) — i.e. permutation entropy of orders 5 and 7 computed on DWT
subband coefficients.  At level 7 a 4-second 256 Hz window yields only 8
coefficients, so the implementation must behave sensibly for series barely
longer than the embedding order; short series are handled explicitly rather
than erroring out mid-pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import SignalError

__all__ = ["lehmer_codes", "ordinal_patterns", "permutation_entropy"]


def lehmer_codes(ranks: np.ndarray) -> np.ndarray:
    """Factorial-number-system rank of each permutation (row) of ``ranks``.

    ``ranks`` holds one permutation of ``0..order-1`` per row; the result is
    the lexicographic rank in ``[0, order!)``: digit ``j`` counts the later
    ranks below rank ``j`` and weighs ``(order - 1 - j)!``.  This is the
    per-window encoder; the vectorized kernel computes the same digits by
    comparing the samples directly (see :mod:`repro.kernels.vectorized`).
    """
    n_vec, order = ranks.shape
    codes = np.zeros(n_vec, dtype=np.int64)
    for j in range(order - 1):
        smaller_to_right = np.sum(ranks[:, j : j + 1] > ranks[:, j + 1 :], axis=1)
        codes = codes * (order - j) + smaller_to_right
    return codes


def ordinal_patterns(x: np.ndarray, order: int, delay: int = 1) -> np.ndarray:
    """Return the ordinal pattern index of every embedded vector.

    Each length-``order`` subsequence ``x[t], x[t+delay], ...`` is mapped to
    the lexicographic rank of its argsort permutation, an integer in
    ``[0, order!)``.  Ties are broken by temporal order (stable argsort),
    the standard Bandt-Pompe convention.  inf is an ordinary (extreme)
    value; a series containing NaN has no defined order and raises
    :class:`~repro.exceptions.SignalError`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise SignalError(f"expected 1-D series, got shape {x.shape}")
    if order < 2:
        raise SignalError(f"permutation order must be >= 2, got {order}")
    if delay < 1:
        raise SignalError(f"delay must be >= 1, got {delay}")
    if np.isnan(x).any():
        raise SignalError("ordinal patterns are undefined for NaN samples")
    n_vec = x.size - (order - 1) * delay
    if n_vec < 1:
        return np.empty(0, dtype=np.int64)
    # Embedding matrix: rows are delayed vectors.
    idx = np.arange(n_vec)[:, None] + delay * np.arange(order)[None, :]
    emb = x[idx]
    ranks = np.argsort(np.argsort(emb, axis=1, kind="stable"), axis=1, kind="stable")
    # Encode each permutation by its Lehmer code (factorial-base rank).
    return lehmer_codes(ranks)


def permutation_entropy(
    x: np.ndarray,
    order: int = 5,
    delay: int = 1,
    normalize: bool = True,
) -> float:
    """Permutation entropy of a 1-D series.

    Parameters
    ----------
    x:
        Input series (e.g. DWT detail coefficients of one window).
    order:
        Embedding dimension ``n`` (paper uses 5 and 7).
    delay:
        Embedding delay (paper: 1).
    normalize:
        Divide by ``log2(order!)`` so the result lies in [0, 1].

    Returns
    -------
    float
        Entropy in bits (or normalized).  Series shorter than
        ``(order - 1) * delay + 1`` carry no ordinal information and return
        0.0 — this happens by design for deep DWT levels of short windows
        and must not abort feature extraction.

    Raises
    ------
    SignalError
        If ``x`` contains NaN (see :func:`ordinal_patterns`).
    """
    codes = ordinal_patterns(x, order, delay)
    if codes.size == 0:
        return 0.0
    _, counts = np.unique(codes, return_counts=True)
    p = counts / counts.sum()
    h = float(-(p * np.log2(p)).sum())
    if normalize:
        h /= math.log2(math.factorial(order))
    return h
