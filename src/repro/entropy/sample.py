"""Sample entropy and approximate entropy (Chen, Solomon & Chon, EMBC 2005).

The paper's feature set includes "sixth level sample entropy for k = 0.2
and k = 0.35" (Sec. III-A): sample entropy of the level-6 DWT coefficients
with tolerance ``r = k * std``.  On 4-second windows those subbands contain
only ~16 coefficients, so the estimators must degrade gracefully when no
template matches exist (the textbook definition would be ``log(0)``).
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import SignalError, at_least, integer

__all__ = [
    "embedding_indices",
    "sample_entropy",
    "approximate_entropy",
    "tolerance_std",
]


def tolerance_std(x: np.ndarray) -> np.ndarray:
    """``np.std(x, axis=-1)``, the ``k * std`` tolerance base, without
    overflow.

    A finite row whose squared deviations overflow (samples near
    +-1e300) has an infinite ``np.std``.  Such a row is scaled by the
    power of two that brings its largest magnitude into [0.5, 1), its
    std taken there and scaled back.  Scaling by a power of two is
    exact for every sample it leaves in the normal range, so the result
    is the row's std as if nothing had overflowed; every other row keeps
    ``np.std``'s bits.
    """
    with np.errstate(over="ignore"):
        sd = np.std(x, axis=-1)
    if np.isfinite(sd).all():
        return sd
    over = ~np.isfinite(sd) & np.isfinite(x).all(axis=-1)
    sd = np.array(sd)
    rows, flat = x.reshape(-1, x.shape[-1]), sd.reshape(-1)
    for i in np.flatnonzero(over):
        exp = int(np.frexp(np.max(np.abs(rows[i])))[1])
        flat[i] = np.ldexp(np.std(np.ldexp(rows[i], -exp)), exp)
    return sd


def embedding_indices(n: int, m: int, delay: int = 1) -> np.ndarray:
    """Index grid of every length-``m`` delay-vector of an ``n``-sample series.

    Row ``i`` holds the indices ``i, i + delay, ..., i + (m - 1) * delay``;
    ``x[embedding_indices(x.size, m)]`` is the embedding matrix the template
    matchers below and the batched kernel backends both build from, so the
    reference and vectorized paths share one embedding construction.
    """
    n_vec = n - (m - 1) * delay
    if n_vec < 1:
        return np.empty((0, m), dtype=np.intp)
    return (
        np.arange(n_vec, dtype=np.intp)[:, None]
        + delay * np.arange(m, dtype=np.intp)[None, :]
    )


def _embed(x: np.ndarray, m: int) -> np.ndarray:
    """Embedding matrix of all length-``m`` templates of ``x``."""
    return x[embedding_indices(x.size, m)]


def _count_matches(emb: np.ndarray, r: float) -> int:
    """Number of ordered pairs (i != j) of templates (rows of ``emb``) with
    Chebyshev distance <= r."""
    n_templ = emb.shape[0]
    if n_templ < 2:
        return 0
    # All templates compared pairwise via broadcasting.  Template counts
    # here are tiny (n <= a few thousand at most in this code base,
    # <= ~1000 in practice), so the O(n_templ^2) memory is fine.
    dist = np.max(np.abs(emb[:, None, :] - emb[None, :, :]), axis=2)
    matches = int((dist <= r).sum()) - n_templ  # remove self-matches
    return matches


def sample_entropy(
    x: np.ndarray,
    m: int = 2,
    k: float = 0.2,
    r: float | None = None,
) -> float:
    """Sample entropy SampEn(m, r) of a 1-D series.

    Parameters
    ----------
    x:
        Input series.
    m:
        Template length (default 2, the standard choice), an integer >= 1.
    k:
        Tolerance as a fraction of the series' standard deviation (the
        paper's ``k`` parameter: 0.2 and 0.35); ignored if ``r`` is given.
        Finite and >= 0.
    r:
        Absolute tolerance, finite and >= 0; overrides ``k``.

    Returns
    -------
    float
        ``-ln(A / B)`` where ``A`` and ``B`` count template matches of
        length ``m + 1`` and ``m``.  Degenerate cases return finite values:
        if no length-``m`` matches exist the series is maximally irregular
        at this scale and the theoretical upper bound ``ln(B_max)`` is
        returned; a constant series returns 0.0 (perfect regularity).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise SignalError(f"expected 1-D series, got shape {x.shape}")
    integer(m, "m", SignalError, 1)
    at_least(k, "k", SignalError, 0)
    if r is not None:
        at_least(r, "r", SignalError, 0)
    n = x.size
    if n < m + 2:
        return 0.0
    if r is None:
        sd = float(tolerance_std(x))
        if sd == 0.0:
            return 0.0
        r = k * sd
    b = _count_matches(_embed(x, m), r)
    a = _count_matches(_embed(x, m + 1), r)
    if b == 0:
        # No matches at length m: cap at the maximum resolvable entropy for
        # this series length (Richman & Moorman's conventional bound).
        n_pairs = (n - m) * (n - m - 1)
        return math.log(n_pairs) if n_pairs > 1 else 0.0
    if a == 0:
        # Matches at m but none at m+1: upper bound -ln(1/b) = ln(b).
        return math.log(b)
    return float(-math.log(a / b))


def approximate_entropy(
    x: np.ndarray,
    m: int = 2,
    k: float = 0.2,
    r: float | None = None,
) -> float:
    """Approximate entropy ApEn(m, r) of a 1-D series (Pincus 1991).

    Included because the e-Glass real-time detector's feature family uses
    both ApEn and SampEn; self-matches are counted, so ApEn is always
    finite by construction.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise SignalError(f"expected 1-D series, got shape {x.shape}")
    integer(m, "m", SignalError, 1)
    at_least(k, "k", SignalError, 0)
    if r is not None:
        at_least(r, "r", SignalError, 0)
    n = x.size
    if n < m + 2:
        return 0.0
    if r is None:
        sd = float(tolerance_std(x))
        if sd == 0.0:
            return 0.0
        r = k * sd

    def phi(mm: int) -> float:
        emb = _embed(x, mm)
        n_templ = emb.shape[0]
        dist = np.max(np.abs(emb[:, None, :] - emb[None, :, :]), axis=2)
        # Self-matches included: every row count is >= 1, log is safe.
        counts = (dist <= r).sum(axis=1) / n_templ
        return float(np.mean(np.log(counts)))

    return phi(m) - phi(m + 1)
