"""Discrete wavelet transform (DWT) substrate built from scratch.

The paper decomposes each 4-second EEG window "until level seven using
Daubechies 4 (db4) wavelet basis function" (Sec. III-A).  PyWavelets is not
available in this environment, so this module implements:

* construction of Daubechies orthonormal scaling filters of arbitrary order
  via spectral factorization (:func:`daubechies_filter`),
* a single-level periodized DWT analysis/synthesis pair
  (:func:`dwt_single`, :func:`idwt_single`),
* multilevel decomposition and reconstruction (:func:`wavedec`,
  :func:`waverec`) using the same coefficient layout as PyWavelets:
  ``[a_L, d_L, d_{L-1}, ..., d_1]``.

Conventions
-----------
Analysis is circular *correlation* with the filter followed by dyadic
downsampling; synthesis is zero-upsampling followed by circular
*convolution*.  With an orthonormal scaling filter ``h`` and the quadrature
mirror high-pass ``g[k] = (-1)^k h[K-1-k]`` this pair achieves perfect
reconstruction and preserves energy (Parseval), both of which are enforced
by the test suite.

Signals whose length is odd at any decomposition stage are padded by
repeating the final sample; this mirrors the periodization behaviour of
standard DWT libraries closely enough for feature extraction (the paper
always transforms 1024-sample windows, a power of two, where no padding
occurs).
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import SignalError, integer

__all__ = [
    "daubechies_filter",
    "quadrature_mirror",
    "dwt_single",
    "idwt_single",
    "wavedec",
    "waverec",
    "dwt_max_level",
    "subband_frequencies",
]

# Reference db4 scaling coefficients (Daubechies, "Ten Lectures on
# Wavelets", Table 6.1; normalized so that sum(h) == sqrt(2)).  Used by the
# test suite to validate the spectral factorization below.
DB4_SCALING = np.array(
    [
        0.23037781330885523,
        0.71484657055254153,
        0.63088076792959036,
        -0.02798376941698385,
        -0.18703481171888114,
        0.03084138183598697,
        0.03288301166698295,
        -0.01059740178499728,
    ]
)


def daubechies_filter(order: int) -> np.ndarray:
    """Return the Daubechies scaling (low-pass) filter with ``order``
    vanishing moments.

    The filter has ``2 * order`` taps and is normalized so that its
    coefficients sum to ``sqrt(2)`` (orthonormal convention).  The minimum
    phase (extremal phase) factorization is chosen, matching the standard
    ``dbN`` family.

    Parameters
    ----------
    order:
        Number of vanishing moments ``p`` (db1 = Haar, db4 = the paper's
        choice).  Supported range is 1..20; beyond that the root finding
        loses precision.

    Raises
    ------
    SignalError
        If ``order`` is outside the supported range.
    """
    if not 1 <= order <= 20:
        raise SignalError(f"Daubechies order must be in [1, 20], got {order}")
    if order == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)

    p = order
    # P(y) = sum_{k=0}^{p-1} C(p-1+k, k) y^k  (Daubechies' half-band
    # polynomial).  Its roots in y map to quadruples of roots in z through
    # y = (2 - z - 1/z) / 4.
    coeffs = [math.comb(p - 1 + k, k) for k in range(p)]
    y_roots = np.roots(coeffs[::-1])

    z_roots: list[complex] = []
    for y in y_roots:
        # Solve z^2 - (2 - 4y) z + 1 = 0 and keep the root inside the unit
        # circle (minimum phase choice).
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        z1 = (b + disc) / 2.0
        z2 = (b - disc) / 2.0
        z_roots.append(z1 if abs(z1) < 1.0 else z2)

    # h(z) ~ (1 + z^{-1})^p * prod_i (1 - z_i z^{-1})
    h = np.array([1.0 + 0j])
    for _ in range(p):
        h = np.convolve(h, [1.0, 1.0])
    for z in z_roots:
        h = np.convolve(h, [1.0, -z])
    h = np.real(h)
    h *= math.sqrt(2.0) / h.sum()
    return h


def quadrature_mirror(h: np.ndarray) -> np.ndarray:
    """Return the high-pass filter ``g[k] = (-1)^k h[K-1-k]`` paired with the
    scaling filter ``h`` in an orthonormal two-channel filter bank."""
    h = np.asarray(h, dtype=float)
    k = h.size
    signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    return signs * h[::-1]


def _as_even_signal(x: np.ndarray) -> np.ndarray:
    """Validate a 1-D signal and pad it to even length by edge repetition."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise SignalError(f"expected a 1-D signal, got shape {x.shape}")
    if x.size < 2:
        raise SignalError("signal must contain at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise SignalError("signal contains NaN or infinite values")
    if x.size % 2:
        x = np.concatenate([x, x[-1:]])
    return x


def _circular_correlate_downsample(x: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """Compute ``out[m] = sum_k filt[k] * x[(2m + k) % n]`` for all ``m``."""
    n = x.size
    k = filt.size
    reps = int(np.ceil((k - 1) / n)) if n else 0
    xp = np.concatenate([x] + [x] * reps)[: n + k - 1]
    full = np.convolve(xp, filt[::-1], mode="valid")
    return full[::2]


def _upsample_circular_convolve(coeffs: np.ndarray, filt: np.ndarray, n: int) -> np.ndarray:
    """Compute ``out[m] = sum_j u[j] * filt[(m - j) % n]`` where ``u`` is the
    dyadic zero-upsampling of ``coeffs`` to length ``n``."""
    u = np.zeros(n)
    u[::2] = coeffs
    c = np.convolve(u, filt)
    out = c[:n].copy()
    tail = c[n:]
    # Fold the linear-convolution tail back (circular wrap-around); the tail
    # can be longer than n for very short signals, so fold repeatedly.
    while tail.size:
        m = min(tail.size, n)
        out[:m] += tail[:m]
        tail = tail[n:]
    return out


def dwt_single(
    x: np.ndarray, wavelet: int | np.ndarray = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Single-level periodized DWT.

    Parameters
    ----------
    x:
        1-D signal.  Odd lengths are padded by edge repetition.
    wavelet:
        Either a Daubechies order (int) or an explicit orthonormal scaling
        filter.

    Returns
    -------
    (approximation, detail):
        Two arrays of length ``ceil(len(x) / 2)``.
    """
    h = daubechies_filter(wavelet) if isinstance(wavelet, int) else np.asarray(wavelet, float)
    g = quadrature_mirror(h)
    x = _as_even_signal(x)
    approx = _circular_correlate_downsample(x, h)
    detail = _circular_correlate_downsample(x, g)
    return approx, detail


def idwt_single(
    approx: np.ndarray, detail: np.ndarray, wavelet: int | np.ndarray = 4
) -> np.ndarray:
    """Inverse of :func:`dwt_single` (periodized, orthonormal)."""
    h = daubechies_filter(wavelet) if isinstance(wavelet, int) else np.asarray(wavelet, float)
    g = quadrature_mirror(h)
    approx = np.asarray(approx, dtype=float)
    detail = np.asarray(detail, dtype=float)
    if approx.shape != detail.shape:
        raise SignalError(
            f"approximation and detail lengths differ: {approx.size} vs {detail.size}"
        )
    n = 2 * approx.size
    return _upsample_circular_convolve(approx, h, n) + _upsample_circular_convolve(
        detail, g, n
    )


def dwt_max_level(n_samples: int, filter_length: int = 8) -> int:
    """Maximum useful decomposition level, following the PyWavelets rule
    ``floor(log2(n / (filter_len - 1)))``."""
    if n_samples < filter_length:
        return 0
    return int(math.floor(math.log2(n_samples / (filter_length - 1))))


def wavedec(
    x: np.ndarray, level: int, wavelet: int | np.ndarray = 4
) -> list[np.ndarray]:
    """Multilevel DWT decomposition.

    Returns coefficients ordered ``[a_level, d_level, ..., d_1]`` (coarsest
    first), mirroring the PyWavelets layout the paper's tooling would have
    produced.

    Raises
    ------
    SignalError
        If ``level`` is not positive or the signal is too short for the
        requested depth (fewer than 2 samples at some stage).
    """
    integer(level, "decomposition level", SignalError, 1)
    h = daubechies_filter(wavelet) if isinstance(wavelet, int) else np.asarray(wavelet, float)
    approx = np.asarray(x, dtype=float)
    details: list[np.ndarray] = []
    for _ in range(level):
        if approx.size < 2:
            raise SignalError(
                f"signal too short for {level}-level decomposition "
                f"(ran out of samples at level {len(details) + 1})"
            )
        approx, det = dwt_single(approx, h)
        details.append(det)
    return [approx] + details[::-1]


def waverec(coeffs: list[np.ndarray], wavelet: int | np.ndarray = 4) -> np.ndarray:
    """Multilevel DWT reconstruction, inverse of :func:`wavedec`.

    If during decomposition an odd-length stage was padded, the
    reconstruction returns the padded (even) length; callers keeping track
    of the original length should truncate.
    """
    if len(coeffs) < 2:
        raise SignalError("need at least [approx, detail] to reconstruct")
    h = daubechies_filter(wavelet) if isinstance(wavelet, int) else np.asarray(wavelet, float)
    approx = np.asarray(coeffs[0], dtype=float)
    for det in coeffs[1:]:
        det = np.asarray(det, dtype=float)
        if det.size != approx.size:
            # Stage was padded during analysis: trim the longer operand.
            m = min(det.size, approx.size)
            det, approx = det[:m], approx[:m]
        approx = idwt_single(approx, det, h)
    return approx


def subband_frequencies(fs: float, level: int) -> tuple[float, float]:
    """Approximate frequency band (lo, hi) in Hz covered by the detail
    coefficients at ``level`` for a signal sampled at ``fs``.

    Level ``j`` details span roughly ``[fs / 2^(j+1), fs / 2^j]``; e.g. at
    256 Hz the level-7 details cover ~1-2 Hz (delta range), which is why the
    paper's selected entropy features concentrate on levels 6-7.
    """
    integer(level, "level", SignalError, 1)
    return fs / 2 ** (level + 1), fs / 2**level
