"""Reference backend: the per-window scalar functions, looped.

Each kernel here simply maps the corresponding scalar implementation
(:mod:`repro.entropy`, :mod:`repro.features.wavelet_features`,
:mod:`repro.signals.spectral`) over the window rows.  This is the
ground truth every other backend is differentially gated against at
registration time, and the backend ``get_kernel(name, prefer="reference")``
returns — byte-for-byte the pre-registry behavior of the extractors.
"""

from __future__ import annotations

import numpy as np

from ..entropy.permutation import permutation_entropy
from ..entropy.renyi import renyi_entropy
from ..entropy.sample import sample_entropy
from ..exceptions import FeatureError, KernelError, SignalError, at_least
from ..features.wavelet_features import dwt_details
from ..signals.spectral import band_power_from_psd, welch_psd

__all__ = [
    "sample_entropy_reference",
    "permutation_entropy_reference",
    "renyi_entropy_reference",
    "dwt_details_reference",
    "band_powers_reference",
]


def _check_windows(windows: np.ndarray) -> np.ndarray:
    # Contiguity matters for parity, not just speed: numpy reduces
    # strided rows through a buffered path whose rounding differs from
    # the contiguous 1-D sums, so every backend normalizes its input to
    # one C-contiguous float64 layout before any arithmetic.
    windows = np.ascontiguousarray(windows, dtype=float)
    if windows.ndim != 2:
        raise FeatureError(
            f"kernels take (n_windows, n_samples) batches, got {windows.shape}"
        )
    return windows


#: Daubechies orders the ``dwt_details`` kernel accepts: the ones whose
#: vectorized coefficients are bitwise those of the reference.  From
#: db6 up (12+ taps) the two backends differ in the last bits.
DWT_WAVELET_ORDERS = range(1, 6)


def _check_wavelet(wavelet: int) -> None:
    if wavelet not in DWT_WAVELET_ORDERS:
        raise KernelError(
            f"dwt_details supports Daubechies orders "
            f"{DWT_WAVELET_ORDERS[0]}-{DWT_WAVELET_ORDERS[-1]}, got "
            f"{wavelet!r}"
        )


def _tolerances(
    k: float | tuple[float, ...], r: float | None
) -> tuple[float, ...]:
    """The SampEn tolerance factors of one kernel call.

    ``k`` is one factor or a tuple of them; a tuple asks for one output
    column per factor.  An explicit ``r`` overrides ``k`` and so takes
    the single-factor form only.  Each factor, and ``r``, must be finite
    and >= 0.
    """
    if not isinstance(k, tuple):
        if r is not None:
            at_least(r, "r", SignalError, 0)
        return (at_least(k, "k", SignalError, 0),)
    if not k:
        raise SignalError("need at least one tolerance factor k")
    if r is not None:
        raise SignalError("an explicit r takes a single tolerance, not a k tuple")
    for factor in k:
        at_least(factor, "k", SignalError, 0)
    return k


def sample_entropy_reference(
    windows: np.ndarray,
    m: int = 2,
    k: float | tuple[float, ...] = 0.2,
    r: float | None = None,
) -> np.ndarray:
    """SampEn per window: ``(n_windows,)``, or ``(n_windows, len(k))``
    when ``k`` is a tuple of tolerance factors."""
    windows = _check_windows(windows)
    ks = _tolerances(k, r)
    out = np.array(
        [[sample_entropy(row, m=m, k=kk, r=r) for kk in ks] for row in windows],
        dtype=float,
    ).reshape(windows.shape[0], len(ks))
    return out if isinstance(k, tuple) else out[:, 0]


def permutation_entropy_reference(
    windows: np.ndarray,
    order: int = 5,
    delay: int = 1,
    normalize: bool = True,
) -> np.ndarray:
    windows = _check_windows(windows)
    return np.array(
        [
            permutation_entropy(row, order=order, delay=delay, normalize=normalize)
            for row in windows
        ],
        dtype=float,
    )


def renyi_entropy_reference(
    windows: np.ndarray,
    alpha: float = 2.0,
    bins: int = 16,
    normalize: bool = False,
) -> np.ndarray:
    windows = _check_windows(windows)
    return np.array(
        [
            renyi_entropy(row, alpha=alpha, bins=bins, normalize=normalize)
            for row in windows
        ],
        dtype=float,
    )


def dwt_details_reference(
    windows: np.ndarray, level: int = 7, wavelet: int = 4
) -> dict[int, np.ndarray]:
    """Per-level detail coefficients, ``{lvl: (n_windows, n_coeffs)}``."""
    _check_wavelet(wavelet)
    windows = _check_windows(windows)
    per_row = [dwt_details(row, level=level, wavelet=wavelet) for row in windows]
    return {
        lvl: np.stack([d[lvl] for d in per_row])
        for lvl in range(1, level + 1)
    }


def band_powers_reference(
    windows: np.ndarray,
    fs: float,
    bands: tuple[tuple[float, float], ...],
) -> np.ndarray:
    """Welch band powers per window: ``(n_windows, len(bands))``.

    Matches the extractors' usage exactly: one full-window Hann segment
    per window (``nperseg = n_samples``), every band integrated from
    that single PSD.  A ``(n_windows, n_lanes, n_samples)`` batch (one
    lane per channel) gives ``(n_windows, n_lanes, len(bands))``, each
    lane its own PSD.
    """
    windows = np.asarray(windows, dtype=float)
    shape = windows.shape[:-1] + (len(bands),)
    if windows.ndim == 3:
        windows = windows.reshape(-1, windows.shape[-1])
    windows = _check_windows(windows)
    out = np.empty((windows.shape[0], len(bands)), dtype=float)
    for i, row in enumerate(windows):
        freqs, psd = welch_psd(row, fs, nperseg=row.size)
        out[i] = [band_power_from_psd(freqs, psd, band) for band in bands]
    return out.reshape(shape)
