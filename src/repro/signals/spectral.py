"""Spectral estimation substrate: periodogram, Welch PSD and band powers.

The paper's selected features include total and relative band powers in the
delta ([0.5, 4] Hz) and theta ([4, 8] Hz) bands (Sec. III-A).  This module
implements the estimators from first principles on top of ``numpy.fft`` —
``tests/test_signals_spectral.py`` cross-checks them against a reference
signal-processing library — and provides the band-power helpers used by
the feature extractors.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import SignalError

__all__ = [
    "EEG_BANDS",
    "check_rate",
    "periodogram",
    "welch_psd",
    "band_power",
    "relative_band_power",
    "total_power",
    "spectral_edge_frequency",
    "median_frequency",
    "peak_frequency",
]

#: Canonical EEG frequency bands in Hz (inclusive lower, exclusive upper
#: except where bounded by Nyquist).  The paper uses delta and theta.
EEG_BANDS: dict[str, tuple[float, float]] = {
    "delta": (0.5, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 13.0),
    "beta": (13.0, 30.0),
    "gamma": (30.0, 70.0),
}


def _validate_signal(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise SignalError(f"expected a 1-D signal, got shape {x.shape}")
    if x.size < 8:
        raise SignalError(f"signal too short for spectral estimation ({x.size} samples)")
    if not np.all(np.isfinite(x)):
        raise SignalError("signal contains NaN or infinite values")
    return x


def check_rate(fs: float) -> None:
    """Refuse a sampling frequency that is not finite and positive."""
    if not (fs > 0 and math.isfinite(fs)):
        raise SignalError(
            f"sampling frequency must be finite and positive, got {fs}"
        )


def periodogram(
    x: np.ndarray, fs: float, detrend: bool = True, window: str = "boxcar"
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided periodogram power spectral density.

    Parameters
    ----------
    x:
        1-D real signal.
    fs:
        Sampling frequency in Hz.
    detrend:
        Subtract the mean before transforming (default True).
    window:
        ``"boxcar"`` or ``"hann"``.

    Returns
    -------
    (freqs, psd):
        Frequencies in Hz and PSD in signal-units^2 / Hz, normalized so that
        ``trapezoid(psd, freqs)`` approximates the signal variance.
    """
    x = _validate_signal(x)
    check_rate(fs)
    if detrend:
        x = x - x.mean()
    n = x.size
    win = _make_window(window, n)
    xw = x * win
    spec = np.fft.rfft(xw)
    # Normalization: divide by fs * sum(win^2) so the one-sided integral of
    # the PSD equals the windowed signal power (the standard "density"
    # scaling).
    psd = (np.abs(spec) ** 2) / (fs * np.sum(win**2))
    psd[1:] *= 2.0
    if n % 2 == 0:
        psd[-1] /= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    return freqs, psd


def _make_window(window: str, n: int) -> np.ndarray:
    if window == "boxcar":
        return np.ones(n)
    if window == "hann":
        return np.hanning(n)
    raise SignalError(f"unknown window {window!r}; use 'boxcar' or 'hann'")


def welch_psd(
    x: np.ndarray,
    fs: float,
    nperseg: int = 256,
    overlap: float = 0.5,
    window: str = "hann",
) -> tuple[np.ndarray, np.ndarray]:
    """Welch-averaged one-sided PSD.

    Segments of ``nperseg`` samples with fractional ``overlap`` are
    windowed, transformed and averaged.  If the signal is shorter than
    ``nperseg`` a single full-length segment is used.
    """
    x = _validate_signal(x)
    check_rate(fs)
    if not 0.0 <= overlap < 1.0:
        raise SignalError(f"overlap must be in [0, 1), got {overlap}")
    nperseg = int(min(nperseg, x.size))
    step = max(1, int(round(nperseg * (1.0 - overlap))))
    starts = range(0, x.size - nperseg + 1, step)
    win = _make_window(window, nperseg)
    norm = fs * np.sum(win**2)
    acc = None
    count = 0
    for s in starts:
        seg = x[s : s + nperseg]
        seg = seg - seg.mean()
        spec = np.abs(np.fft.rfft(seg * win)) ** 2
        acc = spec if acc is None else acc + spec
        count += 1
    assert acc is not None  # starts is never empty since nperseg <= x.size
    psd = acc / (count * norm)
    psd[1:] *= 2.0
    if nperseg % 2 == 0:
        psd[-1] /= 2.0
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / fs)
    return freqs, psd


def band_power_from_psd(
    freqs: np.ndarray, psd: np.ndarray, band: tuple[float, float] | str
) -> float:
    """Integrate a precomputed one-sided PSD over a band.

    Use this (instead of repeated :func:`band_power` calls) when several
    band powers are needed from the same window — the feature extractors
    compute the PSD once and integrate many bands.
    """
    lo, hi = EEG_BANDS[band] if isinstance(band, str) else band
    if not 0 <= lo < hi:
        raise SignalError(f"invalid band ({lo}, {hi})")
    mask = (freqs >= lo) & (freqs <= hi)
    if mask.sum() < 2:
        idx = int(np.argmin(np.abs(freqs - 0.5 * (lo + hi))))
        return float(psd[idx] * (freqs[1] - freqs[0]))
    return float(np.trapezoid(psd[mask], freqs[mask]))


def band_power(
    x: np.ndarray,
    fs: float,
    band: tuple[float, float] | str,
    nperseg: int | None = None,
) -> float:
    """Absolute power of ``x`` in a frequency band, via Welch integration.

    ``band`` may be a (lo, hi) tuple in Hz or one of the :data:`EEG_BANDS`
    names.  For the paper's 4-second windows at 256 Hz the default segment
    length is the full window, which gives the finest frequency resolution
    (0.25 Hz) available.
    """
    x = _validate_signal(x)
    if nperseg is None:
        nperseg = x.size
    freqs, psd = welch_psd(x, fs, nperseg=nperseg)
    return band_power_from_psd(freqs, psd, band)


def total_power(x: np.ndarray, fs: float, fmax: float | None = None) -> float:
    """Total signal power up to ``fmax`` (default Nyquist) via Welch."""
    x = _validate_signal(x)
    hi = fs / 2.0 if fmax is None else fmax
    return band_power(x, fs, (0.0, hi))


def relative_band_power(
    x: np.ndarray,
    fs: float,
    band: tuple[float, float] | str,
    reference: tuple[float, float] | None = None,
) -> float:
    """Band power normalized by the power in ``reference`` (default: full
    spectrum).  Returns a value in [0, 1] for well-behaved signals; 0.0 when
    the reference power vanishes."""
    x = _validate_signal(x)
    num = band_power(x, fs, band)
    ref = total_power(x, fs) if reference is None else band_power(x, fs, reference)
    if ref <= 0.0:
        return 0.0
    return float(num / ref)


def spectral_edge_frequency(
    x: np.ndarray, fs: float, edge: float = 0.95
) -> float:
    """Frequency below which ``edge`` of the total spectral power lies."""
    if not 0.0 < edge < 1.0:
        raise SignalError(f"edge fraction must be in (0, 1), got {edge}")
    freqs, psd = welch_psd(x, fs, nperseg=_validate_signal(x).size)
    cum = np.cumsum(psd)
    if cum[-1] <= 0:
        return 0.0
    idx = int(np.searchsorted(cum, edge * cum[-1]))
    return float(freqs[min(idx, freqs.size - 1)])


def median_frequency(x: np.ndarray, fs: float) -> float:
    """Frequency splitting the spectrum into two equal-power halves."""
    return spectral_edge_frequency(x, fs, edge=0.5)


def peak_frequency(x: np.ndarray, fs: float, fmin: float = 0.5) -> float:
    """Frequency of the largest PSD bin at or above ``fmin`` Hz."""
    x = _validate_signal(x)
    freqs, psd = welch_psd(x, fs, nperseg=x.size)
    mask = freqs >= fmin
    if not mask.any():
        raise SignalError(f"no frequency bins at or above {fmin} Hz")
    sub = np.where(mask)[0]
    return float(freqs[sub[np.argmax(psd[sub])]])
