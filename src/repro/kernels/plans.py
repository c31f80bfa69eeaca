"""Precomputed per-record plans shared across windows.

The per-window reference path rebuilds the same state for every window:
``daubechies_filter`` re-runs its spectral factorization (polynomial
root finding!) twice per DWT level, embedding index grids are re-built
per entropy call, and the Welch window, its normalization and every
band's bin selection are re-derived per PSD.  A plan computes each of
these once per (parameter set) and shares it across every window of a
record — and across records and calls, via small keyed caches — so the
batched kernels spend their time on signal math only.

Everything cached here is a pure function of its key, so sharing is
invisible to results (the parity suites enforce this).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..entropy.sample import embedding_indices
from ..exceptions import FeatureError, SignalError
from ..signals.spectral import EEG_BANDS
from ..signals.wavelet import daubechies_filter, quadrature_mirror

__all__ = [
    "WaveletPlan",
    "wavelet_plan",
    "embedding_plan",
    "hann_window",
    "BandPlan",
    "band_plan",
]


@lru_cache(maxsize=64)
def embedding_plan(n: int, m: int, delay: int = 1) -> np.ndarray:
    """Cached (read-only) embedding index grid — see
    :func:`repro.entropy.sample.embedding_indices`."""
    idx = embedding_indices(n, m, delay)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=32)
def hann_window(n: int) -> np.ndarray:
    """Cached (read-only) Hann window of length ``n`` (``np.hanning``,
    exactly what :func:`repro.signals.spectral.welch_psd` builds per call)."""
    win = np.hanning(n)
    win.setflags(write=False)
    return win


class BandPlan(NamedTuple):
    """Everything a Welch band-power call derives from its geometry.

    ``norm`` is the PSD normalization ``fs * sum(hann(n) ** 2)``.  Each
    ``bands`` entry is ``(bins, spacing)``: either the band's bin slice
    with the ``np.diff`` of its frequencies (trapezoid integration), or
    — for a band covering fewer than 2 bins — the nearest bin's index
    with the bin width (the scalar path's rectangle fallback).
    """

    norm: float
    bands: tuple[tuple[slice | int, np.ndarray | float], ...]


@lru_cache(maxsize=32)
def band_plan(
    n: int, fs: float, bands: tuple[tuple[float, float] | str, ...]
) -> BandPlan:
    """Cached :class:`BandPlan` of ``n``-sample windows at ``fs`` Hz,
    replicating :func:`repro.signals.spectral.band_power_from_psd`'s bin
    selection per band.

    Raises
    ------
    SignalError
        For an invalid ``(lo, hi)`` band; an unknown band name raises
        ``KeyError``, as in the scalar path.
    """
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    entries = []
    for band in bands:
        lo, hi = EEG_BANDS[band] if isinstance(band, str) else band
        if not 0 <= lo < hi:
            raise SignalError(f"invalid band ({lo}, {hi})")
        # freqs ascends, so the in-band bins are one contiguous run.
        inside = np.nonzero((freqs >= lo) & (freqs <= hi))[0]
        if inside.size < 2:
            nearest = int(np.argmin(np.abs(freqs - 0.5 * (lo + hi))))
            entries.append((nearest, freqs[1] - freqs[0]))
        else:
            bins = slice(int(inside[0]), int(inside[-1]) + 1)
            spacing = np.diff(freqs[bins])
            spacing.setflags(write=False)
            entries.append((bins, spacing))
    return BandPlan(fs * np.sum(hann_window(n) ** 2), tuple(entries))


#: Largest fused DWT level, in bytes of its ``(K, 2, rows, half)`` tap
#: products: about a quarter of a 2 MiB per-core L2.  Above it a level
#: accumulates tap by tap (see :class:`WaveletPlan`).
_FUSED_BYTES = 512 * 1024


@lru_cache(maxsize=64)
def _polyphase_schedule(
    n: int, taps: int, level: int
) -> tuple[tuple[np.ndarray, int], ...]:
    """Per-level ``(index, half)`` pairs of a ``level``-deep DWT of
    ``n``-sample rows.

    ``index`` is the read-only ``(2, half + (taps - 1) // 2)`` polyphase
    gather of that level's input: row ``p`` holds the sample positions
    ``2 * j + p`` of the circularly wrapped, edge-repeat-padded input,
    so tap ``t`` of output ``j`` reads ``index[t % 2, j + t // 2]``.
    ``half`` is the level's output length.

    Raises
    ------
    FeatureError
        At the first level whose input has fewer than 2 samples.
    """
    schedule = []
    for lvl in range(1, level + 1):
        if n < 2:
            raise FeatureError(
                f"signal too short for {level}-level decomposition "
                f"(ran out of samples at level {lvl})"
            )
        even = n + n % 2
        half = even // 2
        pos = 2 * np.arange(half + (taps - 1) // 2) + np.arange(2)[:, None]
        # Circular wrap over the padded length; the pad sample (position
        # n of an odd-length input) repeats the last real one.
        index = np.minimum(pos % even, n - 1)
        index.setflags(write=False)
        schedule.append((index, half))
        n = half
    return tuple(schedule)


class WaveletPlan:
    """One window geometry's DWT execution plan.

    Holds the analysis filter bank — the Daubechies scaling filter ``h``
    and its quadrature mirror ``g``, built once instead of per window,
    stacked as the ``(2, K)`` bank ``[h; g]`` — and runs the batched
    multilevel decomposition.

    Each level gathers its input once into a polyphase layout: the even
    and odd samples of the circularly wrapped (and, for odd lengths,
    edge-repeat-padded) level input, each a contiguous lane per row.
    Tap ``t`` of the dyadically downsampled correlation reads one
    shifted slice of the ``t % 2`` phase, scaled by the bank column
    ``[h[t]; g[t]]``, which gives approximation and detail together.

    Every output must be the sum of its ``K`` tap products in ascending
    tap order, multiply then add — the accumulation order of
    ``np.convolve``'s small-kernel path — so that each row reproduces
    ``repro.signals.wavelet.dwt_single`` bit-for-bit.  A level runs in
    one of two forms that keep that order:

    - **fused** (small levels): one multiply writes every tap product
      into a ``(K, 2, rows, half)`` array, read through a strided view
      of the polyphase lanes, and one ``np.add.reduce`` over axis 0
      sums them.  A reduction along a non-inner axis adds whole slices
      in index order (``out = p[0]; out += p[1]; ...``), which is the
      sequential order.  The tap axis is never the inner one: the
      ``(2, rows, half)`` block behind it is contiguous with at least
      two elements.  A sum along the contiguous inner axis would not
      do: numpy's pairwise sum runs an eight-way unrolled loop from 8
      operands up (db4 has 8 taps), which reorders them.
    - **per tap** (large levels): one multiply and one in-place add per
      tap into a ``(2, rows, half)`` accumulator.  This streams through
      two accumulator-sized buffers where the fused form would write
      ``K`` times as many bytes, so it is the faster form once the
      product outgrows the cache (``_FUSED_BYTES``).

    The form is chosen per level from the size of its product, a
    function of the batch shape alone, so a 1-4 window service call
    runs fused at every level and a 57-window cohort call runs its two
    or three largest levels per tap.
    """

    def __init__(self, wavelet: int = 4, level: int = 7) -> None:
        if level < 1:
            raise FeatureError(f"level must be >= 1, got {level}")
        self.wavelet = wavelet
        self.level = level
        self.h = daubechies_filter(wavelet)
        self.g = quadrature_mirror(self.h)
        self.h.setflags(write=False)
        self.g.setflags(write=False)
        bank = np.stack([self.h, self.g])
        taps = bank.shape[1]
        # One (2, 1, 1) column per tap, broadcast over (2, rows, half).
        self._taps = tuple(bank[:, t, None, None] for t in range(taps))
        # Daubechies banks have an even tap count, so tap t = 2 s + p is
        # (pair s, phase p): entry [s, p, c] is bank[c, 2 s + p].
        self._pairs = np.ascontiguousarray(bank.T).reshape(
            taps // 2, 2, 2, 1, 1
        )

    def details_batch(self, windows: np.ndarray) -> dict[int, np.ndarray]:
        """Detail coefficients of every window, keyed by level.

        ``windows`` is ``(n_windows, n_samples)``; each value is the
        C-contiguous ``(n_windows, n_coeffs_at_level)`` detail array —
        row ``i`` bitwise equal to ``dwt_details(windows[i], level)[lvl]``.

        Raises
        ------
        FeatureError
            If the windows are too short for the requested depth (the
            same contract as the per-window path) or contain non-finite
            samples.
        """
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 2:
            raise FeatureError(
                f"expected (n_windows, n_samples) windows, got {windows.shape}"
            )
        rows, n = windows.shape
        if n < 2:
            raise FeatureError(
                f"signal too short for {self.level}-level decomposition "
                f"({n} samples per window)"
            )
        if not np.isfinite(windows).all():
            raise FeatureError("window contains NaN or infinite samples")
        taps = len(self._taps)
        approx = windows
        details: dict[int, np.ndarray] = {}
        schedule = _polyphase_schedule(n, taps, self.level)
        for lvl, (index, half) in enumerate(schedule, start=1):
            poly = np.take(approx, index, axis=1)  # (rows, 2, half + (K-1)//2)
            if 16 * taps * rows * half <= _FUSED_BYTES:
                acc = self._fused_level(poly, rows, half)
            else:
                acc = self._per_tap_level(poly, rows, half)
            approx = acc[0]
            details[lvl] = acc[1]
        return details

    def _fused_level(self, poly: np.ndarray, rows: int, half: int) -> np.ndarray:
        """``(2, rows, half)`` approximation and detail: one multiply
        over every tap, then one sequential reduction along the tap
        axis."""
        row, phase, sample = poly.strides
        # [s, p, 0, r, j] = poly[r, p, s + j]: tap 2 s + p's slice of
        # phase p, broadcast over the bank's two filters.  (An ndarray
        # over poly's buffer costs far less than as_strided per call.)
        view = np.ndarray(
            (len(self._pairs), 2, 1, rows, half),
            buffer=poly,
            strides=(sample, phase, 0, row, sample),
        )
        products = np.multiply(self._pairs, view)
        return np.add.reduce(
            products.reshape(len(self._taps), 2, rows, half), axis=0
        )

    def _per_tap_level(
        self, poly: np.ndarray, rows: int, half: int
    ) -> np.ndarray:
        """``(2, rows, half)`` approximation and detail, accumulated in
        place one tap at a time."""
        taps = self._taps
        acc = np.empty((2, rows, half))
        term = np.empty((2, rows, half))
        np.multiply(taps[0], poly[:, 0, :half], out=acc)
        for t in range(1, len(taps)):
            shift = t // 2
            np.multiply(taps[t], poly[:, t % 2, shift : shift + half], out=term)
            acc += term
        return acc


@lru_cache(maxsize=16)
def wavelet_plan(wavelet: int = 4, level: int = 7) -> WaveletPlan:
    """Cached :class:`WaveletPlan` for a (wavelet order, depth) pair."""
    return WaveletPlan(wavelet, level)
