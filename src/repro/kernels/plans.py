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

import numbers
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

#: The sliding form's cap on a fused level, in the same bytes: glibc's
#: default mmap threshold.  Its stream levels are one long row, and a
#: larger fused product is mapped and page-faulted on every call: under
#: ``_FUSED_BYTES``, level 2 of a 57-window view fused 491 KB and took
#: 0.24 ms inside the call, against 0.08 ms tap by tap; under a 256 KiB
#: cap, level 3 (245 KB) took twice as long as the per-window path's.
_SLIDING_FUSED_BYTES = 128 * 1024

#: Fewest rows of a sliding view that run the sliding form (see
#: :class:`WaveletPlan`).  Below it the form's fixed per-level calls
#: cost more than the shared coefficients save.
_SLIDING_MIN_ROWS = 8


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


class _SlidingLevel(NamedTuple):
    """One level of a sliding-view decomposition (see
    :func:`_sliding_schedule`).

    A window's ``half`` coefficients are its ``shared`` leading ones,
    read off the stream, then ``half - shared`` computed from its
    ``edge``-long edge array.  Each ``runs`` entry ``(start, stop,
    from_stream, source)`` fills edge positions ``[start, stop)`` from
    position ``source`` on of either the window's part of the previous
    level's stream or its previous-level coefficients past the shared
    ones.
    """

    half: int
    shared: int
    edge: int
    runs: tuple[tuple[int, int, bool, int], ...]


@lru_cache(maxsize=64)
def _sliding_schedule(
    n: int, taps: int, level: int
) -> tuple[_SlidingLevel, ...]:
    """Per-level split of a ``level``-deep DWT of ``n``-sample windows
    cut from one stream, for ``n`` divisible by ``2 ** level``.

    Coefficient ``j`` of a level reads input positions ``2 j`` to
    ``2 j + taps - 1``.  When none of them wraps and each is shared (a
    raw sample always is), the coefficient equals the stream's
    coefficient at the window's offset plus ``j``, computed from the
    same inputs in the same tap order.  Those form a prefix of
    ``(shared_in - taps) // 2 + 1`` coefficients.  The rest read the
    edge array: the level input's positions from ``2 * shared`` to its
    end, then its first ``taps - 2``, with wrapped positions taken
    modulo the input length.
    """
    schedule = []
    shared_in = n  # every raw sample is a stream sample
    for _ in range(level):
        half = n // 2
        shared = max(0, (shared_in - taps) // 2 + 1)
        pos = (2 * shared + np.arange(2 * (half - shared) + taps - 2)) % n
        runs: list[list] = []
        for col, p in enumerate(pos.tolist()):
            from_stream = p < shared_in
            source = p if from_stream else p - shared_in
            if runs and runs[-1][2:] == [from_stream, source - col + runs[-1][0]]:
                runs[-1][1] = col + 1  # the previous run continues
            else:
                runs.append([col, col + 1, from_stream, source])
        schedule.append(
            _SlidingLevel(half, shared, pos.size, tuple(map(tuple, runs)))
        )
        n, shared_in = half, shared
    return tuple(schedule)


class WaveletPlan:
    """One window geometry's DWT execution plan.

    Holds the analysis filter bank — the Daubechies scaling filter ``h``
    and its quadrature mirror ``g``, built once instead of per window,
    stacked as the ``(2, K)`` bank ``[h; g]`` — and runs the batched
    multilevel decomposition.

    Every output must be the sum of its ``K`` tap products in ascending
    tap order, multiply then add — the accumulation order of
    ``np.convolve``'s small-kernel path — so that each row reproduces
    ``repro.signals.wavelet.dwt_single`` bit-for-bit.  A level's inputs
    are read through a strided view in which tap ``t = 2 s + p`` of
    output ``j`` sits at pair ``s``, phase ``p``, position ``j``, and
    the level runs in one of two forms that keep that order:

    - **fused** (small levels): one multiply writes every tap product
      into a C-ordered ``(K, 2, rows, half)`` array, and one
      ``np.add.reduce`` over axis 0 sums them.  A reduction along a
      non-inner axis adds whole slices in index order (``out = p[0];
      out += p[1]; ...``), which is the sequential order.  The tap axis
      is never the inner one: the multiply allocates its products in C
      order (``order="C"``), so the ``(2, rows, half)`` block behind
      the tap axis is contiguous with at least two elements.  Left to
      its default (``"K"``, follow the inputs), the multiply may lay
      the tap axis out innermost for some strided views, and a sum
      along the contiguous inner axis would run numpy's pairwise sum,
      whose eight-way unrolled loop reorders 8 or more operands (db4
      has 8 taps).
    - **per tap** (large levels): one multiply and one in-place add per
      tap into a ``(2, rows, half)`` accumulator.  This streams through
      two accumulator-sized buffers where the fused form would write
      ``K`` times as many bytes, so it is the faster form once the
      product outgrows the cache (``_FUSED_BYTES``).

    The form is chosen per level from the size of its product, a
    function of the batch shape alone (the sliding path below caps a
    fused level at ``_SLIDING_FUSED_BYTES``).

    A batch takes one of two paths, chosen from its shape and strides:

    - **per window**: each level gathers its input once into a
      polyphase layout — the even and odd samples of the circularly
      wrapped (and, for odd lengths, edge-repeat-padded) level input, a
      contiguous lane each per row.  A 1-4 window service call runs
      fused at every level, a 57-window cohort call runs its two or
      three largest levels per tap.
    - **sliding**: the rows are one sliding view of a single buffer
      (unit sample stride, a positive row stride shorter than the
      window and a multiple of ``2 ** level`` samples, a window length
      divisible by ``2 ** level``) with at least ``_SLIDING_MIN_ROWS``
      rows, as ``window_tensor`` and the streaming extractor hand over.
      Each level is computed once over the stream the windows span.
      A window's coefficient whose taps do not wrap reads the same
      inputs as the stream coefficient at the window's offset, so it
      *is* that coefficient: at 1024 samples and a 256-sample hop a
      window shares 509 of 512 level-1 coefficients with the stream
      and 2 of 8 at level 7.  Only the wrapped ones are computed per
      window, from a small edge array (the window's last level inputs,
      then its first ``K - 2``), laid out with the windows along the
      inner axis.  Both parts sum the same ``K`` products in the same
      order, so every row carries the per-window path's bits, and
      finiteness is checked once over the stream.  At 57 windows this
      computes about 17k coefficient pairs instead of 58k.
    """

    def __init__(self, wavelet: int = 4, level: int = 7) -> None:
        if (
            isinstance(level, bool)
            or not isinstance(level, numbers.Integral)
            or level < 1
        ):
            raise FeatureError(f"level must be an integer >= 1, got {level!r}")
        self.wavelet = wavelet
        self.level = int(level)
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
        if rows >= _SLIDING_MIN_ROWS:
            hop = self._sliding_hop(windows)
            if hop:
                return self._sliding_details(windows, hop)
        if not np.isfinite(windows).all():
            raise FeatureError("window contains NaN or infinite samples")
        taps = len(self._taps)
        approx = windows
        details: dict[int, np.ndarray] = {}
        schedule = _polyphase_schedule(n, taps, self.level)
        for lvl, (index, half) in enumerate(schedule, start=1):
            poly = np.take(approx, index, axis=1)  # (rows, 2, half + (K-1)//2)
            row, phase, sample = poly.strides
            acc = self._correlate(poly, (sample, phase, row, sample), rows, half)
            approx = acc[0]
            details[lvl] = acc[1]
        return details

    def _sliding_hop(self, windows: np.ndarray) -> int:
        """The row stride in samples of a batch that runs the sliding
        form (see the class docstring), else 0."""
        row, sample = windows.strides
        n = windows.shape[1]
        if (
            sample == windows.itemsize
            and 0 < row < n * sample
            and row % (sample << self.level) == 0
            and n % (1 << self.level) == 0
        ):
            return row // sample
        return 0

    def _sliding_details(
        self, windows: np.ndarray, hop: int
    ) -> dict[int, np.ndarray]:
        """:meth:`details_batch` of rows that start ``hop`` samples apart
        in one buffer: each level once over the stream they span, plus
        each window's wrapped coefficients."""
        rows, n = windows.shape
        item = windows.itemsize
        stream = np.lib.stride_tricks.as_strided(
            windows, ((rows - 1) * hop + n,), (item,), writeable=False
        )
        if not np.isfinite(stream).all():
            raise FeatureError("window contains NaN or infinite samples")
        details: dict[int, np.ndarray] = {}
        # Each window's part of the level input's stream, one row per
        # window, and its level-input coefficients past that part, one
        # column per window.
        lanes, tail = windows, None
        for lvl, step in enumerate(
            _sliding_schedule(n, len(self._taps), self.level), start=1
        ):
            out = np.empty((rows, step.half))
            if step.edge:
                # Windows along the inner axis, so the tap products run
                # along contiguous rows.
                edge = np.empty((step.edge, rows))
                for start, stop, from_stream, source in step.runs:
                    end = source + stop - start
                    if from_stream:
                        edge[start:stop] = lanes[:, source:end].T
                    else:
                        edge[start:stop] = tail[source:end]
                line = rows * item
                acc = self._correlate(
                    edge, (2 * line, line, 2 * line, item),
                    step.half - step.shared, rows, _SLIDING_FUSED_BYTES,
                )
                tail = acc[0]
                out[:, step.shared :] = acc[1].T
            if step.shared:
                # The stream's even and odd samples, a contiguous lane
                # each, as in the per-window polyphase layout.
                count = (stream.size - len(self._taps)) // 2 + 1
                width = count + len(self._pairs) - 1
                poly = stream[: 2 * width].reshape(width, 2).T.copy()
                acc = self._correlate(
                    poly, (item, width * item, 0, item), 1, count,
                    _SLIDING_FUSED_BYTES,
                )[:, 0]
                stream = acc[0]
                strides = ((hop >> lvl) * item, item)
                lanes = np.ndarray(
                    (rows, step.shared), buffer=stream, strides=strides
                )
                out[:, : step.shared] = np.ndarray(
                    (rows, step.shared), buffer=acc[1], strides=strides
                )
            details[lvl] = out
        return details

    def _correlate(
        self,
        source: np.ndarray,
        strides: tuple[int, int, int, int],
        first: int,
        second: int,
        fused_bytes: int = _FUSED_BYTES,
    ) -> np.ndarray:
        """``(2, first, second)`` approximation and detail of ``source``,
        fused while the tap products take at most ``fused_bytes``.

        ``strides`` are the byte steps ``(pair, phase, across, along)``:
        tap ``t = 2 s + p`` of output ``[a, b]`` reads ``source`` at
        ``s * pair + p * phase + a * across + b * along`` bytes.
        """
        pair, phase, across, along = strides
        pairs = len(self._pairs)
        # [s, p, 0, a, b]: tap 2 s + p's input of output [a, b],
        # broadcast over the bank's two filters.  (An ndarray over the
        # source's buffer costs far less than as_strided per call.)
        view = np.ndarray(
            (pairs, 2, 1, first, second),
            buffer=source,
            strides=(pair, phase, 0, across, along),
        )
        if 32 * pairs * first * second <= fused_bytes:
            products = np.multiply(self._pairs, view, order="C")
            return np.add.reduce(
                products.reshape(2 * pairs, 2, first, second), axis=0
            )
        taps = self._taps
        acc = np.empty((2, first, second))
        term = np.empty((2, first, second))
        np.multiply(taps[0], view[0, 0], out=acc)
        for t in range(1, len(taps)):
            np.multiply(taps[t], view[t // 2, t % 2], out=term)
            acc += term
        return acc


@lru_cache(maxsize=16, typed=True)
def wavelet_plan(wavelet: int = 4, level: int = 7) -> WaveletPlan:
    """Cached :class:`WaveletPlan` for a (wavelet order, depth) pair.

    The cache is typed, so ``level=7.0`` always reaches
    :class:`WaveletPlan`, which refuses it: an untyped cache treats it
    as the key ``7``, returning the level-7 plan when that is cached and
    caching a plan built for ``7.0`` for every later level-7 caller when
    it is not.
    """
    return WaveletPlan(wavelet, level)
