"""Vectorized backend: batched kernels bitwise-identical to the reference.

Every kernel here processes all windows of a batch in whole-array numpy
operations, but is engineered so each output row carries the *exact*
bits the per-window reference produces.  Three rules make that work:

1. **Elementwise and per-lane operations batch freely.**  Subtraction,
   multiplication, division, ``log``/``log2``, comparisons and ``rfft``
   along rows all act per element or per 1-D lane, so a batched call
   equals a loop of scalar calls bit-for-bit.
2. **Reductions must see the same operand sequence.**  numpy reduces
   a contiguous lane with pairwise summation whose tree depends on the
   lane's length, so sums/means/stds are taken along ``axis=1`` of
   contiguous rows with exactly the reference's row length — never
   over padded or masked rows.  Where the reference sums a
   *variable*-length vector per window (the positive histogram bins,
   the observed ordinal patterns), each row's operands are laid out so
   that one padded axis-1 sum replays that row's own tree: numpy sums
   fewer than 8 operands one by one, and otherwise keeps eight lane
   sums, combines them in a fixed tree and adds the remainder one by
   one, so the zero padding goes between a row's lane part and its
   remainder, where adding ``+0.0`` changes nothing
   (:func:`_compacted_row_sums`).  That costs the same few calls for a
   1-window batch as for a cohort chunk.
3. **Integer work is exact.**  Template-match counts, ordinal-pattern
   Lehmer codes and histogram bin indices are integers; any evaluation
   order gives identical values.  Lehmer digit ``j`` of an embedded
   vector is the count of later samples strictly below sample ``j``,
   which is exactly the reference's stable-argsort tie rule, so one
   ``(rows, vectors, order, order)`` comparison tensor times a fixed
   factorial weight vector (an integer matmul) gives the reference's
   codes without sorting (NaN has no order and is refused, as in the
   reference).  Histogram bins replicate numpy's own fast path: each
   row's edges are computed once with the formula scalar ``linspace``
   uses (``arange(bins + 1) * step + min``, last edge ``max``), decide
   whether the row is binnable at all, and feed the truncating index
   map's boundary corrections, so the counts match ``np.histogram``
   everywhere, including its pathological rounding cases.

The DWT kernel follows rules 1 and 2 through its accumulation order.
Each level gathers its wrapped (odd lengths edge-repeat-padded) input
once into a polyphase layout — the even and the odd samples, a
contiguous lane each per row — and every output must be the sum of its
``K`` tap products in ascending tap order, the scalar correlation's
multiply-then-add sequence.  Small levels (a service call's 1-4
windows) fuse the taps: one multiply writes all ``(K, 2, rows, half)``
products of the stacked ``[h; g]`` bank through a strided view of the
lanes into a C-ordered array, and one ``np.add.reduce`` over the tap
axis sums them.  A reduction along a non-inner axis adds whole slices
in index order, so it is sequential; a sum of the taps along the
contiguous inner axis would instead run numpy's pairwise sum, whose
eight-way unrolled loop reorders 8 or more operands (db4 has 8 taps).
Levels whose products would outgrow the cache (a cohort chunk's first
levels) accumulate tap by tap into a ``(2, rows, half)`` accumulator
instead, in the same order.

A batch whose rows are one sliding view of a single buffer — what
``window_tensor`` and the streaming extractor pass, 4 s windows at a
1 s hop — with at least 8 rows, a hop that is a multiple of
``2 ** level`` samples and a window length divisible by it, is
decomposed once as a stream.  A window coefficient whose taps do not
wrap reads exactly the inputs of the stream coefficient at the window's
offset, so it is copied from there; only the few wrapped coefficients
per level are computed per window, from an edge array of the window's
last and first level inputs.  Both sum the same tap products in the
same order, so the rows keep the per-window bits while each sample is
decomposed once instead of four times.  Either way every coefficient
matches the reference bit-for-bit (see
:class:`~repro.kernels.plans.WaveletPlan`).

Block temporaries (the Welch rows, spectrum and PSD, the sliding DWT's
stream levels, SampEn's pair tensor) are written with ``out=`` into the
calling thread's workspace (:mod:`repro.kernels.workspace`), reused from
call to call instead of mapped and page-faulted afresh; every array a
kernel returns is its own.

``tests/test_kernels_parity.py`` verifies all of this bitwise against
the reference on a seeded battery of signal shapes, and
``tests/test_kernels_sliding.py`` the sliding form against the
per-window form and the reference.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..entropy.sample import tolerance_std
from ..exceptions import SignalError, integer, positive
from .plans import band_plan, embedding_plan, hann_window, wavelet_plan
from .reference import _check_wavelet, _check_windows, _tolerances
from .workspace import scratch

__all__ = [
    "sample_entropy_vectorized",
    "permutation_entropy_vectorized",
    "renyi_entropy_vectorized",
    "dwt_details_vectorized",
    "band_powers_vectorized",
]

#: Rough scratch budget per chunk of the O(n_templates^2) distance
#: tensors, so huge batches of long windows never materialize at once.
_CHUNK_BYTES = 48_000_000

#: Input bytes per block of Welch rows: bounds the spectral temporaries
#: of a large batch (and keeps them cache-resident) while a service-size
#: batch still runs as one block.  A block's temporaries live in the
#: per-thread workspace (:mod:`.workspace`): the contiguous row copy
#: (these bytes) and its ``rfft`` spectrum, whose spent buffers then hold
#: the PSD and the trapezoid addends.  Each reaches 128 KiB, where
#: glibc's ``malloc`` maps a fresh allocation and faults it page by
#: page, so allocated per call they were faulted on every call.  With
#: the workspace, 256 KiB blocks run faster than 128 or 64 KiB ones
#: (1.06 against 1.20 and 1.48 ms for a 57-window call's band powers).
_PSD_CHUNK_BYTES = 256 * 1024


# ---------------------------------------------------------------------------
# Template matching (sample entropy)
# ---------------------------------------------------------------------------


def _template_distances(windows: np.ndarray, m: int):
    """Yield ``(rows, dist, dist_next)`` for each chunk of ``windows``.

    ``dist`` holds, per window, the Chebyshev distances between all its
    length-``m`` templates and ``dist_next`` those between all its
    length-``m + 1`` templates.  Both come from one ``(rows, n, n)``
    tensor of sample distances ``|x_i - x_j|``: lane ``t`` of a template
    pair ``(i, j)`` is entry ``(i + t, j + t)``, so ``dist`` is the
    running ``np.maximum`` of ``m`` diagonally shifted blocks, and
    ``dist_next`` extends the first ``n - m`` templates by lane ``m``
    with one more maximum.  Every entry is the same ``|a - b|`` the
    scalar embedding differences produce, and a maximum is exact, so
    the counts derived from them are too.  Needs ``n >= m + 1``.
    """
    n_windows, n = windows.shape
    n_vec = n - m + 1
    chunk = max(1, _CHUNK_BYTES // (26 * n * n))
    for s in range(0, n_windows, chunk):
        x = windows[s : s + chunk]
        pair = scratch("sampen.pair", (x.shape[0], n, n))
        np.subtract(x[:, :, None], x[:, None, :], out=pair)
        np.abs(pair, out=pair)
        dist = pair[:, :n_vec, :n_vec]
        for t in range(1, m):
            dist = np.maximum(dist, pair[:, t : t + n_vec, t : t + n_vec])
        dist_next = np.maximum(dist[:, :-1, :-1], pair[:, m:, m:])
        yield slice(s, s + chunk), dist, dist_next


def _prepare_tolerance(
    windows: np.ndarray, m: int, ks: tuple[float, ...], r: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared (out, live_rows, r_per_row) setup for the SampEn kernel.

    ``out`` starts at the degenerate value 0.0, one column per
    tolerance; ``live_rows`` indexes the rows that need matching
    (non-constant, or all rows when ``r`` is explicit), exactly
    mirroring the scalar functions' early returns.  ``r_per_row`` holds
    each live candidate's ``k * std`` per tolerance (or ``r``), from one
    std pass however many tolerances there are.
    """
    integer(m, "m", SignalError, 1)
    n_windows, n = windows.shape
    out = np.zeros((n_windows, len(ks)))
    if n < m + 2:
        return out, np.empty(0, dtype=np.intp), np.empty((0, len(ks)))
    if r is None:
        sd = tolerance_std(windows)
        live = np.nonzero(sd != 0.0)[0]
        r_rows = sd[:, None] * np.array(ks)
    else:
        live = np.arange(n_windows, dtype=np.intp)
        r_rows = np.full((n_windows, 1), float(r))
    return out, live, r_rows


def _sampen_value(b: int, a: int, n: int, m: int) -> float:
    """The scalar SampEn finalization, identical to ``sample_entropy``."""
    if b == 0:
        n_pairs = (n - m) * (n - m - 1)
        return math.log(n_pairs) if n_pairs > 1 else 0.0
    if a == 0:
        return math.log(b)
    return -math.log(a / b)


def sample_entropy_vectorized(
    windows: np.ndarray,
    m: int = 2,
    k: float | tuple[float, ...] = 0.2,
    r: float | None = None,
) -> np.ndarray:
    windows = _check_windows(windows)
    ks = _tolerances(k, r)
    out, live, r_rows = _prepare_tolerance(windows, m, ks, r)
    if live.size:
        n = windows.shape[1]
        n_vec = n - m + 1
        # (tolerances, live rows, 1, 1): every tolerance is compared
        # against the same distance tensors.
        r_live = r_rows[live].T[:, :, None, None]
        b = np.empty((len(r_live), live.size), dtype=np.int64)
        a = np.empty((len(r_live), live.size), dtype=np.int64)
        # Ordered pairs i != j within tolerance: all hits minus
        # self-matches.
        for rows, dist, dist_next in _template_distances(windows[live], m):
            r_chunk = r_live[:, rows]
            b[:, rows] = (dist <= r_chunk).sum(axis=(2, 3)) - n_vec
            a[:, rows] = (dist_next <= r_chunk).sum(axis=(2, 3)) - (n_vec - 1)
        out[live] = [
            [_sampen_value(bi, ai, n, m) for bi, ai in zip(b_row, a_row)]
            for b_row, a_row in zip(b.T.tolist(), a.T.tolist())
        ]
    return out if isinstance(k, tuple) else out[:, 0]


# ---------------------------------------------------------------------------
# Exact per-row sums of variable-length vectors
# ---------------------------------------------------------------------------

#: numpy's pairwise-summation block: a contiguous sum of at most this
#: many operands is one unrolled block, longer ones split in halves.
_PAIRWISE_BLOCK = 128


def _compacted_row_sums(terms: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.sum`` of each row's compacted terms, bit for bit, in one
    reduction for the whole batch.

    ``mask`` is a ``(rows, width)`` bool array and ``terms`` holds one
    value per set entry, in row-major order; row ``r``'s operands are
    its ``u`` terms, summed as the 1-D vector the per-window reference
    builds.  numpy sums ``u < 8`` operands one by one and otherwise
    keeps eight lane sums over the first ``u - u % 8`` operands,
    combines them as ``((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 +
    l7))``, and adds the last ``u % 8`` one by one.  So each row is laid
    out in a zero-filled ``(rows, top + 7)`` array, ``top`` being the
    largest such lane part in the batch: the row's lane part at the
    front, then zeros up to column ``top``, then its remainder.  One
    contiguous axis-1 sum then adds every row's operands in its own
    order, padded only with ``+0.0`` — which changes no sum, since no
    term is ``-0.0`` (entropy terms are ``p * log2(p)`` or ``p ** alpha``
    with ``p > 0``).  Rows of 128 operands or more would be split into
    halves by numpy, so a batch holding one is summed row by row.
    """
    rows = mask.shape[0]
    rank = mask.cumsum(axis=1)
    n_terms = rank[:, -1]
    most = int(n_terms.max(initial=0))
    if most >= _PAIRWISE_BLOCK:
        ends = np.cumsum(n_terms).tolist()
        return np.array(
            [terms[a:b].sum() for a, b in zip([0] + ends[:-1], ends)],
            dtype=float,
        )
    top = most & -8
    span = top + 7
    # Column of each term in the flat padded array: its 0-based rank in
    # its row, moved past the zero gap when it belongs to the remainder.
    col = rank + np.arange(-1, rows * span - 1, span)[:, None]
    if top:
        lanes = n_terms & -8
        col += np.where(rank > lanes[:, None], (top - lanes)[:, None], 0)
    padded = np.zeros(rows * span)
    padded[col[mask]] = terms
    return padded.reshape(rows, span).sum(axis=1)


# ---------------------------------------------------------------------------
# Permutation entropy
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _lehmer_weights(order: int) -> np.ndarray:
    """Cached (read-only) flattened ``(order, order)`` digit weights:
    entry ``(j, k)`` is ``(order - 1 - j)!`` where ``k > j``, else 0."""
    weights = np.zeros((order, order), dtype=np.int64)
    for j in range(order - 1):
        weights[j, j + 1 :] = math.factorial(order - 1 - j)
    weights = weights.reshape(order * order)
    weights.setflags(write=False)
    return weights


def permutation_entropy_vectorized(
    windows: np.ndarray,
    order: int = 5,
    delay: int = 1,
    normalize: bool = True,
) -> np.ndarray:
    windows = _check_windows(windows)
    integer(order, "order", SignalError, 2)
    integer(delay, "delay", SignalError, 1)
    if np.isnan(windows).any():
        raise SignalError("ordinal patterns are undefined for NaN samples")
    n_windows, n = windows.shape
    idx = embedding_plan(n, order, delay)
    n_vec = idx.shape[0]
    if n_vec < 1 or n_windows == 0:
        return np.zeros(n_windows)

    weights = _lehmer_weights(order)
    codes = np.empty((n_windows, n_vec), dtype=np.int64)
    # Per embedded vector: its float64 samples, the bool comparison
    # tensor and the int64 copy of it the matmul casts to.
    chunk = max(1, _CHUNK_BYTES // (n_vec * order * (9 * order + 8)))
    for s in range(0, n_windows, chunk):
        # Lehmer digit j of an embedded vector counts the later samples
        # strictly below sample j: exactly the stable-argsort ranks'
        # "smaller to the right" count, ties included, so one comparison
        # tensor and an exact integer matmul give the reference's codes.
        emb = windows[s : s + chunk][:, idx]
        lower = emb[..., None, :] < emb[..., :, None]
        codes[s : s + chunk] = lower.reshape(-1, n_vec, order * order) @ weights

    # Per-row pattern frequencies by run length over the sorted codes
    # (ascending, like np.unique's).  Every row opens with a boundary,
    # so with one closing sentinel the run lengths are the gaps between
    # consecutive boundaries of the flattened batch.
    codes.sort(axis=1)
    flags = np.empty(n_windows * n_vec + 1, dtype=bool)
    flags[-1] = True
    boundary = flags[:-1].reshape(n_windows, n_vec)
    boundary[:, 0] = True
    np.not_equal(codes[:, 1:], codes[:, :-1], out=boundary[:, 1:])
    edges = np.flatnonzero(flags)
    p = (edges[1:] - edges[:-1]) / n_vec
    h = -_compacted_row_sums(p * np.log2(p), boundary)
    if normalize:
        h = h / math.log2(math.factorial(order))
    return h


# ---------------------------------------------------------------------------
# Histogram entropy (Rényi; its alpha -> 1 limit is Shannon)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _edge_ramp(bins: int) -> np.ndarray:
    """Cached (read-only) ``arange(bins + 1)`` in float64."""
    ramp = np.arange(bins + 1, dtype=float)
    ramp.setflags(write=False)
    return ramp


def _live_histograms(
    windows: np.ndarray, bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(live, counts)``: the rows :func:`repro.entropy.shannon.binnable`
    accepts and ``np.histogram(row, bins)[0]`` of each, batched.

    Each row's edges follow scalar ``np.linspace`` over its [min, max]:
    ``arange(bins + 1) * step + min`` with ``step = (max - min) / bins``
    and the last edge set to ``max``.  A row is live when its edges
    strictly increase.  (Where the step is 0, scalar linspace switches
    to another formula, but no edges over such a range can strictly
    increase; here they all collapse onto ``min``, so such a row is dead
    under either formula and every row's verdict is its own.)  The counts
    replicate numpy's equal-width fast path — truncated linear index
    map, then the two boundary corrections against the same edges — so
    they agree with the scalar call even where the linear map rounds
    across a bin edge.
    """
    first = windows.min(axis=1)
    last = windows.max(axis=1)
    span = last - first
    step = span / bins
    edges = _edge_ramp(bins) * step[:, None]
    edges += first[:, None]
    edges[:, -1] = last
    live = np.flatnonzero((edges[:, :-1] < edges[:, 1:]).all(axis=1))
    if live.size < windows.shape[0]:
        windows, first, span, edges = (
            windows[live], first[live], span[live], edges[live]
        )
    f = ((windows - first[:, None]) / span[:, None]) * bins
    indices = f.astype(np.intp)
    # f never exceeds bins, so this is numpy's "index == bins -> bins - 1".
    np.minimum(indices, bins - 1, out=indices)
    # Row r's edge i is entry r * (bins + 1) + i of the flat edges.
    row = np.arange(live.size, dtype=np.intp)[:, None]
    flat_edges = edges.ravel()
    row_edges = row * (bins + 1)
    indices -= windows < flat_edges[indices + row_edges]
    indices += (windows >= flat_edges[indices + row_edges + 1]) & (
        indices != bins - 1
    )
    flat = (indices + row * bins).ravel()
    counts = np.bincount(flat, minlength=live.size * bins)
    return live, counts.reshape(live.size, bins)


def renyi_entropy_vectorized(
    windows: np.ndarray,
    alpha: float = 2.0,
    bins: int = 16,
    normalize: bool = False,
) -> np.ndarray:
    positive(alpha, "alpha", SignalError)
    integer(bins, "bins", SignalError, 2)
    windows = _check_windows(windows)
    n_windows, n = windows.shape
    out = np.zeros(n_windows)
    if n == 0:
        return out
    live, counts = _live_histograms(windows, bins)
    occupied = counts > 0
    p = counts[occupied] / n
    if abs(alpha - 1.0) < 1e-12:
        h = -_compacted_row_sums(p * np.log2(p), occupied)
    else:
        h = np.log2(_compacted_row_sums(p**alpha, occupied)) / (1.0 - alpha)
    if normalize:
        h = h / math.log2(bins)
    out[live] = h
    return out


# ---------------------------------------------------------------------------
# DWT details and Welch band powers
# ---------------------------------------------------------------------------


def dwt_details_vectorized(
    windows: np.ndarray, level: int = 7, wavelet: int = 4
) -> dict[int, np.ndarray]:
    _check_wavelet(wavelet)
    return wavelet_plan(wavelet, level).details_batch(windows)


def band_powers_vectorized(
    windows: np.ndarray,
    fs: float,
    bands: tuple[tuple[float, float] | str, ...],
) -> np.ndarray:
    windows = np.asarray(windows, dtype=float)
    lanes = windows.ndim == 3
    if not lanes:
        windows = _check_windows(windows)[:, None]
    n_windows, n_lanes, n = windows.shape
    if n < 8:
        raise SignalError(
            f"signal too short for spectral estimation ({n} samples)"
        )
    if not np.all(np.isfinite(windows)):
        raise SignalError("signal contains NaN or infinite values")
    positive(fs, "fs", SignalError)
    plan = band_plan(n, fs, bands)
    win = hann_window(n)
    out = np.empty((n_windows * n_lanes, len(bands)))
    chunk = max(1, _PSD_CHUNK_BYTES // (8 * n * max(1, n_lanes)))
    for s in range(0, n_windows, chunk):
        # Single full-window Hann segment per row — the extractors' Welch
        # configuration (nperseg = window length, so no averaging).  Each
        # block's temporaries live in the workspace, and every in-place
        # step rounds exactly like its out-of-place spelling.  A lanes
        # batch (say both channels of a sliding view) becomes contiguous
        # rows one block at a time, never as a whole.
        block = windows[s : s + chunk]
        lo = s * n_lanes
        hi = lo + block.shape[0] * n_lanes
        rows = scratch("welch.rows", (hi - lo, n))
        np.copyto(rows.reshape(block.shape), block)
        rows -= rows.mean(axis=1, keepdims=True)
        rows *= win
        spectrum = scratch("welch.spectrum", (hi - lo, n // 2 + 1), complex)
        np.fft.rfft(rows, axis=1, out=spectrum)
        # The PSD takes the spent rows' buffer, and the trapezoid
        # addends the spent spectrum's: each fits in the buffer it takes.
        psd = rows.reshape(-1)[: spectrum.size].reshape(spectrum.shape)
        spent = spectrum.view(float).reshape(-1)
        np.abs(spectrum, out=psd)
        np.square(psd, out=psd)
        psd /= plan.norm
        psd[:, 1:] *= 2.0
        if n % 2 == 0:
            psd[:, -1] /= 2.0
        for col, (bins, spacing) in enumerate(plan.bands):
            if isinstance(bins, int):
                out[lo:hi, col] = psd[:, bins] * spacing
            else:
                # np.trapezoid's formula, spelled out: its internal
                # broadcast product comes back non-C-ordered for 2-D
                # input, and numpy's strided axis-1 reduction rounds
                # differently than the 1-D sums the reference takes.
                # Contiguous addends restore the reference's exact
                # pairwise reduction.
                yband = psd[:, bins]
                addends = spent[: (hi - lo) * spacing.size].reshape(
                    hi - lo, spacing.size
                )
                np.add(yband[:, 1:], yband[:, :-1], out=addends)
                np.multiply(spacing, addends, out=addends)
                addends /= 2.0
                out[lo:hi, col] = addends.sum(axis=1)
    return out.reshape(n_windows, n_lanes, len(bands)) if lanes else out
