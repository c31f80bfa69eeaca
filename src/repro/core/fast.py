"""Exact fast implementation of Algorithm 1.

Produces the same distances as :func:`repro.core.algorithm.
a_posteriori_reference` (property-tested to numerical precision) while
reducing the dominant cost from O(L^2 * W * F) to
O(F * L log L  +  L * W * F).

Decomposition
-------------
For feature ``f`` let ``G`` be the subsampled grid (every ``grid_step``-th
index) and ``S_f(p) = sum_{k in G} |X[p,f] - X[k,f]|`` the distance of
point ``p`` to the *whole* grid.  The window distance needs the sum over
grid points *outside* the window only, so

``D[i, f] = sum_{p in win_i} S_f(X[p, f])  -  C[i, f]``,

where ``C[i, f]`` re-subtracts the pairs whose grid point falls *inside*
window ``i``.  The three pieces are computed as:

* ``S_f`` for all points at once by sorting the grid values and using
  prefix sums — ``sum_k |v - g_k| = v(2r - m) + (P_m - 2 P_r)`` with ``r``
  the rank of ``v`` among the sorted grid values ``g`` and ``P`` their
  prefix sums;
* window sums of ``S_f`` with a cumulative sum;
* the correction ``C`` per grid point rather than per window: each grid
  point ``g`` lies in the ``W`` windows starting in ``(g - W, g]``, and
  their sums of ``|X[p, f] - X[g, f]|`` are differences of one cumulative
  sum over the ``2W - 1`` points around ``g``.  That is ``2W - 1`` terms
  for each of the ``ceil(L / grid_step)`` grid points, hence the
  O(L * W * F) term.
"""

from __future__ import annotations

import numpy as np

from .algorithm import DetectionResult, _normalize, validate_inputs

__all__ = ["a_posteriori_fast", "grid_distance_sums"]


def grid_distance_sums(features: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``S[p, f] = sum_{k in grid} |X[p, f] - X[k, f]|`` for all p, f.

    O(F * (L log L)) via sort + prefix sums instead of the naive
    O(F * L * |grid|).
    """
    length, n_feat = features.shape
    out = np.empty((length, n_feat))
    for f in range(n_feat):
        grid_values = np.sort(features[grid, f])
        prefix = np.concatenate([[0.0], np.cumsum(grid_values)])
        m = grid_values.size
        v = features[:, f]
        rank = np.searchsorted(grid_values, v, side="right")
        out[:, f] = v * (2 * rank - m) + (prefix[m] - 2 * prefix[rank])
    return out


def _window_grid_correction(
    features: np.ndarray, window_length: int, grid_step: int
) -> np.ndarray:
    """``C[i, f] = sum_{p in win_i} sum_{k in grid ∩ win_i} |X[p,f]-X[k,f]|``.

    Summed per grid point instead of per window: grid point ``g`` lies
    in window ``i`` exactly when ``g - W < i <= g``.  One cumulative sum
    over the band ``|X[q,f] - X[g,f]|``, ``q in [g - W + 1, g + W - 1]``,
    gives each of those ``W`` window sums as a difference of two cumsum
    entries, and one ``np.bincount`` per feature scatters them onto the
    window starts in ``[0, L - W)``: ``ceil(L / grid_step) * (2W - 1)``
    terms per feature in place of a per-window gather.
    """
    length, n_feat = features.shape
    w = window_length
    n_win = length - w
    grid = np.arange(0, length, min(grid_step, length))  # [0] for any step >= L
    band = grid[:, None] + np.arange(1 - w, w)  # (m, 2W - 1) point indices
    outside = (band < 0) | (band >= length)
    band = np.clip(band, 0, length - 1)
    # Band offset j starts window g - W + 1 + j, whose sum is
    # cums[j + W] - cums[j].
    starts = grid[:, None] + np.arange(1 - w, 1)  # (m, W)
    kept = (starts >= 0) & (starts < n_win)
    starts = starts[kept]
    cums = np.zeros((grid.size, 2 * w))
    out = np.empty((n_win, n_feat))
    for f in range(n_feat):
        x = features[:, f]
        diff = np.abs(x[band] - x[grid, None])
        diff[outside] = 0.0
        np.cumsum(diff, axis=1, out=cums[:, 1:])
        sums = cums[:, w:] - cums[:, :w]
        out[:, f] = np.bincount(starts, weights=sums[kept], minlength=n_win)
    return out


def a_posteriori_fast(
    features: np.ndarray,
    window_length: int,
    grid_step: int = 4,
    normalize: bool = True,
) -> DetectionResult:
    """Fast Algorithm 1; same inputs, outputs and semantics as
    :func:`~repro.core.algorithm.a_posteriori_reference`."""
    features = validate_inputs(features, window_length, grid_step)
    if normalize:
        features = _normalize(features)
    length, _ = features.shape
    w = window_length
    grid = np.arange(0, length, min(grid_step, length))  # [0] for any step >= L
    normalizer = (length - w) / grid_step  # > 0: W < L and grid_step >= 1

    # Full-grid sums per point, then sliding-window sums over the window.
    point_sums = grid_distance_sums(features, grid)  # (L, F)
    cums = np.concatenate(
        [np.zeros((1, features.shape[1])), np.cumsum(point_sums, axis=0)]
    )
    window_sums = cums[w : length] - cums[0 : length - w]  # (L - W, F)

    correction = _window_grid_correction(features, w, grid_step)
    d = (window_sums - correction) / (normalizer * w)
    distances = np.linalg.norm(d, axis=1)

    position = int(np.argmax(distances))
    return DetectionResult(
        position=position, window_length=w, distances=distances
    )
