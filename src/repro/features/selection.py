"""Backward-elimination feature selection (Devijver & Kittler, 1982).

Sec. III-A: "As some of the features extracted contain redundant
information, we use backward elimination to sort them in order of
relevance.  We observed that extracting the ten most relevant features
offers a proper trade-off between accuracy and complexity."

Backward elimination starts from the full feature set and repeatedly
removes the feature whose removal *least hurts* (or most helps) a scoring
criterion evaluated on the remaining subset; the removal order, reversed,
ranks the features by relevance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..exceptions import FeatureError, integer, matrix

__all__ = [
    "fisher_ratio",
    "fisher_mean_score",
    "nearest_centroid_score",
    "backward_elimination",
    "SelectionResult",
]

Scorer = Callable[[np.ndarray, np.ndarray], float]


def _check_xy(values: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values = matrix(values, "features", FeatureError)
    labels = np.asarray(labels)
    if labels.shape != (values.shape[0],):
        raise FeatureError(
            f"labels shape {labels.shape} incompatible with {values.shape[0]} rows"
        )
    if np.unique(labels).size < 2:
        raise FeatureError("need at least two classes to score separability")
    return values, labels


def fisher_ratio(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-feature Fisher discriminant ratio for binary labels.

    ``(mu1 - mu0)^2 / (var0 + var1)`` per column; larger = more separable.
    Zero-variance features score 0.
    """
    values, labels = _check_xy(values, labels)
    classes = np.unique(labels)
    if classes.size != 2:
        raise FeatureError(f"fisher_ratio is binary-only, got {classes.size} classes")
    a = values[labels == classes[0]]
    b = values[labels == classes[1]]
    num = (a.mean(axis=0) - b.mean(axis=0)) ** 2
    den = a.var(axis=0) + b.var(axis=0)
    out = np.zeros(values.shape[1])
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    return out


def fisher_mean_score(values: np.ndarray, labels: np.ndarray) -> float:
    """Mean Fisher ratio of a feature subset — the default, fast criterion.

    Using the *mean* (not the sum) makes the criterion non-monotone in the
    subset, so backward elimination actually prunes redundant low-ratio
    features instead of degenerating into a single-pass ranking.
    """
    return float(fisher_ratio(values, labels).mean())


def nearest_centroid_score(
    values: np.ndarray, labels: np.ndarray, n_folds: int = 3, seed: int = 0
) -> float:
    """Cross-validated nearest-centroid accuracy of a feature subset.

    Captures feature interactions (unlike per-feature ratios) while staying
    cheap enough to sit inside the elimination loop.
    """
    values, labels = _check_xy(values, labels)
    n = values.shape[0]
    if n < 2 * n_folds:
        raise FeatureError(f"too few samples ({n}) for {n_folds}-fold scoring")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = np.array_split(order, n_folds)
    correct = 0
    for held in folds:
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        train_x, train_y = values[mask], labels[mask]
        classes = np.unique(train_y)
        # Standardize on train statistics so no feature dominates.
        mu = train_x.mean(axis=0)
        sd = train_x.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        centroids = np.vstack(
            [((train_x[train_y == c] - mu) / sd).mean(axis=0) for c in classes]
        )
        test_z = (values[held] - mu) / sd
        dists = np.linalg.norm(test_z[:, None, :] - centroids[None, :, :], axis=2)
        pred = classes[np.argmin(dists, axis=1)]
        correct += int((pred == labels[held]).sum())
    return correct / n


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of backward elimination.

    Attributes
    ----------
    ranking:
        Feature indices from most to least relevant (the reverse of the
        elimination order).
    scores_by_size:
        ``scores_by_size[k]`` is the criterion value of the best subset of
        size ``k`` encountered (k from n_features down to 1).
    """

    ranking: tuple[int, ...]
    scores_by_size: dict[int, float]

    def top(self, k: int) -> tuple[int, ...]:
        """Indices of the ``k`` most relevant features."""
        if not 1 <= k <= len(self.ranking):
            raise FeatureError(
                f"k must be in [1, {len(self.ranking)}], got {k}"
            )
        return self.ranking[:k]


def backward_elimination(
    values: np.ndarray,
    labels: np.ndarray,
    scorer: Scorer = fisher_mean_score,
    min_features: int = 1,
    feature_names: Sequence[str] | None = None,
) -> SelectionResult:
    """Rank features by iterative backward elimination.

    At each step, every candidate single-feature removal is scored and the
    removal yielding the highest remaining-subset score is applied.  The
    last-removed features are the most relevant.

    Parameters
    ----------
    values, labels:
        Training data, shape (n, F) and (n,); the values finite.
    scorer:
        Subset criterion; higher is better.
    min_features:
        Stop eliminating when this many features remain (they occupy the
        top of the ranking in elimination-score order); an integer in
        ``[1, F]``.
    feature_names:
        Optional; only used to validate length.
    """
    values, labels = _check_xy(values, labels)
    n_feat = values.shape[1]
    if feature_names is not None and len(feature_names) != n_feat:
        raise FeatureError(
            f"{len(feature_names)} names for {n_feat} feature columns"
        )
    if integer(min_features, "min_features", FeatureError, 1) > n_feat:
        raise FeatureError(f"min_features must be in [1, {n_feat}]")

    remaining = list(range(n_feat))
    eliminated: list[int] = []
    scores_by_size: dict[int, float] = {n_feat: scorer(values, labels)}

    while len(remaining) > min_features:
        best_score = -np.inf
        best_idx = remaining[0]
        for idx in remaining:
            subset = [j for j in remaining if j != idx]
            score = scorer(values[:, subset], labels)
            if score > best_score:
                best_score = score
                best_idx = idx
        remaining.remove(best_idx)
        eliminated.append(best_idx)
        scores_by_size[len(remaining)] = best_score

    # Rank the survivors among themselves by their solo criterion so the
    # full ranking is a total order.
    solo = [(scorer(values[:, [j]], labels), j) for j in remaining]
    survivors = [j for _, j in sorted(solo, reverse=True)]
    ranking = tuple(survivors + eliminated[::-1])
    return SelectionResult(ranking=ranking, scores_by_size=scores_by_size)
