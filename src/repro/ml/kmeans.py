"""Unsupervised clustering baselines: k-means and k-medoids.

Related work (Sec. II) cites Smart & Chen (CIBCB 2015), where "the best
results are obtained for the k-means and k-mediod algorithms" among
unsupervised real-time seizure detectors — the comparison point for the
paper's claim that self-labeled *supervised* detection outperforms fully
unsupervised detection.  ``benchmarks/bench_baseline_unsupervised.py``
re-runs that comparison on the synthetic cohort.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError, at_least, integer, matrix

__all__ = ["KMeans", "KMedoids", "cluster_seizure_labels"]


def _check_common(n_clusters: int, max_iter: int, random_state: int | None) -> None:
    integer(n_clusters, "n_clusters", ModelError, 1)
    integer(max_iter, "max_iter", ModelError, 1)
    if random_state is not None:
        integer(random_state, "random_state", ModelError)


class KMeans:
    """Lloyd's algorithm with k-means++ initialization.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``, an integer >= 1.
    n_init:
        Independent restarts, an integer >= 1; the inertia-best run wins.
    max_iter / tol:
        Lloyd iteration limits: an integer >= 1 and a finite shift >= 0.
    random_state:
        Seed for initialization, a non-negative integer or ``None``.
    """

    def __init__(
        self,
        n_clusters: int = 2,
        n_init: int = 5,
        max_iter: int = 100,
        tol: float = 1e-6,
        random_state: int | None = 0,
    ) -> None:
        _check_common(n_clusters, max_iter, random_state)
        self.n_clusters = n_clusters
        self.n_init = integer(n_init, "n_init", ModelError, 1)
        self.max_iter = max_iter
        self.tol = at_least(tol, "tol", ModelError, 0)
        self.random_state = random_state
        self.centers_: np.ndarray | None = None
        self.inertia_: float | None = None

    # ------------------------------------------------------------------
    def _init_centers(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding."""
        n = values.shape[0]
        centers = [values[rng.integers(n)]]
        for _ in range(1, self.n_clusters):
            d2 = np.min(
                ((values[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(axis=2),
                axis=1,
            )
            total = d2.sum()
            if total <= 0:
                centers.append(values[rng.integers(n)])
                continue
            probs = d2 / total
            centers.append(values[rng.choice(n, p=probs)])
        return np.asarray(centers)

    def fit(self, values: np.ndarray) -> "KMeans":
        values = matrix(values, "features", ModelError)
        if values.shape[0] < self.n_clusters:
            raise ModelError(
                f"{values.shape[0]} samples < {self.n_clusters} clusters"
            )
        root = np.random.SeedSequence(self.random_state)
        best_inertia = np.inf
        best_centers: np.ndarray | None = None
        for ss in root.spawn(self.n_init):
            rng = np.random.default_rng(ss)
            centers = self._init_centers(values, rng)
            for _ in range(self.max_iter):
                assign = self._assign(values, centers)
                new_centers = centers.copy()
                for k in range(self.n_clusters):
                    members = values[assign == k]
                    if members.size:
                        new_centers[k] = members.mean(axis=0)
                shift = np.linalg.norm(new_centers - centers)
                centers = new_centers
                if shift < self.tol:
                    break
            assign = self._assign(values, centers)
            inertia = float(
                ((values - centers[assign]) ** 2).sum()
            )
            if inertia < best_inertia:
                best_inertia = inertia
                best_centers = centers
        self.centers_ = best_centers
        self.inertia_ = best_inertia
        return self

    @staticmethod
    def _assign(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
        d2 = ((values[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    def predict(self, values: np.ndarray) -> np.ndarray:
        if self.centers_ is None:
            raise ModelError("k-means is not fitted")
        return self._assign(matrix(values, "features", ModelError), self.centers_)

    def fit_predict(self, values: np.ndarray) -> np.ndarray:
        return self.fit(values).predict(values)


class KMedoids:
    """Alternating k-medoids (Voronoi iteration / PAM-lite).

    Medoids are constrained to be data points, making the method robust to
    the heavy-tailed feature distributions EEG artifacts produce.
    ``n_clusters``, ``max_iter`` and ``random_state`` are checked as for
    :class:`KMeans`.
    """

    def __init__(
        self,
        n_clusters: int = 2,
        max_iter: int = 50,
        random_state: int | None = 0,
    ) -> None:
        _check_common(n_clusters, max_iter, random_state)
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.random_state = random_state
        self.medoid_indices_: np.ndarray | None = None
        self.medoids_: np.ndarray | None = None

    def fit(self, values: np.ndarray) -> "KMedoids":
        values = matrix(values, "features", ModelError)
        n = values.shape[0]
        if n < self.n_clusters:
            raise ModelError(f"{n} samples < {self.n_clusters} clusters")
        rng = np.random.default_rng(self.random_state)
        # Pairwise distances once; the cohort's per-record window counts
        # keep this comfortably in memory.
        dist = np.linalg.norm(values[:, None, :] - values[None, :, :], axis=2)
        medoids = rng.choice(n, size=self.n_clusters, replace=False)
        for _ in range(self.max_iter):
            assign = np.argmin(dist[:, medoids], axis=1)
            new_medoids = medoids.copy()
            for k in range(self.n_clusters):
                members = np.where(assign == k)[0]
                if members.size == 0:
                    continue
                within = dist[np.ix_(members, members)].sum(axis=1)
                new_medoids[k] = members[np.argmin(within)]
            if np.array_equal(np.sort(new_medoids), np.sort(medoids)):
                break
            medoids = new_medoids
        self.medoid_indices_ = medoids
        self.medoids_ = values[medoids]
        return self

    def predict(self, values: np.ndarray) -> np.ndarray:
        if self.medoids_ is None:
            raise ModelError("k-medoids is not fitted")
        values = matrix(values, "features", ModelError)
        d = np.linalg.norm(values[:, None, :] - self.medoids_[None, :, :], axis=2)
        return np.argmin(d, axis=1)

    def fit_predict(self, values: np.ndarray) -> np.ndarray:
        return self.fit(values).predict(values)


def cluster_seizure_labels(assignments: np.ndarray) -> np.ndarray:
    """Map 2-cluster assignments to {0: non-seizure, 1: seizure}.

    The unsupervised baselines have no labels, so the standard convention
    (Smart & Chen) is applied: the *minority* cluster is declared seizure,
    since ictal windows are rare in any realistic record.
    """
    assignments = np.asarray(assignments)
    ones = int((assignments == 1).sum())
    zeros = assignments.size - ones
    if ones <= zeros:
        return (assignments == 1).astype(np.int64)
    return (assignments == 0).astype(np.int64)
