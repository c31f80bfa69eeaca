"""Random-forest classifier (Breiman 2001), from scratch.

The paper's supervised real-time detector uses "a classifier based on the
random forest algorithm [28]" over the e-Glass features (Sec. III-C).
This implementation composes :class:`~repro.ml.tree.DecisionTreeClassifier`
with bootstrap resampling and per-node sqrt-feature sampling; probabilities
are averaged across trees (soft voting).

Fitting or loading a forest compiles its trees into one
:class:`~repro.ml.tree.NodeTable`, so scoring walks all trees at once in
a fixed number of vectorized steps.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError, integer
from .tree import DecisionTreeClassifier, NodeTable, check_growth, frozen

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier:
    """Bootstrap-aggregated CART ensemble.

    Parameters
    ----------
    n_estimators:
        Number of trees, an integer >= 1.
    max_depth / min_samples_split / min_samples_leaf:
        Per-tree regularization, as in
        :class:`~repro.ml.tree.DecisionTreeClassifier`.
    max_features:
        Features examined per node (default ``"sqrt"``, the RF standard).
    bootstrap:
        Draw each tree's training set with replacement (n out of n).
    class_weight:
        ``None`` or ``"balanced"``; balanced mode resamples the bootstrap
        so classes appear in equal proportion — useful because seizure
        windows are a small minority in EEG records.
    random_state:
        Seed, a non-negative integer or ``None``; each tree gets an
        independent child generator, so fits are reproducible and trees
        are decorrelated.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = 12,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        class_weight: str | None = None,
        random_state: int | None = 0,
    ) -> None:
        integer(n_estimators, "n_estimators", ModelError, 1)
        check_growth(max_depth, min_samples_split, min_samples_leaf, max_features)
        if random_state is not None:
            integer(random_state, "random_state", ModelError)
        if class_weight not in (None, "balanced"):
            raise ModelError(f"class_weight must be None or 'balanced', got {class_weight!r}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.class_weight = class_weight
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] = []
        self.classes_: np.ndarray | None = None
        # Scoring table of all trees and its leaf distributions padded to
        # classes_, set by fit() / from_state().
        self._table: NodeTable | None = None
        self._proba = frozen(np.empty((0, 0)), float)

    def fit(self, values: np.ndarray, labels: np.ndarray) -> "RandomForestClassifier":
        values, labels = DecisionTreeClassifier._check_xy(values, labels)
        self.classes_ = np.unique(labels)
        if self.classes_.size < 2:
            raise ModelError("need at least two classes to train a classifier")
        root = np.random.SeedSequence(self.random_state)
        children = root.spawn(self.n_estimators)
        self.trees_ = []
        n = values.shape[0]
        for ss in children:
            rng = np.random.default_rng(ss)
            if self.bootstrap:
                idx = self._bootstrap_indices(labels, n, rng)
            else:
                idx = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=rng,
            )
            tree.fit(values[idx], labels[idx])
            self.trees_.append(tree)
        self._compile()
        return self

    def _compile(self) -> None:
        """Concatenate the trees into one scoring table.

        Each tree's leaf distributions are zero-padded to the forest's
        ``classes_`` (a bootstrap replica can miss a class entirely).
        """
        assert self.classes_ is not None
        classes = self.classes_
        if classes.ndim != 1 or not np.all(classes[1:] > classes[:-1]):
            raise ModelError("bad forest state: classes must be sorted and unique")
        padded = []
        for tree in self.trees_:
            assert tree.classes_ is not None
            cols = np.searchsorted(classes, tree.classes_)
            if np.any(cols >= classes.size) or not np.array_equal(
                classes[cols], tree.classes_
            ):
                raise ModelError(
                    f"bad forest state: tree classes {tree.classes_.tolist()} "
                    f"not among forest classes {classes.tolist()}"
                )
            rows = np.zeros((tree.n_nodes, classes.size))
            rows[:, cols] += tree.leaf_proba
            padded.append(rows)
        self._proba = frozen(np.concatenate(padded), float)
        self._table = NodeTable.concat([tree.table for tree in self.trees_])

    def _bootstrap_indices(
        self, labels: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        if self.class_weight != "balanced":
            return rng.integers(0, n, size=n)
        # Balanced bootstrap: sample n/k rows (with replacement) from each
        # of the k classes.
        assert self.classes_ is not None
        per_class = max(1, n // self.classes_.size)
        parts = []
        for cls in self.classes_:
            pool = np.where(labels == cls)[0]
            parts.append(rng.choice(pool, size=per_class, replace=True))
        idx = np.concatenate(parts)
        # A bootstrap sample may miss a class only if the pool was empty,
        # which fit() has already excluded.
        return idx

    def predict_proba(self, values: np.ndarray) -> np.ndarray:
        """Forest probability: the average of per-tree leaf distributions.

        The leaf rows are summed in tree order (``cumsum`` is sequential,
        where ``sum`` would reduce pairwise), so the result is bitwise
        the per-tree accumulation ``acc[:, cols] += tree_proba``.
        """
        if self._table is None:
            raise ModelError("forest is not fitted; call fit() first")
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ModelError(f"expected (n, F) features, got {values.shape}")
        leaf_rows = self._proba[self._table.leaves(values)]
        return np.cumsum(leaf_rows, axis=1)[:, -1] / len(self.trees_)

    def predict(self, values: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(values)
        assert self.classes_ is not None
        return self.classes_[np.argmax(proba, axis=1)]

    @property
    def is_fitted(self) -> bool:
        return bool(self.trees_)

    # ------------------------------------------------------------------
    # Serialization (live detector hot-swap / cross-process shipping)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Plain-data export of a fitted forest (JSON-safe)."""
        if not self.trees_ or self.classes_ is None:
            raise ModelError("forest is not fitted; nothing to serialize")
        return {
            "classes": self.classes_.tolist(),
            "trees": [tree.to_state() for tree in self.trees_],
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "class_weight": self.class_weight,
            "random_state": self.random_state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RandomForestClassifier":
        """Rebuild a fitted forest from :meth:`to_state` output; the
        rebuilt ensemble scores bit-identically to the original.  Each
        tree state is validated by
        :meth:`DecisionTreeClassifier.from_state`."""
        try:
            forest = cls(
                n_estimators=state.get("n_estimators", len(state["trees"])),
                max_depth=state.get("max_depth"),
                min_samples_split=state.get("min_samples_split", 2),
                min_samples_leaf=state.get("min_samples_leaf", 1),
                max_features=state.get("max_features"),
                bootstrap=state.get("bootstrap", True),
                class_weight=state.get("class_weight"),
                random_state=state.get("random_state"),
            )
            forest.classes_ = np.asarray(state["classes"])
            forest.trees_ = [
                DecisionTreeClassifier.from_state(tree)
                for tree in state["trees"]
            ]
            if not forest.trees_:
                raise ModelError("bad forest state: no trees")
            forest._compile()
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"bad forest state: {exc}") from None
        return forest
