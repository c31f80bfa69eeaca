"""CART decision-tree classifier built from scratch.

The paper's real-time detector is "a classifier based on the random forest
algorithm" (Sec. III-C); scikit-learn is unavailable offline, so this is a
clean-room CART implementation: binary splits chosen by Gini impurity with
a vectorized sort-and-scan search, depth/leaf-size regularization, and
per-node random feature subsampling (the hook the forest uses).

A fitted tree is a set of frozen numpy node arrays (feature, threshold,
children, leaf distribution), built once at the end of :meth:`fit` or in
:meth:`from_state`.  Scoring walks a :class:`NodeTable` derived from them
at the same moment: leaves point at themselves, so every row takes the
same fixed number of vectorized steps and no per-call rebuild remains.
The forest concatenates its trees' tables and walks them all at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError, integer, matrix

__all__ = ["DecisionTreeClassifier", "NodeTable", "check_growth"]


def check_growth(
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int | str | None,
) -> None:
    """Refuse tree-growth parameters outside their documented ranges
    (:class:`~repro.exceptions.ModelError`); a forest checks the ones it
    hands its trees at construction, not at ``fit``."""
    if max_depth is not None:
        integer(max_depth, "max_depth", ModelError, 1)
    integer(min_samples_split, "min_samples_split", ModelError, 2)
    integer(min_samples_leaf, "min_samples_leaf", ModelError, 1)
    if max_features is not None and max_features != "sqrt":
        integer(max_features, "max_features", ModelError, 1)


def frozen(values, dtype) -> np.ndarray:
    """A read-only numpy copy of ``values``."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class NodeTable:
    """The scoring form of one or more trees, nodes concatenated.

    A leaf points at itself and reads column 0, so ``depth`` steps from
    the ``roots`` land every row on its leaf whatever its path length.
    A row goes left when ``value <= threshold`` (NaN goes right).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    roots: np.ndarray
    depth: int
    width: int  # feature columns the splits read: max split feature + 1

    @classmethod
    def of_tree(
        cls,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
    ) -> "NodeTable":
        """Table of one validated tree (root 0, leaves marked ``-1``)."""
        leaf = feature < 0
        ids = np.arange(feature.size)
        depth, level = 0, np.zeros(1, dtype=np.int64)
        while True:
            level = level[~leaf[level]]
            if level.size == 0:
                break
            level = np.concatenate([left[level], right[level]])
            depth += 1
        return cls(
            feature=frozen(np.where(leaf, 0, feature), np.int64),
            threshold=threshold,
            left=frozen(np.where(leaf, ids, left), np.int64),
            right=frozen(np.where(leaf, ids, right), np.int64),
            roots=frozen([0], np.int64),
            depth=depth,
            width=int(feature.max()) + 1,
        )

    @classmethod
    def concat(cls, tables: Sequence["NodeTable"]) -> "NodeTable":
        """One table walking every tree of ``tables`` at once."""
        offsets = np.cumsum([0] + [t.feature.size for t in tables[:-1]])

        def shifted(name: str) -> np.ndarray:
            parts = [getattr(t, name) + o for t, o in zip(tables, offsets)]
            return frozen(np.concatenate(parts), np.int64)

        return cls(
            feature=frozen(np.concatenate([t.feature for t in tables]), np.int64),
            threshold=frozen(np.concatenate([t.threshold for t in tables]), float),
            left=shifted("left"),
            right=shifted("right"),
            roots=shifted("roots"),
            depth=max(t.depth for t in tables),
            width=max(t.width for t in tables),
        )

    def leaves(self, values: np.ndarray) -> np.ndarray:
        """Leaf node of every row in every tree, shape (n_rows, n_trees)."""
        n_rows, n_cols = values.shape
        if n_cols < self.width:
            raise ModelError(
                f"splits read {self.width} feature columns, got {n_cols}"
            )
        flat = values.ravel()
        base = np.arange(0, n_rows * n_cols, n_cols)[:, None]
        node = np.tile(self.roots, (n_rows, 1))
        for _ in range(self.depth):
            go_left = flat[base + self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return node


class DecisionTreeClassifier:
    """Binary-split CART classifier.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0), an integer >= 1; ``None``
        grows until pure.
    min_samples_split:
        Minimum node size eligible for splitting, an integer >= 2.
    min_samples_leaf:
        Minimum samples each child must retain, an integer >= 1.
    max_features:
        Features examined per node: ``None`` (all), ``"sqrt"``, or an
        integer >= 1.
    random_state:
        Seed (a non-negative integer) or Generator for feature
        subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        check_growth(max_depth, min_samples_split, min_samples_leaf, max_features)
        if random_state is not None and not isinstance(
            random_state, np.random.Generator
        ):
            integer(random_state, "random_state", ModelError)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.classes_: np.ndarray | None = None
        # Frozen node arrays (leaves have feature and children -1) and
        # their scoring table, set by fit() / from_state().
        self._feature = frozen([], np.int64)
        self._threshold = frozen([], float)
        self._left = frozen([], np.int64)
        self._right = frozen([], np.int64)
        self._proba = frozen(np.empty((0, 0)), float)
        self._table: NodeTable | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, values: np.ndarray, labels: np.ndarray) -> "DecisionTreeClassifier":
        values, labels = self._check_xy(values, labels)
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        n_classes = self.classes_.size
        rng = (
            self.random_state
            if isinstance(self.random_state, np.random.Generator)
            else np.random.default_rng(self.random_state)
        )
        n_features = values.shape[1]
        if self.max_features is None:
            n_try = n_features
        elif self.max_features == "sqrt":
            n_try = max(1, int(np.sqrt(n_features)))
        else:
            n_try = min(self.max_features, n_features)

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        proba: list[np.ndarray] = []

        # Iterative growth: stack of (sample_indices, depth, parent_slot).
        # parent_slot is (node_id, 'left'|'right') to patch after creation.
        stack: list[tuple[np.ndarray, int, tuple[int, str] | None]] = [
            (np.arange(values.shape[0]), 0, None)
        ]
        while stack:
            idx, depth, parent = stack.pop()
            node_id = len(feature)
            counts = np.bincount(encoded[idx], minlength=n_classes).astype(float)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            proba.append(counts / counts.sum())
            if parent is not None:
                pid, side = parent
                if side == "left":
                    left[pid] = node_id
                else:
                    right[pid] = node_id

            if self._should_stop(encoded[idx], depth):
                continue
            split = self._best_split(values, encoded, idx, n_classes, n_try, rng)
            if split is None:
                continue
            feat, thr, left_idx, right_idx = split
            feature[node_id] = feat
            threshold[node_id] = thr
            stack.append((right_idx, depth + 1, (node_id, "right")))
            stack.append((left_idx, depth + 1, (node_id, "left")))
        self._set_nodes(feature, threshold, left, right, proba)
        return self

    def _set_nodes(self, feature, threshold, left, right, proba) -> None:
        """Freeze the node arrays, check they form a tree as :meth:`fit`
        grows one, and build the scoring table.

        Children come after their parent, so a valid state has no cycle
        and its walk always ends; every rule failure is a
        :class:`ModelError` here rather than a hang or an ``IndexError``
        at the first scored row.
        """
        assert self.classes_ is not None
        feature = frozen(feature, np.int64)
        threshold = frozen(threshold, float)
        left = frozen(left, np.int64)
        right = frozen(right, np.int64)
        proba = frozen(proba, float)
        n = feature.size
        if n == 0:
            raise ModelError("bad tree state: empty tree")
        if any(a.shape != (n,) for a in (feature, threshold, left, right)):
            raise ModelError("bad tree state: node arrays differ in length")
        if proba.shape != (n, self.classes_.size):
            raise ModelError(
                f"bad tree state: proba must be {n} rows of "
                f"{self.classes_.size} classes, got shape {proba.shape}"
            )
        if not np.all(np.isfinite(threshold)):
            raise ModelError("bad tree state: non-finite threshold")
        if not (np.all(np.isfinite(proba)) and np.all(proba >= 0.0)):
            raise ModelError("bad tree state: leaf distribution not finite and >= 0")
        leaf = feature == -1
        if np.any(feature < -1):
            raise ModelError("bad tree state: internal node with negative feature")
        if np.any(left[leaf] != -1) or np.any(right[leaf] != -1):
            raise ModelError("bad tree state: leaf with children")
        ids = np.flatnonzero(~leaf)
        for child in (left[ids], right[ids]):
            if np.any(child <= ids) or np.any(child >= n):
                raise ModelError(
                    "bad tree state: child index not in (node_id, n_nodes)"
                )
        children = np.sort(np.concatenate([left[ids], right[ids]]))
        if not np.array_equal(children, np.arange(1, n)):
            raise ModelError("bad tree state: node without exactly one parent")
        self._feature, self._threshold = feature, threshold
        self._left, self._right, self._proba = left, right, proba
        self._table = NodeTable.of_tree(feature, threshold, left, right)

    def _should_stop(self, node_labels: np.ndarray, depth: int) -> bool:
        if node_labels.size < self.min_samples_split:
            return True
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        return bool(np.all(node_labels == node_labels[0]))

    def _best_split(
        self,
        values: np.ndarray,
        encoded: np.ndarray,
        idx: np.ndarray,
        n_classes: int,
        n_try: int,
        rng: np.random.Generator,
    ) -> tuple[int, float, np.ndarray, np.ndarray] | None:
        """Vectorized Gini split search over a random feature subset."""
        n = idx.size
        labels = encoded[idx]
        features = rng.choice(values.shape[1], size=n_try, replace=False)
        best_gain = 1e-12
        best: tuple[int, float] | None = None
        total_counts = np.bincount(labels, minlength=n_classes).astype(float)
        parent_gini = 1.0 - ((total_counts / n) ** 2).sum()

        for feat in features:
            col = values[idx, feat]
            order = np.argsort(col, kind="stable")
            sorted_col = col[order]
            sorted_lab = labels[order]
            # One-hot cumulative class counts along the sorted order.
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), sorted_lab] = 1.0
            cum = np.cumsum(onehot, axis=0)
            # Candidate split after position i (left = [0..i]).
            left_n = np.arange(1, n, dtype=float)
            right_n = n - left_n
            left_counts = cum[:-1]
            right_counts = total_counts[None, :] - left_counts
            gini_l = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=1)
            gini_r = 1.0 - ((right_counts / right_n[:, None]) ** 2).sum(axis=1)
            weighted = (left_n * gini_l + right_n * gini_r) / n
            gain = parent_gini - weighted
            # Valid splits: value actually changes and both children are
            # large enough.
            valid = sorted_col[1:] > sorted_col[:-1]
            valid &= left_n >= self.min_samples_leaf
            valid &= right_n >= self.min_samples_leaf
            gain = np.where(valid, gain, -np.inf)
            if gain.size == 0:
                continue
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                best_gain = float(gain[pos])
                thr = 0.5 * (sorted_col[pos] + sorted_col[pos + 1])
                best = (int(feat), float(thr))

        if best is None:
            return None
        feat, thr = best
        mask = values[idx, feat] <= thr
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if left_idx.size == 0 or right_idx.size == 0:
            return None
        return feat, thr, left_idx, right_idx

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_proba(self, values: np.ndarray) -> np.ndarray:
        """Class-probability estimates, shape (n, n_classes)."""
        values = self._check_fitted_x(values)
        assert self._table is not None
        return self._proba[self._table.leaves(values)[:, 0]]

    def predict(self, values: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        proba = self.predict_proba(values)  # raises ModelError if unfitted
        assert self.classes_ is not None
        return self.classes_[np.argmax(proba, axis=1)]

    @property
    def n_nodes(self) -> int:
        return self._feature.size

    @property
    def depth(self) -> int:
        """Actual depth of the grown tree."""
        if self._table is None:
            raise ModelError("tree is not fitted")
        return self._table.depth

    @property
    def table(self) -> NodeTable:
        """The frozen scoring table (leaf ``i`` is node ``i``)."""
        if self._table is None:
            raise ModelError("tree is not fitted")
        return self._table

    @property
    def leaf_proba(self) -> np.ndarray:
        """Frozen per-node class distributions, columns ``classes_``."""
        return self._proba

    # ------------------------------------------------------------------
    # Serialization (live detector hot-swap / cross-process shipping)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Plain-data export of a fitted tree.

        JSON-safe by construction (ints, floats, nested lists); float64
        thresholds and leaf distributions round-trip exactly through
        ``repr`` so a deserialized tree scores bit-identically.
        """
        if self.classes_ is None:
            raise ModelError("tree is not fitted; nothing to serialize")
        return {
            "classes": self.classes_.tolist(),
            "feature": self._feature.tolist(),
            "threshold": self._threshold.tolist(),
            "left": self._left.tolist(),
            "right": self._right.tolist(),
            "proba": self._proba.tolist(),
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from :meth:`to_state` output.

        The training ``random_state`` is deliberately not shipped (a
        generator is not state-portable); the rebuilt tree predicts
        identically and can only be refit with an explicit seed.  States
        arrive off the wire, so the node arrays are validated as in
        :meth:`_set_nodes` and a malformed one raises :class:`ModelError`.
        """
        try:
            tree = cls(
                max_depth=state.get("max_depth"),
                min_samples_split=state.get("min_samples_split", 2),
                min_samples_leaf=state.get("min_samples_leaf", 1),
                max_features=state.get("max_features"),
            )
            tree.classes_ = np.asarray(state["classes"])
            if tree.classes_.ndim != 1 or tree.classes_.size < 1:
                raise ModelError("bad tree state: classes must be a non-empty list")
            tree._set_nodes(
                state["feature"], state["threshold"], state["left"],
                state["right"], state["proba"],
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"bad tree state: {exc}") from None
        return tree

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_xy(values: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = matrix(values, "features", ModelError)
        labels = np.asarray(labels)
        if labels.shape != (values.shape[0],):
            raise ModelError(
                f"labels shape {labels.shape} incompatible with {values.shape[0]} rows"
            )
        if values.shape[0] == 0:
            raise ModelError("cannot fit on an empty dataset")
        return values, labels

    def _check_fitted_x(self, values: np.ndarray) -> np.ndarray:
        if self._table is None:
            raise ModelError("tree is not fitted; call fit() first")
        return matrix(values, "features", ModelError, finite=False)
