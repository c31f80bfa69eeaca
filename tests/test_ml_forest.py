"""Unit tests for the random forest."""

import json

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.forest import RandomForestClassifier


def blobs(rng, n=300, sep=3.0, f=6):
    y = np.repeat([0, 1], n // 2)
    x = rng.standard_normal((n, f))
    x[y == 1, :2] += sep
    return x, y


class TestAccuracy:
    def test_separable_data(self, rng):
        x, y = blobs(rng)
        rf = RandomForestClassifier(n_estimators=15, random_state=0).fit(x, y)
        xt, yt = blobs(rng)
        assert np.mean(rf.predict(xt) == yt) > 0.95

    def test_beats_single_shallow_tree_on_noisy_data(self, rng):
        x, y = blobs(rng, sep=1.2)
        xt, yt = blobs(rng, sep=1.2)
        from repro.ml.tree import DecisionTreeClassifier

        tree = DecisionTreeClassifier(max_depth=None, max_features="sqrt", random_state=0).fit(x, y)
        rf = RandomForestClassifier(n_estimators=25, max_depth=None, random_state=0).fit(x, y)
        acc_tree = np.mean(tree.predict(xt) == yt)
        acc_rf = np.mean(rf.predict(xt) == yt)
        assert acc_rf >= acc_tree - 0.02  # ensemble no worse, usually better


class TestProbabilities:
    def test_rows_sum_to_one(self, rng):
        x, y = blobs(rng)
        rf = RandomForestClassifier(n_estimators=8, random_state=1).fit(x, y)
        proba = rf.predict_proba(x[:20])
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert proba.shape == (20, 2)

    def test_confident_far_from_boundary(self, rng):
        x, y = blobs(rng, sep=6.0)
        rf = RandomForestClassifier(n_estimators=10, random_state=2).fit(x, y)
        proba = rf.predict_proba(x)
        conf = np.max(proba, axis=1)
        assert conf.mean() > 0.9


class TestDeterminismAndDiversity:
    def test_same_seed_reproducible(self, rng):
        x, y = blobs(rng)
        a = RandomForestClassifier(n_estimators=5, random_state=9).fit(x, y)
        b = RandomForestClassifier(n_estimators=5, random_state=9).fit(x, y)
        assert np.array_equal(a.predict_proba(x), b.predict_proba(x))

    def test_different_seeds_differ(self, rng):
        x, y = blobs(rng, sep=1.0)
        a = RandomForestClassifier(n_estimators=5, random_state=0).fit(x, y)
        b = RandomForestClassifier(n_estimators=5, random_state=1).fit(x, y)
        assert not np.array_equal(a.predict_proba(x), b.predict_proba(x))

    def test_trees_are_diverse(self, rng):
        x, y = blobs(rng, sep=0.8)
        rf = RandomForestClassifier(n_estimators=5, random_state=0).fit(x, y)
        preds = [t.predict(x) for t in rf.trees_]
        assert any(not np.array_equal(preds[0], p) for p in preds[1:])


class TestBalancedMode:
    def test_balanced_helps_minority_recall(self, rng):
        # 95/5 imbalance.
        x = rng.standard_normal((400, 4))
        y = np.zeros(400, dtype=int)
        y[:20] = 1
        x[y == 1, 0] += 2.0
        plain = RandomForestClassifier(n_estimators=15, random_state=0).fit(x, y)
        balanced = RandomForestClassifier(
            n_estimators=15, class_weight="balanced", random_state=0
        ).fit(x, y)
        recall_plain = np.mean(plain.predict(x[y == 1]) == 1)
        recall_bal = np.mean(balanced.predict(x[y == 1]) == 1)
        assert recall_bal >= recall_plain

    def test_invalid_class_weight_raises(self):
        with pytest.raises(ModelError):
            RandomForestClassifier(class_weight="auto")


class TestValidation:
    def test_predict_before_fit_raises(self, rng):
        with pytest.raises(ModelError):
            RandomForestClassifier().predict(rng.standard_normal((3, 2)))

    def test_single_class_raises(self, rng):
        with pytest.raises(ModelError):
            RandomForestClassifier().fit(rng.standard_normal((10, 2)), np.zeros(10))

    def test_zero_estimators_raises(self):
        with pytest.raises(ModelError):
            RandomForestClassifier(n_estimators=0)


def walked_proba(tree_state, x):
    """Leaf distributions of one serialized tree, walked row by row in
    plain Python — independent of the compiled node table."""
    feature, threshold = tree_state["feature"], tree_state["threshold"]
    left, right = tree_state["left"], tree_state["right"]
    out = []
    for row in x:
        node = 0
        while feature[node] >= 0:
            go_left = row[feature[node]] <= threshold[node]
            node = left[node] if go_left else right[node]
        out.append(tree_state["proba"][node])
    return np.array(out, dtype=float).reshape(len(x), len(tree_state["classes"]))


def reference_proba(forest, x):
    """The per-tree soft vote, accumulated in tree order."""
    acc = np.zeros((x.shape[0], forest.classes_.size))
    for tree in forest.trees_:
        proba = tree.predict_proba(x)
        assert np.array_equal(proba, walked_proba(tree.to_state(), x))
        cols = np.searchsorted(forest.classes_, tree.classes_)
        acc[:, cols] += proba
    return acc / len(forest.trees_)


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


class TestReferenceParity:
    """The compiled forest table scores bitwise like the per-tree loop."""

    @pytest.fixture()
    def three_class_forest(self, rng):
        x = rng.standard_normal((90, 5))
        y = np.zeros(90, dtype=int)
        y[:30] = 1
        y[:3] = 2  # rare: plain bootstraps miss it
        x[y == 1, 0] += 1.5
        x[y == 2, 1] += 3.0
        # Shallow trees keep mixed leaves, so leaf probabilities are
        # inexact fractions and the summation order shows in the bits.
        forest = RandomForestClassifier(
            n_estimators=25, max_depth=3, min_samples_leaf=4, random_state=4
        ).fit(x, y)
        assert any(t.classes_.size < 3 for t in forest.trees_)
        return forest

    @pytest.fixture()
    def probe(self, rng):
        x = 2.0 * rng.standard_normal((64, 5))
        x[rng.random(x.shape) < 0.1] = np.nan
        x[rng.random(x.shape) < 0.05] = np.inf
        x[rng.random(x.shape) < 0.05] = -np.inf
        x[0] = np.nan
        x[1] = np.inf
        x[2] = -np.inf
        return x

    def test_batch_matches_reference(self, three_class_forest, probe):
        assert np.array_equal(
            bits(three_class_forest.predict_proba(probe)),
            bits(reference_proba(three_class_forest, probe)),
        )

    def test_rows_alone_match_the_batch(self, three_class_forest, probe):
        batch = three_class_forest.predict_proba(probe)
        for i in range(probe.shape[0]):
            alone = three_class_forest.predict_proba(probe[i : i + 1])
            assert np.array_equal(bits(alone), bits(batch[i : i + 1]))

    def test_json_round_trip_matches_reference(self, three_class_forest, probe):
        state = three_class_forest.to_state()
        rebuilt = RandomForestClassifier.from_state(json.loads(json.dumps(state)))
        assert np.array_equal(
            bits(rebuilt.predict_proba(probe)),
            bits(reference_proba(three_class_forest, probe)),
        )
        assert json.dumps(rebuilt.to_state()) == json.dumps(state)

    def test_balanced_binary_forest(self, rng, probe):
        x, y = blobs(rng, n=200, sep=1.0, f=5)
        forest = RandomForestClassifier(
            n_estimators=20, max_depth=3, class_weight="balanced", random_state=0
        ).fit(x, y)
        assert np.array_equal(
            bits(forest.predict_proba(probe)),
            bits(reference_proba(forest, probe)),
        )

    def test_empty_batch(self, three_class_forest):
        assert three_class_forest.predict_proba(np.empty((0, 5))).shape == (0, 3)
