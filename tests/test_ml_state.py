"""Serialization round-trips: tree, forest, and detector state.

The hot-swap and re-homing machinery ships retrained detectors between
processes as ``to_state()`` payloads; these tests pin the contract that
a JSON round trip reproduces *bit-identical* scores — window decisions
after a swap or a shard restart must not drift by one ULP.
"""

import json

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.selflearning.detector import RealTimeDetector


def make_xy(n=200, d=6, seed=3):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, d))
    labels = (values[:, 0] + 0.5 * values[:, 1] > 0).astype(np.int64)
    return values, labels


def json_round_trip(state):
    """Exactly what the wire does to a state payload."""
    return json.loads(json.dumps(state))


class TestTreeState:
    def test_round_trip_scores_bit_identical(self):
        values, labels = make_xy()
        tree = DecisionTreeClassifier(max_depth=6, random_state=1)
        tree.fit(values, labels)
        probe = np.random.default_rng(9).standard_normal((64, values.shape[1]))
        rebuilt = DecisionTreeClassifier.from_state(
            json_round_trip(tree.to_state())
        )
        assert np.array_equal(
            tree.predict_proba(probe), rebuilt.predict_proba(probe)
        )

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().to_state()

    def test_bad_state_raises(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier.from_state({"classes": [0, 1]})


class TestForestState:
    def test_round_trip_probabilities_bit_identical(self):
        values, labels = make_xy()
        forest = RandomForestClassifier(
            n_estimators=7, max_depth=5, random_state=2
        )
        forest.fit(values, labels)
        probe = np.random.default_rng(4).standard_normal((64, values.shape[1]))
        rebuilt = RandomForestClassifier.from_state(
            json_round_trip(forest.to_state())
        )
        assert rebuilt.is_fitted
        assert np.array_equal(
            forest.predict_proba(probe), rebuilt.predict_proba(probe)
        )
        assert np.array_equal(forest.classes_, rebuilt.classes_)

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            RandomForestClassifier().to_state()

    def test_bad_state_raises(self):
        with pytest.raises(ModelError):
            RandomForestClassifier.from_state({"trees": []})


class TestDetectorState:
    def test_round_trip_probabilities_bit_identical(self, fitted_detector):
        state = json_round_trip(fitted_detector.to_state())
        rebuilt = RealTimeDetector.from_state(state)
        assert rebuilt.is_fitted
        assert rebuilt.threshold == fitted_detector.threshold
        assert rebuilt.spec == fitted_detector.spec
        assert type(rebuilt.extractor) is type(fitted_detector.extractor)
        probe = np.random.default_rng(11).standard_normal(
            (32, fitted_detector.extractor.n_features)
        )
        assert np.array_equal(
            fitted_detector.row_probabilities(probe),
            rebuilt.row_probabilities(probe),
        )

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            RealTimeDetector().to_state()

    def test_unknown_extractor_raises(self, fitted_detector):
        state = fitted_detector.to_state()
        state["extractor"] = "NoSuchExtractor"
        with pytest.raises(ModelError):
            RealTimeDetector.from_state(state)

    def test_missing_field_raises(self, fitted_detector):
        state = fitted_detector.to_state()
        del state["scaler"]
        with pytest.raises(ModelError):
            RealTimeDetector.from_state(state)


def stump_state():
    """A valid hand-built stump: x0 <= 0.5 -> class 0, else class 1."""
    return {
        "classes": [0, 1],
        "feature": [0, -1, -1],
        "threshold": [0.5, 0.0, 0.0],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "proba": [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]],
    }


class TestTreeStateValidation:
    """Tree states arrive off the wire (``swap_detector``, the ``open``
    frame's ``state``): each malformed shape is refused at load time
    with ModelError — never a hang or an IndexError at the first
    scored row."""

    def test_valid_stump_scores(self):
        tree = DecisionTreeClassifier.from_state(stump_state())
        proba = tree.predict_proba(np.array([[0.0], [0.5], [1.0], [np.nan]]))
        assert proba.tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        assert tree.depth == 1

    def test_arrays_of_unequal_length(self):
        state = stump_state()
        state["threshold"] = [0.5, 0.0]
        with pytest.raises(ModelError, match="length"):
            DecisionTreeClassifier.from_state(state)

    def test_cyclic_tree(self):
        """The two-node self-loop that used to spin predict_proba."""
        state = {
            "classes": [0, 1],
            "feature": [0, -1],
            "threshold": [0.0, 0.0],
            "left": [0, -1],
            "right": [1, -1],
            "proba": [[0.5, 0.5], [1.0, 0.0]],
        }
        with pytest.raises(ModelError, match="child"):
            DecisionTreeClassifier.from_state(state)

    def test_child_out_of_range(self):
        state = stump_state()
        state["right"] = [7, -1, -1]
        with pytest.raises(ModelError, match="child"):
            DecisionTreeClassifier.from_state(state)

    def test_child_before_parent(self):
        state = stump_state()
        state["feature"] = [0, 0, -1]
        state["left"] = [1, 2, -1]
        state["right"] = [2, 0, -1]
        with pytest.raises(ModelError, match="child"):
            DecisionTreeClassifier.from_state(state)

    def test_negative_internal_feature(self):
        state = stump_state()
        state["feature"] = [-2, -1, -1]
        with pytest.raises(ModelError, match="feature"):
            DecisionTreeClassifier.from_state(state)

    def test_leaf_with_children(self):
        state = stump_state()
        state["left"] = [1, 2, -1]
        with pytest.raises(ModelError, match="leaf"):
            DecisionTreeClassifier.from_state(state)

    def test_shared_child(self):
        """Children after their parent but shared: a DAG, not a tree."""
        state = {
            "classes": [0, 1],
            "feature": [0, 0, -1],
            "threshold": [0.0, 1.0, 0.0],
            "left": [1, 2, -1],
            "right": [2, 2, -1],
            "proba": [[0.5, 0.5]] * 3,
        }
        with pytest.raises(ModelError, match="parent"):
            DecisionTreeClassifier.from_state(state)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold(self, bad):
        state = stump_state()
        state["threshold"] = [bad, 0.0, 0.0]
        with pytest.raises(ModelError, match="threshold"):
            DecisionTreeClassifier.from_state(state)

    def test_proba_row_width_differs_from_classes(self):
        state = stump_state()
        state["proba"] = [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        with pytest.raises(ModelError, match="proba"):
            DecisionTreeClassifier.from_state(state)

    def test_ragged_proba(self):
        state = stump_state()
        state["proba"] = [[0.5, 0.5], [1.0], [0.0, 1.0]]
        with pytest.raises(ModelError):
            DecisionTreeClassifier.from_state(state)

    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_bad_leaf_distribution(self, bad):
        state = stump_state()
        state["proba"] = [[0.5, 0.5], [1.0, bad], [0.0, 1.0]]
        with pytest.raises(ModelError, match="distribution"):
            DecisionTreeClassifier.from_state(state)

    def test_too_narrow_rows_raise_model_error(self):
        tree = DecisionTreeClassifier.from_state(stump_state())
        with pytest.raises(ModelError, match="columns"):
            tree.predict_proba(np.empty((2, 0)))

    def test_node_arrays_are_frozen(self):
        values, labels = make_xy()
        tree = DecisionTreeClassifier(max_depth=4, random_state=0)
        tree.fit(values, labels)
        with pytest.raises(ValueError):
            tree.leaf_proba[0, 0] = 2.0
        with pytest.raises(ValueError):
            tree.table.threshold[0] = 0.0


class TestForestStateValidation:
    def test_tree_class_missing_from_forest(self):
        values, labels = make_xy()
        state = RandomForestClassifier(n_estimators=3, random_state=0).fit(
            values, labels
        ).to_state()
        state["trees"][1]["classes"] = [0, 5]
        with pytest.raises(ModelError, match="forest classes"):
            RandomForestClassifier.from_state(state)

    def test_unsorted_forest_classes(self):
        values, labels = make_xy()
        state = RandomForestClassifier(n_estimators=3, random_state=0).fit(
            values, labels
        ).to_state()
        state["classes"] = [1, 0]
        with pytest.raises(ModelError, match="sorted"):
            RandomForestClassifier.from_state(state)

    def test_malformed_tree_fails_the_forest(self):
        values, labels = make_xy()
        state = RandomForestClassifier(n_estimators=3, random_state=0).fit(
            values, labels
        ).to_state()
        state["trees"][2]["left"][0] = 0
        with pytest.raises(ModelError):
            RandomForestClassifier.from_state(state)


class TestDetectorStateValidation:
    def test_forest_without_seizure_class(self, fitted_detector):
        state = json_round_trip(fitted_detector.to_state())
        state["forest"]["classes"] = [0, 2]
        for tree in state["forest"]["trees"]:
            tree["classes"] = [2 if c == 1 else c for c in tree["classes"]]
        with pytest.raises(ModelError, match="seizure class 1"):
            RealTimeDetector.from_state(state)

    def test_scaler_mean_and_std_lengths_differ(self, fitted_detector):
        state = json_round_trip(fitted_detector.to_state())
        state["scaler"]["std"] = state["scaler"]["std"][:-1]
        with pytest.raises(ModelError, match="scaler std"):
            RealTimeDetector.from_state(state)

    def test_scaler_width_differs_from_extractor(self, fitted_detector):
        state = json_round_trip(fitted_detector.to_state())
        state["scaler"]["mean"].append(0.0)
        state["scaler"]["std"].append(1.0)
        with pytest.raises(ModelError, match="scaler mean"):
            RealTimeDetector.from_state(state)
