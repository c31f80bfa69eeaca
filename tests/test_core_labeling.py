"""Unit tests for the high-level APosterioriLabeler."""

import numpy as np
import pytest

from repro.core.algorithm import a_posteriori_reference
from repro.core.deviation import deviation
from repro.core.labeling import APosterioriLabeler
from repro.exceptions import LabelingError
from repro.signals.windowing import WindowSpec


@pytest.fixture(scope="module")
def labeler():
    return APosterioriLabeler()


class TestConfiguration:
    def test_window_length_conversion(self, labeler):
        assert labeler.window_length_for(55.0) == 55
        assert labeler.window_length_for(0.4) == 1

    def test_negative_duration_raises(self, labeler):
        with pytest.raises(LabelingError):
            labeler.window_length_for(-5.0)

    def test_custom_step_changes_window_length(self):
        lab = APosterioriLabeler(spec=WindowSpec(4.0, 2.0))
        assert lab.window_length_for(60.0) == 30


class TestLabeling:
    def test_label_close_to_ground_truth(self, labeler, dataset):
        record = dataset.generate_sample(8, 0, 0)
        result = labeler.label(record, dataset.mean_seizure_duration(8))
        assert deviation(record.annotations[0], result.annotation) < 30.0

    def test_annotation_tagged_algorithm(self, labeler, sample_record, dataset):
        result = labeler.label(sample_record, dataset.mean_seizure_duration(1))
        assert result.annotation.source == "algorithm"

    def test_label_inside_record(self, labeler, sample_record, dataset):
        result = labeler.label(sample_record, dataset.mean_seizure_duration(1))
        assert 0.0 <= result.annotation.onset_s
        assert result.annotation.offset_s <= sample_record.duration_s

    def test_label_duration_near_prior(self, labeler, sample_record, dataset):
        prior = dataset.mean_seizure_duration(1)
        result = labeler.label(sample_record, prior)
        assert abs(result.annotation.duration_s - prior) <= 4.0

    def test_result_exposes_distances(self, labeler, sample_record, dataset):
        result = labeler.label(sample_record, dataset.mean_seizure_duration(1))
        n = result.features.n_windows
        w = result.detection.window_length
        assert result.detection.distances.shape == (n - w,)
        assert result.detection.position == int(np.argmax(result.detection.distances))

    def test_reference_and_fast_labelers_agree(self, dataset):
        record = dataset.generate_sample(6, 0, 0)
        prior = dataset.mean_seizure_duration(6)
        labeler = APosterioriLabeler()
        fast = labeler.label(record, prior)
        ref = a_posteriori_reference(
            fast.features.values,
            labeler.window_length_for(prior),
            grid_step=labeler.grid_step,
        )
        assert fast.detection.position == ref.position
        np.testing.assert_allclose(
            fast.detection.distances, ref.distances, rtol=0, atol=1e-10
        )

    def test_record_too_short_raises(self, labeler, dataset):
        record = dataset.generate_seizure_free(1, 30.0, 1)
        with pytest.raises(LabelingError):
            labeler.label(record, avg_seizure_duration_s=60.0)

    def test_label_features_direct(self, labeler, rng):
        x = rng.standard_normal((100, 5))
        x[40:50] += 4.0
        det = labeler.label_features(x, 10)
        assert abs(det.position - 40) <= 2
