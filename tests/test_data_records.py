"""Unit tests for EEGRecord and SeizureAnnotation."""

import numpy as np
import pytest

from repro.data.records import EEGRecord, SeizureAnnotation, interval_window_labels
from repro.exceptions import DataError

FS = 256.0


def make_record(duration=100.0, anns=(), fs=FS):
    n = int(duration * fs)
    data = np.zeros((2, n))
    return EEGRecord(data=data, fs=fs, annotations=list(anns))


class TestSeizureAnnotation:
    def test_basic_geometry(self):
        ann = SeizureAnnotation(10.0, 40.0)
        assert ann.duration_s == 30.0
        assert ann.midpoint_s == 25.0

    def test_negative_onset_raises(self):
        with pytest.raises(DataError):
            SeizureAnnotation(-1.0, 5.0)

    def test_inverted_interval_raises(self):
        with pytest.raises(DataError):
            SeizureAnnotation(10.0, 10.0)

    def test_shifted(self):
        ann = SeizureAnnotation(10.0, 20.0).shifted(5.0)
        assert (ann.onset_s, ann.offset_s) == (15.0, 25.0)

    def test_overlaps(self):
        ann = SeizureAnnotation(10.0, 20.0)
        assert ann.overlaps(15.0, 30.0)
        assert ann.overlaps(0.0, 10.5)
        assert not ann.overlaps(20.0, 30.0)

    def test_intersection_length(self):
        ann = SeizureAnnotation(10.0, 20.0)
        assert ann.intersection_s(15.0, 30.0) == 5.0
        assert ann.intersection_s(0.0, 5.0) == 0.0

    def test_default_source_is_expert(self):
        assert SeizureAnnotation(1.0, 2.0).source == "expert"


class TestEEGRecord:
    def test_geometry(self):
        rec = make_record(100.0)
        assert rec.n_channels == 2
        assert rec.duration_s == 100.0

    def test_channel_lookup(self):
        rec = make_record(10.0)
        rec.data[1, :] = 5.0
        assert np.all(rec.channel("F8T4") == 5.0)
        with pytest.raises(DataError):
            rec.channel("Cz")

    def test_wrong_shape_raises(self):
        with pytest.raises(DataError):
            EEGRecord(data=np.zeros(100), fs=FS)

    def test_channel_name_count_mismatch_raises(self):
        with pytest.raises(DataError):
            EEGRecord(data=np.zeros((3, 100)), fs=FS)

    def test_annotation_beyond_duration_raises(self):
        with pytest.raises(DataError):
            make_record(10.0, [SeizureAnnotation(5.0, 20.0)])


class TestCrop:
    def test_crop_shifts_annotations(self):
        rec = make_record(100.0, [SeizureAnnotation(30.0, 40.0)])
        sub = rec.crop(20.0, 60.0)
        assert sub.duration_s == 40.0
        assert sub.annotations[0].onset_s == 10.0
        assert sub.annotations[0].offset_s == 20.0

    def test_crop_clips_partial_annotation(self):
        rec = make_record(100.0, [SeizureAnnotation(30.0, 50.0)])
        sub = rec.crop(40.0, 60.0)
        assert sub.annotations[0].onset_s == 0.0
        assert sub.annotations[0].offset_s == 10.0

    def test_crop_drops_outside_annotation(self):
        rec = make_record(100.0, [SeizureAnnotation(30.0, 40.0)])
        assert rec.crop(50.0, 80.0).annotations == []

    def test_invalid_crop_raises(self):
        rec = make_record(100.0)
        with pytest.raises(DataError):
            rec.crop(50.0, 20.0)
        with pytest.raises(DataError):
            rec.crop(0.0, 200.0)


class TestMasks:
    def test_sample_mask_extent(self):
        rec = make_record(10.0, [SeizureAnnotation(2.0, 4.0)])
        mask = rec.sample_mask()
        assert mask.sum() == int(2.0 * FS)
        assert mask[int(3.0 * FS)]
        assert not mask[int(1.0 * FS)]

    def test_window_labels_majority_rule(self):
        rec = make_record(20.0, [SeizureAnnotation(8.0, 16.0)])
        labels = rec.window_labels(window_s=4.0, step_s=1.0)
        # Window starting at 8 is fully ictal; window starting at 0 is not.
        assert labels[8] == 1
        assert labels[0] == 0
        # Window starting at 6 overlaps [8, 10): 2 s of 4 s -> exactly 50%.
        assert labels[6] == 1

    def test_window_labels_min_overlap_validated(self):
        rec = make_record(20.0)
        with pytest.raises(DataError):
            rec.window_labels(4.0, 1.0, min_overlap=0.0)

    def test_no_annotations_all_zero(self):
        rec = make_record(20.0)
        assert rec.window_labels(4.0, 1.0).sum() == 0

    def test_window_labels_fractional_step(self):
        # Sub-second and non-integer steps must count windows exactly
        # ((duration - window) // step + 1), not via int() truncation
        # of the step (which crashed with ZeroDivisionError for 0.5 s).
        rec = make_record(10.0, [SeizureAnnotation(2.0, 6.0)])
        half = rec.window_labels(window_s=4.0, step_s=0.5)
        assert half.size == 13  # (10 - 4) / 0.5 + 1
        assert half[4] == 1  # window [2, 6) fully ictal
        sesqui = rec.window_labels(window_s=4.0, step_s=1.5)
        assert sesqui.size == 5  # floor((10 - 4) / 1.5) + 1

    def test_window_labels_nonpositive_step_rejected(self):
        rec = make_record(10.0)
        with pytest.raises(DataError):
            rec.window_labels(4.0, 0.0)


def scalar_window_labels(annotations, n_windows, window_s, step_s, min_overlap=0.5):
    """Window-by-window oracle built on ``SeizureAnnotation.intersection_s``."""
    labels = np.zeros(max(n_windows, 0), dtype=np.int64)
    for i in range(labels.size):
        t0 = i * step_s
        t1 = t0 + window_s
        inter = sum(a.intersection_s(t0, t1) for a in annotations)
        if inter >= min_overlap * window_s:
            labels[i] = 1
    return labels


class TestIntervalWindowLabels:
    @pytest.mark.parametrize(
        "annotations,n_windows,window_s,step_s,min_overlap",
        [
            ([SeizureAnnotation(2.0, 6.0)], 0, 4.0, 1.0, 0.5),  # zero windows
            ([], 30, 4.0, 1.0, 0.5),  # no annotations
            # two overlapping annotations: their overlaps add up
            ([SeizureAnnotation(10.0, 14.0), SeizureAnnotation(12.0, 19.5)], 40, 4.0, 1.0, 0.5),
            ([SeizureAnnotation(3.0, 8.0)], 20, 4.0, 1.0, 0.5),  # ends on a window edge
            ([SeizureAnnotation(3.0, 11.0)], 20, 4.0, 1.0, 1.0),  # full overlap required
            ([SeizureAnnotation(1.25, 9.75), SeizureAnnotation(20.0, 22.0)], 60, 2.0, 0.5, 0.3),
        ],
    )
    def test_matches_scalar_oracle(self, annotations, n_windows, window_s, step_s, min_overlap):
        labels = interval_window_labels(annotations, n_windows, window_s, step_s, min_overlap)
        expected = scalar_window_labels(annotations, n_windows, window_s, step_s, min_overlap)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, expected)

    def test_random_cases_match_scalar_oracle(self, rng):
        for _ in range(200):
            n_windows = int(rng.integers(0, 120))
            annotations = []
            for _ in range(int(rng.integers(0, 5))):
                onset = float(rng.integers(0, 120)) + float(rng.choice([0.0, 0.5, rng.random()]))
                annotations.append(SeizureAnnotation(onset, onset + float(rng.integers(1, 30))))
            min_overlap = float(rng.choice([0.25, 0.3, 0.5, 1.0]))
            args = (annotations, n_windows, 4.0, 1.0, min_overlap)
            assert np.array_equal(interval_window_labels(*args), scalar_window_labels(*args))

    def test_negative_window_count_is_empty(self):
        assert interval_window_labels([SeizureAnnotation(0.0, 5.0)], -3, 4.0, 1.0).size == 0
