"""Unit tests for the synthetic dataset (inventory + record generation)."""

import numpy as np
import pytest

from repro.data.dataset import SyntheticEEGDataset
from repro.exceptions import DataError


class TestInventory:
    def test_total_counts(self, dataset):
        assert dataset.n_patients == 9
        assert dataset.total_seizures == 45
        assert len(dataset.seizure_events()) == 45

    def test_per_patient_events(self, dataset):
        assert len(dataset.seizure_events(patient_id=1)) == 7
        assert len(dataset.seizure_events(patient_id=2)) == 3

    def test_event_lookup(self, dataset):
        ev = dataset.event(3, 2)
        assert ev.patient_id == 3 and ev.seizure_index == 2

    def test_unknown_event_raises(self, dataset):
        with pytest.raises(DataError):
            dataset.event(1, 99)

    def test_durations_within_profile_range(self, dataset):
        for ev in dataset.seizure_events():
            from repro.data.patients import patient_by_id

            lo, hi = patient_by_id(ev.patient_id).duration_range_s
            assert lo <= ev.duration_s <= hi

    def test_artifact_flags_match_profiles(self, dataset):
        flagged = [(e.patient_id, e.seizure_index) for e in dataset.seizure_events() if e.has_artifact]
        assert flagged == [(2, 1), (3, 0), (4, 0)]

    def test_mean_seizure_duration_is_expert_prior(self, dataset):
        assert dataset.mean_seizure_duration(2) == 80.0


class TestGenerateSample:
    def test_record_contains_one_seizure(self, sample_record):
        assert sample_record.seizure_count == 1
        ann = sample_record.annotations[0]
        assert 0 < ann.onset_s < ann.offset_s <= sample_record.duration_s

    def test_duration_within_requested_range(self, dataset):
        rec = dataset.generate_sample(1, 0, 1)
        assert 300.0 <= rec.duration_s <= 360.0 + 1.0

    def test_determinism(self, dataset):
        a = dataset.generate_sample(4, 1, 3)
        b = SyntheticEEGDataset(duration_range_s=(300.0, 360.0)).generate_sample(4, 1, 3)
        assert np.array_equal(a.data, b.data)
        assert a.annotations[0].onset_s == b.annotations[0].onset_s

    def test_different_samples_differ(self, dataset):
        a = dataset.generate_sample(1, 0, 0)
        b = dataset.generate_sample(1, 0, 1)
        assert not np.array_equal(a.data, b.data)

    def test_seizure_has_contrast(self, sample_record):
        mask = sample_record.sample_mask()
        ictal_rms = sample_record.data[:, mask].std()
        interictal_rms = sample_record.data[:, ~mask].std()
        assert ictal_rms > 1.3 * interictal_rms

    def test_ids_encode_provenance(self, dataset):
        rec = dataset.generate_sample(7, 2, 5)
        assert rec.patient_id == "P07"
        assert rec.record_id == "P07_S02_R005"

    def test_too_short_duration_raises(self, dataset):
        with pytest.raises(DataError):
            dataset.generate_sample(2, 0, 0, duration_range_s=(60.0, 80.0))

    def test_seed_changes_records(self):
        a = SyntheticEEGDataset(seed=1, duration_range_s=(300.0, 320.0)).generate_sample(1, 0, 0)
        b = SyntheticEEGDataset(seed=2, duration_range_s=(300.0, 320.0)).generate_sample(1, 0, 0)
        assert not np.array_equal(a.data, b.data)


class TestSeizureFree:
    def test_no_annotations(self, seizure_free_record):
        assert seizure_free_record.seizure_count == 0
        assert seizure_free_record.duration_s == 120.0

    def test_independent_of_sample_records(self, dataset):
        free = dataset.generate_seizure_free(1, 120.0, 0)
        rec = dataset.generate_sample(1, 0, 0)
        assert not np.array_equal(free.data[:, :100], rec.data[:, :100])


class TestMonitoringRecord:
    def test_multi_seizure_layout(self, dataset):
        rec = dataset.generate_monitoring_record(
            1, 1200.0, seizure_indices=[0, 1], min_gap_s=120.0
        )
        assert rec.seizure_count == 2
        a, b = rec.annotations
        assert b.onset_s - a.offset_s >= 120.0
        assert a.onset_s >= 120.0

    def test_too_small_record_raises(self, dataset):
        with pytest.raises(DataError):
            dataset.generate_monitoring_record(1, 300.0, [0, 1, 2], min_gap_s=120.0)


class TestValidation:
    def test_bad_fs_raises(self):
        with pytest.raises(DataError):
            SyntheticEEGDataset(fs=0.0)

    def test_bad_duration_range_raises(self):
        with pytest.raises(DataError):
            SyntheticEEGDataset(duration_range_s=(100.0, 50.0))

    #: Ranges numpy's uniform draw cannot take: it overflowed on an
    #: infinite bound and raised on a reversed one.
    BAD_RANGES = [
        (300.0, float("inf")),
        (float("nan"), 400.0),
        (600.0, 300.0),
    ]

    @pytest.mark.parametrize("bad", BAD_RANGES)
    def test_constructor_refuses_unusable_range(self, bad):
        with pytest.raises(DataError, match="invalid duration range"):
            SyntheticEEGDataset(duration_range_s=bad)

    @pytest.mark.parametrize("bad", BAD_RANGES)
    def test_per_call_override_refuses_unusable_range(self, bad):
        dataset = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))
        with pytest.raises(DataError, match="invalid duration range"):
            dataset.sample_source(1, 0, 0, duration_range_s=bad)

    #: Record durations the sample count cannot take: inf overflowed
    #: ``int(round(...))`` and NaN raised a bare ValueError.
    BAD_DURATIONS = [float("inf"), float("nan"), -float("inf"), 0.0]

    @pytest.mark.parametrize("bad", BAD_DURATIONS)
    def test_seizure_free_source_refuses_unusable_duration(self, bad):
        dataset = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))
        with pytest.raises(DataError, match="finite and positive"):
            dataset.seizure_free_source(1, bad, 0)

    @pytest.mark.parametrize("bad", BAD_DURATIONS)
    def test_monitoring_source_refuses_unusable_duration(self, bad):
        dataset = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))
        with pytest.raises(DataError, match="finite and positive"):
            dataset.monitoring_source(1, bad, [0])

    @pytest.mark.parametrize("bad", BAD_RANGES)
    def test_record_task_refuses_unusable_range(self, bad):
        from repro.engine import RecordTask

        with pytest.raises(DataError, match="invalid duration range"):
            RecordTask(1, 0, 0, duration_range_s=bad)
