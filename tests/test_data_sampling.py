"""Unit tests for the Sec. VI-A evaluation-sample iteration."""

import re

import pytest

from repro.data.sampling import (
    DEFAULT_DURATION_RANGE_S,
    DEFAULT_SAMPLES_PER_SEIZURE,
    PAPER_DURATION_RANGE_S,
    iter_evaluation_samples,
)
from repro.settings import (
    ENV_PAPER_DURATIONS,
    ENV_SAMPLES_PER_SEIZURE,
    ReproSettings,
)


def samples_from(env):
    return ReproSettings.from_env(env).resolve_samples(
        DEFAULT_SAMPLES_PER_SEIZURE
    )


def durations_from(env):
    return ReproSettings.from_env(env).resolve_duration_range(
        DEFAULT_DURATION_RANGE_S
    )


class TestEnvKnobs:
    """The evaluation-scale knobs, parsed by :class:`ReproSettings`."""

    def test_default_sample_count(self):
        assert samples_from({}) == 3

    def test_env_override(self):
        assert samples_from({ENV_SAMPLES_PER_SEIZURE: "100"}) == 100

    def test_invalid_env_raises(self):
        with pytest.raises(
            ValueError,
            match=re.escape("REPRO_SAMPLES_PER_SEIZURE must be >= 1, got 0"),
        ):
            samples_from({ENV_SAMPLES_PER_SEIZURE: "0"})

    def test_duration_default(self):
        assert durations_from({}) == DEFAULT_DURATION_RANGE_S

    def test_paper_durations_flag(self):
        assert durations_from({ENV_PAPER_DURATIONS: "1"}) == PAPER_DURATION_RANGE_S

    def test_paper_durations_flag_is_case_insensitive(self):
        assert (
            durations_from({ENV_PAPER_DURATIONS: "True"})
            == PAPER_DURATION_RANGE_S
        )

    def test_explicit_off_values(self):
        for off in ("0", "false", "NO", "off"):
            assert (
                durations_from({ENV_PAPER_DURATIONS: off})
                == DEFAULT_DURATION_RANGE_S
            )

    def test_unrecognized_flag_raises(self):
        # A typo'd flag must not silently run laptop-sized records
        # through a paper-scale session.
        with pytest.raises(
            ValueError,
            match=re.escape(
                "REPRO_PAPER_DURATIONS must be a boolean flag (1/true/yes "
                "or 0/false/no), got 'maybe'"
            ),
        ):
            durations_from({ENV_PAPER_DURATIONS: "maybe"})

    def test_non_numeric_samples_names_the_knob(self):
        with pytest.raises(
            ValueError,
            match=re.escape(
                "REPRO_SAMPLES_PER_SEIZURE must be an integer, got 'ten'"
            ),
        ):
            samples_from({ENV_SAMPLES_PER_SEIZURE: "ten"})


class TestIteration:
    def test_sample_count_per_patient(self, dataset):
        samples = list(
            iter_evaluation_samples(dataset, samples_per_seizure=2, patient_id=6)
        )
        # Patient 6 has 3 seizures -> 6 samples.
        assert len(samples) == 6

    def test_each_sample_has_one_seizure(self, dataset):
        for s in iter_evaluation_samples(dataset, 1, patient_id=8):
            assert s.record.seizure_count == 1
            assert s.event.patient_id == 8

    def test_full_cohort_count(self, dataset):
        events = {
            (s.event.patient_id, s.event.seizure_index, s.sample_index)
            for s in iter_evaluation_samples(
                dataset, 1, duration_range_s=(300.0, 330.0)
            )
        }
        assert len(events) == 45
