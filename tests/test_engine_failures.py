"""Fault-tolerance suite: poisoned records become report rows, not aborts.

PR 1's engine let a single failing record tear down the whole pool
``map``.  These tests pin the new contract: per-task exceptions are
captured into failure outcomes at every worker count and executor kind,
failures are deterministic (byte-identical JSON across backends), the
``max_failures`` policy restores strictness on demand, and an empty work
list is an empty report rather than an error.
"""

import json

import pytest

from repro.engine import CohortEngine, CohortReport, RecordOutcome, RecordTask
from repro.exceptions import EngineError

#: Three healthy records plus one poisoned coordinate (patient 1 has no
#: seizure 999, so the dataset raises inside the worker) and one record
#: whose per-task duration override is too short to host the seizure.
GOOD_TASKS = (RecordTask(1, 0, 0), RecordTask(1, 1, 0), RecordTask(8, 0, 0))
POISONED = RecordTask(1, 999, 0)
TOO_SHORT = RecordTask(8, 0, 1, duration_range_s=(30.0, 40.0))
MIXED = GOOD_TASKS + (POISONED, TOO_SHORT)


def _failure_row():
    return RecordOutcome(
        patient_id=1, seizure_index=1, sample_index=0, record_id="",
        duration_s=0.0, n_windows=0, truth_onset_s=0.0, truth_offset_s=0.0,
        onset_s=0.0, offset_s=0.0, delta_s=0.0, delta_norm=0.0,
        sensitivity=0.0, specificity=0.0, geometric_mean=0.0,
        error="DataError: boom",
    )


@pytest.fixture(scope="module")
def mixed_baseline(dataset):
    """Canonical serial-run report over the poisoned work list."""
    return CohortEngine(dataset, executor="serial").run(MIXED)


class TestFailureCapture:
    def test_run_completes_and_reports_failures(self, mixed_baseline):
        report = mixed_baseline
        assert report.n_records == len(GOOD_TASKS)
        assert report.n_failures == 2
        by_key = {f.key: f for f in report.failures}
        assert by_key[POISONED.key].error == "DataError: no seizure 999 for patient 1"
        assert "too short" in by_key[TOO_SHORT.key].error
        # Failed outcomes never leak into the aggregates.
        assert all(o.error is None for o in report.outcomes)
        assert {o.key for o in report.outcomes} == {t.key for t in GOOD_TASKS}

    def test_good_records_unaffected_by_poison(self, dataset, mixed_baseline):
        clean = CohortEngine(dataset, executor="serial").run(GOOD_TASKS)
        poisoned_outcomes = {o.key: o for o in mixed_baseline.outcomes}
        for out in clean.outcomes:
            assert poisoned_outcomes[out.key] == out
        assert clean.median_delta_s == mixed_baseline.median_delta_s
        assert clean.geometric_mean == mixed_baseline.geometric_mean

    @pytest.mark.parametrize(
        "executor,workers",
        [("serial", 1), ("process", 1), ("process", 4)],
    )
    def test_byte_identical_across_backends(
        self, dataset, mixed_baseline, executor, workers
    ):
        engine = CohortEngine(dataset, max_workers=workers, executor=executor)
        assert engine.run(MIXED).to_json() == mixed_baseline.to_json()

    def test_failures_serialize(self, mixed_baseline):
        payload = json.loads(mixed_baseline.to_json())
        assert len(payload["failures"]) == 2
        assert all(f["error"] for f in payload["failures"])
        assert all(o["error"] is None for o in payload["outcomes"])

    def test_every_record_failed_raises_even_when_tolerant(self, dataset):
        # Tolerance covers partial failure; a run with zero successes
        # must never surface as a zeroed report a caller could mistake
        # for a measured result.
        with pytest.raises(EngineError, match="every record failed"):
            CohortEngine(dataset, executor="serial").run((POISONED, TOO_SHORT))

    def test_all_failed_outcome_set_still_aggregates(self):
        # The report layer itself stays total: distributed mergers may
        # legitimately hold all-failed shards.
        bad = _failure_row()
        report = CohortReport.from_outcomes([bad])
        assert report.n_records == 0
        assert report.n_failures == 1
        assert report.median_delta_s == 0.0
        assert report.patients == ()


class TestMaxFailuresPolicy:
    def test_zero_fails_fast(self, dataset):
        # Strict mode aborts the moment the tolerance is crossed; MIXED
        # hits its first poisoned record at task 4 of 5, so the run
        # never pays for the remainder.
        with pytest.raises(
            EngineError, match=r"aborted after 4 of 5 tasks"
        ):
            CohortEngine(dataset, executor="serial").run(MIXED, max_failures=0)

    def test_error_names_the_poisoned_tasks(self, dataset):
        with pytest.raises(EngineError, match="no seizure 999"):
            CohortEngine(dataset, executor="serial").run(MIXED, max_failures=1)

    def test_error_lists_every_failure_observed_before_cancellation(
        self, dataset
    ):
        # max_failures=1 tolerates the first poisoned record and aborts
        # on the second — and the message must still name *both*.
        with pytest.raises(EngineError) as excinfo:
            CohortEngine(dataset, executor="serial").run(MIXED, max_failures=1)
        message = str(excinfo.value)
        assert "no seizure 999" in message
        assert "too short" in message
        assert "2 record(s) failed" in message

    def test_threshold_at_failure_count_passes(self, dataset):
        report = CohortEngine(dataset, executor="serial").run(
            MIXED, max_failures=2
        )
        assert report.n_failures == 2

    def test_negative_rejected(self, dataset):
        with pytest.raises(EngineError, match="max_failures"):
            CohortEngine(dataset, executor="serial").run(MIXED, max_failures=-1)


class TestFailFastCancellation:
    """Crossing ``max_failures`` must stop paying for the work list —
    the ISSUE acceptance criterion, asserted via an execution counter."""

    # Uses the shared `counter` fixture (tests/conftest.py): counts
    # every record the in-process pipeline actually executes.

    def _poison_first(self, n_good: int) -> tuple[RecordTask, ...]:
        # The poisoned record leads the work list; every patient-1 task
        # after it is healthy filler the engine must never touch.
        return (POISONED,) + tuple(
            RecordTask(1, 0, k) for k in range(n_good)
        )

    def test_serial_stops_at_first_failure(self, dataset, counter):
        tasks = self._poison_first(6)
        with pytest.raises(EngineError, match="aborted after 1 of 7"):
            CohortEngine(dataset, executor="serial").run(tasks, max_failures=0)
        assert counter["n"] == 1

    def test_process_pool_cancels_remainder(self, dataset, tmp_path):
        # Pool workers do not report to the in-process counter, so the
        # shared feature store counts instead: every record a worker
        # actually extracts leaves one entry.  The poisoned record fails
        # at once; only the few tasks already handed to a worker may
        # still run, the rest are cancelled before they start.
        tasks = self._poison_first(12)
        store = tmp_path / "store"
        engine = CohortEngine(
            dataset, max_workers=2, executor="process", store_dir=str(store)
        )
        with pytest.raises(EngineError, match="cancelling the rest"):
            engine.run(tasks, max_failures=0)
        assert len(list(store.glob("*.feat"))) < len(tasks) - 1

    def test_tolerant_run_still_attempts_everything(self, dataset, counter):
        tasks = self._poison_first(2)
        report = CohortEngine(dataset, executor="serial").run(tasks)
        assert counter["n"] == len(tasks)
        assert report.n_failures == 1


class TestFailureOutcomeShape:
    def test_failed_property(self):
        ok = dict(
            patient_id=1, seizure_index=0, sample_index=0, record_id="r",
            duration_s=1.0, n_windows=1, truth_onset_s=0.0, truth_offset_s=1.0,
            onset_s=0.0, offset_s=1.0, delta_s=0.0, delta_norm=1.0,
            sensitivity=1.0, specificity=1.0, geometric_mean=1.0,
        )
        assert not RecordOutcome(**ok).failed
        assert RecordOutcome(**{**ok, "error": "ValueError: boom"}).failed

    def test_from_outcomes_partitions_failures(self):
        ok = RecordOutcome(
            patient_id=1, seizure_index=0, sample_index=0, record_id="r",
            duration_s=1.0, n_windows=1, truth_onset_s=0.0, truth_offset_s=1.0,
            onset_s=0.0, offset_s=1.0, delta_s=0.0, delta_norm=1.0,
            sensitivity=1.0, specificity=1.0, geometric_mean=1.0,
        )
        bad = RecordOutcome(
            patient_id=1, seizure_index=1, sample_index=0, record_id="",
            duration_s=0.0, n_windows=0, truth_onset_s=0.0, truth_offset_s=0.0,
            onset_s=0.0, offset_s=0.0, delta_s=0.0, delta_norm=0.0,
            sensitivity=0.0, specificity=0.0, geometric_mean=0.0,
            error="DataError: boom",
        )
        report = CohortReport.from_outcomes([bad, ok])
        assert report.outcomes == (ok,)
        assert report.failures == (bad,)



class TestResumableWithFailures:
    """The ISSUE acceptance scenario: a poisoned cohort completes, and a
    re-run against the same disk store skips extraction for every
    unchanged record (hit counters asserted)."""

    def test_rerun_skips_extraction_for_unchanged_records(
        self, dataset, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        first = CohortEngine(dataset, executor="serial", store_dir=store_dir)
        report = first.run(MIXED)
        assert report.n_failures == 2  # ...but the run completed
        stats = first.cache_stats()
        assert stats["store"]["writes"] == len(GOOD_TASKS)

        # Fresh engine, same store: every good record's features come
        # back from disk; nothing is extracted or rewritten.
        second = CohortEngine(dataset, executor="serial", store_dir=store_dir)
        rerun = second.run(MIXED)
        stats = second.cache_stats()
        assert stats["store"]["hits"] == len(GOOD_TASKS)
        assert stats["store"]["writes"] == 0
        assert rerun.to_json() == report.to_json()
