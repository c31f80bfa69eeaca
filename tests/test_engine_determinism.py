"""Determinism suite: CohortReport is byte-identical across runs.

The engine's report must be a pure function of (dataset seed, work
list): running the same seeded cohort twice, with different worker
counts, or with different executor kinds must serialize to the exact
same JSON bytes.  This is what makes cohort results auditable and
cacheable — no scheduling artifact can leak into the output.
"""

import json

import pytest

from repro.engine import CohortEngine, RecordTask

#: Two records from different patients keep the suite fast while still
#: exercising cross-patient aggregation.
TASKS = (RecordTask(6, 0, 0), RecordTask(8, 0, 0))


@pytest.fixture(scope="module")
def baseline_json(dataset):
    """Canonical serial-run serialization, computed once."""
    return CohortEngine(dataset, executor="serial").run(TASKS).to_json()


class TestByteIdenticalReports:
    def test_same_run_twice(self, dataset, baseline_json):
        engine = CohortEngine(dataset, executor="serial")
        assert engine.run(TASKS).to_json() == baseline_json
        assert engine.run(TASKS).to_json() == baseline_json

    def test_worker_counts_agree(self, dataset, baseline_json):
        for workers in (1, 2, 4):
            engine = CohortEngine(
                dataset, max_workers=workers, executor="process"
            )
            assert engine.run(TASKS).to_json() == baseline_json

    def test_executor_kinds_agree(self, dataset, baseline_json):
        for kind in ("serial", "process"):
            engine = CohortEngine(dataset, max_workers=2, executor=kind)
            assert engine.run(TASKS).to_json() == baseline_json

    def test_task_order_is_canonicalized(self, dataset, baseline_json):
        engine = CohortEngine(dataset, executor="serial")
        assert engine.run(tuple(reversed(TASKS))).to_json() == baseline_json

    def test_fresh_dataset_object_agrees(self, dataset, baseline_json):
        clone = type(dataset)(duration_range_s=dataset.duration_range_s)
        assert (
            CohortEngine(clone, executor="serial").run(TASKS).to_json()
            == baseline_json
        )


class TestReportShape:
    def test_json_round_trips(self, dataset, baseline_json):
        payload = json.loads(baseline_json)
        assert len(payload["outcomes"]) == len(TASKS)
        assert {p["patient_id"] for p in payload["patients"]} == {6, 8}
        for field in (
            "median_delta_s",
            "median_delta_norm",
            "mean_sensitivity",
            "mean_specificity",
            "geometric_mean",
        ):
            assert field in payload

    def test_no_scheduling_fields(self, baseline_json):
        # Worker counts, timings, and host info must never enter the
        # report, or byte-identity across pool sizes would be impossible.
        payload = json.loads(baseline_json)
        flat = json.dumps(payload).lower()
        for banned in ("worker", "elapsed", "wall", "hostname", "pid"):
            assert banned not in flat
