"""Resumable, fault-tolerant cohort runs: the disk feature store.

Walks through the PR 2 machinery end to end:

1. a cohort run with a persistent feature store — every extracted
   matrix lands on disk (atomic write-temp-then-rename), keyed by the
   exact-identity feature cache key;
2. a "new session" over the same store — extraction is skipped for
   every unchanged record, and the report is byte-identical;
3. a poisoned work list — the bad record becomes a failure row in the
   report instead of killing the pool, and the re-run still reuses the
   good records' cached features;
4. the self-learning loop over two monitoring records, observed one
   after another: each record sees the detector its predecessors
   trained.

Run:
    python examples/resumable_cohort.py

CLI equivalent of steps 1-2 (run it twice; the second run is faster):
    python -m repro cohort --patients 1,8 --duration-min 5 \
        --duration-max 6 --store /tmp/repro-features --max-failures -1
"""

import tempfile

from repro import (
    CohortEngine,
    RecordTask,
    SyntheticEEGDataset,
    cohort_tasks,
)
from repro.core.labeling import APosterioriLabeler
from repro.features.paper10 import Paper10FeatureExtractor
from repro.selflearning.detector import RealTimeDetector
from repro.selflearning.pipeline import SelfLearningPipeline


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))
    tasks = cohort_tasks(dataset, samples_per_seizure=1, patient_ids=[1, 8])

    with tempfile.TemporaryDirectory() as store_dir:
        # --- 1. first session: extract everything, persist everything.
        engine = CohortEngine(dataset, executor="serial", store_dir=store_dir)
        report = engine.run(tasks)
        stats = engine.cache_stats()
        print(f"first session:  {report.n_records} records, "
              f"{stats['store']['writes']} matrices persisted")

        # --- 2. "new session" (fresh engine, empty memory cache): the
        # store serves every matrix; nothing is re-extracted.
        resumed = CohortEngine(dataset, executor="serial", store_dir=store_dir)
        report2 = resumed.run(tasks)
        stats = resumed.cache_stats()
        print(f"second session: {stats['store']['hits']} matrices restored "
              f"from disk, {stats['store']['writes']} extracted")
        print(f"byte-identical reports: {report.to_json() == report2.to_json()}")
        assert report.to_json() == report2.to_json()

        # --- 3. fault tolerance: a poisoned coordinate (patient 1 has
        # no seizure 999) becomes a failure row, not a crashed run.
        poisoned = tasks + (RecordTask(1, 999, 0),)
        tolerant = CohortEngine(dataset, executor="serial", store_dir=store_dir)
        report3 = tolerant.run(poisoned)  # max_failures=None tolerates it
        print(f"\npoisoned run: {report3.n_records} records ok, "
              f"{report3.n_failures} failure(s)")
        for failure in report3.failures:
            print(f"  task {failure.key}: {failure.error}")
        # The good records were still served from the store.
        assert tolerant.cache_stats()["store"]["hits"] == len(tasks)

    # --- 4. the self-learning loop: records are observed in order, and
    # retraining after each one is deterministic.
    free = [dataset.generate_seizure_free(8, 180.0, k) for k in range(2)]
    pipeline = SelfLearningPipeline(
        labeler=APosterioriLabeler(),
        detector=RealTimeDetector(
            extractor=Paper10FeatureExtractor(), n_estimators=15
        ),
        avg_seizure_duration_s=dataset.mean_seizure_duration(8),
        seizure_free_pool=free,
        min_train_seizures=2,
        lookback_s=450.0,
    )
    scenario = [((0, 1), 0), ((2, 3), 1)]  # (seizure indices, sample)
    print("\nself-learning scenario:")
    for seizures, sample in scenario:
        record = dataset.generate_monitoring_record(
            8, 1800.0, seizure_indices=list(seizures),
            sample_index=sample, min_gap_s=500.0,
        )
        rep = pipeline.observe_record(record)
        print(f"  record {seizures}: "
              f"{rep.n_detected}/{rep.n_seizures} detected, "
              f"{rep.n_self_labels} self-labels, retrained={rep.retrained}")
    print(f"detector retrained {pipeline.n_retrainings} time(s)")


if __name__ == "__main__":
    main()
