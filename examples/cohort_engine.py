"""Cohort engine walkthrough: parallel evaluation with equivalence.

Shows both faces of :mod:`repro.engine`:

1. the Python API — build a work list, fan it across a process pool,
   read the Table I/II-style :class:`~repro.engine.CohortReport`, and
   verify the engine's core contract (results identical to the
   sequential path, byte for byte);
2. the CLI — the same run as a one-liner.

Run:
    python examples/cohort_engine.py

CLI equivalent of the run below:
    python -m repro cohort --patients 1,8 --samples 1 \
        --duration-min 5 --duration-max 6 --workers 4
"""

import time

from repro import CohortEngine, SyntheticEEGDataset, api, cohort_tasks


def main() -> None:
    # Short records keep the demo snappy; the paper uses 30-60 minutes.
    dataset = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))

    # The one-liner: the facade builds the engine, resolves environment
    # knobs (samples per seizure, record durations) once, and runs the
    # cohort.  Everything below unpacks what this call does.
    facade_report = api.evaluate_cohort(
        dataset, patient_ids=[1, 8], max_workers=4
    )
    print(f"facade: {facade_report.n_records} records evaluated\n")

    # The work list is explicit and shardable: one task per (patient,
    # seizure, sample), each a pure function of the dataset seed.
    tasks = cohort_tasks(dataset, samples_per_seizure=1, patient_ids=[1, 8])
    print(f"work list: {len(tasks)} records "
          f"({tasks[0].key} .. {tasks[-1].key})")

    # Fan out across a process pool.  Records are regenerated inside the
    # workers from their coordinates; only task tuples cross the
    # process boundary.
    engine = CohortEngine(dataset, max_workers=4, executor="process")
    start = time.perf_counter()
    report = engine.run(tasks)
    parallel_s = time.perf_counter() - start

    print(f"\nper-patient rollup ({parallel_s:.1f} s parallel):")
    for row in report.table_rows():
        print(
            f"  patient {row['patient']}: {row['records']} records, "
            f"median delta = {row['median_delta_s']:.1f} s, "
            f"sens/spec/gmean = {row['sensitivity']:.3f}/"
            f"{row['specificity']:.3f}/{row['geometric_mean']:.3f}"
        )
    print(
        f"cohort medians: delta = {report.median_delta_s:.1f} s, "
        f"delta_norm = {report.median_delta_norm:.4f}"
    )

    # The equivalence contract: the sequential path produces the exact
    # same report — same labels, same metrics, byte-identical JSON —
    # regardless of worker count or scheduling.  cache_capacity >= the
    # work list keeps every record's features memoized across the two
    # serial runs (the default of 8 would LRU-thrash an 11-record scan).
    serial = CohortEngine(dataset, executor="serial", cache_capacity=16)
    start = time.perf_counter()
    sequential = serial.run(tasks)
    sequential_s = time.perf_counter() - start
    identical = sequential.to_json() == report.to_json()
    print(f"\nsequential path: {sequential_s:.1f} s")
    print(f"byte-identical reports: {identical}")
    assert identical

    # The in-process feature cache memoizes (record, extractor, spec):
    # re-running the serial path is nearly free on the extraction side.
    serial.run(tasks)
    print(f"feature cache after re-run: {serial.cache_stats()}")


if __name__ == "__main__":
    main()
