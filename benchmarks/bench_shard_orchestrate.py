"""Shard orchestration: distributed fan-out vs the single-node engine.

Runs one cohort three ways — the sequential reference path, the
single-node worker pool, and ``repro shard orchestrate`` over 3 local
subprocess shards — asserting the byte-parity contract between all
three reports while measuring the orchestration overhead (subprocess
startup + plan/collect/merge) that a multi-machine deployment would
amortize over far larger work lists.

Local subprocess shards pay an interpreter+numpy import (~1 s) per
shard, so on a laptop-sized cohort the orchestrator is *slower* than
the in-process pool — the bench reports the overhead rather than
asserting a speedup; the distributed win only exists when the per-shard
work dwarfs the launch cost (the table's per-record columns make that
crossover visible).

``REPRO_BENCH_QUICK=1`` switches to a smoke configuration (tiny cohort)
so CI exercises every code path of the bench on every push.
"""

import os
import shutil
import tempfile
import time

from conftest import print_table, save_results

from repro.data import SyntheticEEGDataset
from repro.engine import (
    CohortEngine,
    cohort_tasks,
    orchestrate,
    plan_shards,
    write_plan,
)

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")

#: Patient 8 (4 seizures): 1 sample -> 4 records in quick mode,
#: 3 samples -> 12 records in full mode.
SAMPLES_PER_SEIZURE = 1 if QUICK else 3
DURATION_RANGE_S = (300.0, 360.0)
N_SHARDS = 3
JOBS = 3


def test_shard_orchestrate_parity_and_overhead():
    dataset = SyntheticEEGDataset(duration_range_s=DURATION_RANGE_S)
    tasks = cohort_tasks(
        dataset, samples_per_seizure=SAMPLES_PER_SEIZURE, patient_ids=[8]
    )

    engine = CohortEngine(dataset, executor="serial")
    start = time.perf_counter()
    sequential = engine.run(tasks)
    sequential_s = time.perf_counter() - start
    baseline_json = sequential.to_json()

    pool = CohortEngine(dataset, max_workers=JOBS, executor="process")
    start = time.perf_counter()
    pooled = pool.run(tasks)
    pool_s = time.perf_counter() - start
    assert pooled.to_json() == baseline_json

    plan_dir = tempfile.mkdtemp(prefix="bench-shards-")
    try:
        specs = plan_shards(tasks, engine.config, N_SHARDS)
        write_plan(plan_dir, specs)
        start = time.perf_counter()
        report, summary = orchestrate(plan_dir, specs=specs, jobs=JOBS)
        orchestrate_s = time.perf_counter() - start
        # The tentpole contract, enforced inside the bench: distributing
        # the run across shard subprocesses must not change a byte.
        assert report.to_json() == baseline_json
        assert summary["outcomes"] == len(tasks)
    finally:
        shutil.rmtree(plan_dir, ignore_errors=True)

    n = len(tasks)
    rows = [
        ["sequential", f"{sequential_s:.2f}", f"{sequential_s / n:.2f}", "1.00"],
        [
            f"pool x{JOBS}",
            f"{pool_s:.2f}",
            f"{pool_s / n:.2f}",
            f"{sequential_s / pool_s:.2f}",
        ],
        [
            f"orchestrate {N_SHARDS} shards",
            f"{orchestrate_s:.2f}",
            f"{orchestrate_s / n:.2f}",
            f"{sequential_s / orchestrate_s:.2f}",
        ],
    ]
    print_table(
        f"Shard orchestration overhead ({n} records)",
        ["mode", "wall s", "s/record", "speedup"],
        rows,
    )
    save_results(
        "shard_orchestrate",
        {
            "quick": QUICK,
            "n_records": n,
            "n_shards": N_SHARDS,
            "jobs": JOBS,
            "sequential_s": sequential_s,
            "pool_s": pool_s,
            "orchestrate_s": orchestrate_s,
        },
    )
