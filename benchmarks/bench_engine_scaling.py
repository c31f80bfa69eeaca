"""Engine scaling: cohort throughput vs worker count.

Runs an 8-record synthetic cohort (one record per patient 1-8) through
the sequential path and through :class:`repro.engine.CohortEngine`
process pools of 1 / 2 / 4 workers, verifying the equivalence contract
(byte-identical reports) while measuring the speedup.  The per-record
pipeline is CPU-bound (entropy/spectral features over every 4 s window),
so on a >= 4-core host the 4-worker pool must clear a 2x speedup over
the sequential path; on smaller hosts the speedup assertion is skipped
— there is no parallel hardware to demonstrate on — but equivalence is
still enforced and the measured table is still printed/saved.

``REPRO_BENCH_QUICK=1`` switches to a smoke configuration (small cohort,
1/2-worker pools, no speedup assertion): CI runs it on every push so the
bench itself cannot silently rot, without paying for a real measurement
on shared 2-core runners.
"""

import os
import time

from conftest import print_table, save_results

from repro.data import SyntheticEEGDataset
from repro.engine import CohortEngine, RecordTask

#: CI smoke mode: exercise every code path of the bench, assert only
#: equivalence (shared runners make speedup numbers meaningless).
QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")

#: One record per patient: an 8-record, 8-patient cohort (3 in quick mode).
N_RECORDS = 3 if QUICK else 8
#: Short records keep the bench minutes-scale; the workload per record
#: (~340 s of signal -> ~340 windows x 10 features) is still dominated
#: by feature extraction, i.e. representative of the real pipeline mix.
DURATION_RANGE_S = (300.0, 360.0)
WORKER_COUNTS = (1, 2) if QUICK else (1, 2, 4)
SPEEDUP_TARGET = 2.0


def test_engine_scaling(benchmark):
    dataset = SyntheticEEGDataset(duration_range_s=DURATION_RANGE_S)
    tasks = tuple(RecordTask(pid, 0, 0) for pid in range(1, N_RECORDS + 1))

    engine = CohortEngine(dataset, executor="serial")
    start = time.perf_counter()
    baseline_report = engine.run(tasks)
    sequential_s = time.perf_counter() - start
    baseline_json = baseline_report.to_json()

    timings = {}
    for workers in WORKER_COUNTS:
        pool = CohortEngine(dataset, max_workers=workers, executor="process")
        start = time.perf_counter()
        report = pool.run(tasks)
        timings[workers] = time.perf_counter() - start
        # The equivalence contract, enforced inside the bench: fan-out
        # must not change a single byte of the result.
        assert report.to_json() == baseline_json

    # pytest-benchmark tracks the widest pool configuration.
    widest = max(WORKER_COUNTS)
    pool_max = CohortEngine(dataset, max_workers=widest, executor="process")
    benchmark.pedantic(lambda: pool_max.run(tasks), rounds=1, iterations=1)

    rows = [["sequential", f"{sequential_s:.2f}", "1.00"]]
    speedups = {}
    for workers in WORKER_COUNTS:
        speedups[workers] = sequential_s / timings[workers]
        rows.append(
            [f"{workers} worker(s)", f"{timings[workers]:.2f}",
             f"{speedups[workers]:.2f}"]
        )
    print_table(
        f"Cohort engine scaling ({N_RECORDS} records, "
        f"{DURATION_RANGE_S[0]:.0f}-{DURATION_RANGE_S[1]:.0f} s each)",
        ["configuration", "seconds", "speedup"],
        rows,
    )

    cores = os.cpu_count() or 1
    save_results(
        "engine_scaling_quick" if QUICK else "engine_scaling",
        {
            "quick": QUICK,
            "cpu_count": cores,
            "n_records": N_RECORDS,
            "sequential_seconds": sequential_s,
            "pool_seconds": {str(w): timings[w] for w in WORKER_COUNTS},
            "speedups": {str(w): speedups[w] for w in WORKER_COUNTS},
            "reports_byte_identical": True,
        },
    )
    benchmark.extra_info[f"speedup_{widest}_workers"] = speedups[widest]
    benchmark.extra_info["cpu_count"] = cores

    if QUICK:
        print(
            f"quick mode: {SPEEDUP_TARGET:.0f}x speedup assertion skipped "
            f"(measured {speedups[widest]:.2f}x at {widest} workers); "
            f"equivalence was still enforced"
        )
    elif cores >= 4:
        assert speedups[widest] >= SPEEDUP_TARGET, (
            f"{widest}-worker speedup {speedups[widest]:.2f}x below the "
            f"{SPEEDUP_TARGET:.0f}x target on a {cores}-core host"
        )
    else:
        print(
            f"only {cores} core(s) available: {SPEEDUP_TARGET:.0f}x speedup "
            f"assertion skipped (measured {speedups[widest]:.2f}x); "
            f"equivalence was still enforced"
        )
