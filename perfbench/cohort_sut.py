"""The cohort side of the system under test: one process, as a user runs it.

``python perfbench/cohort_sut.py --mode cold|warm --seed N --seconds S``
imports ``repro``, builds the serial ``CohortEngine`` for the baseline
cohort (warm mode first fills a ``DiskFeatureStore`` with a cold run on
the default 2-worker process pool),
prints ``READY`` and then runs whole cohort passes, each on a fresh
engine and one ``run`` call per record (every record is a timing
sample: its wall span and the process's CPU seconds), until ``S``
seconds have been measured.  The last stdout line is
one JSON object with every pass's timing, report and cache counters,
the process's peak RSS and (cold mode) the reference report of a
2-worker process pool at another chunk size, for the parity gate.

``--setup-only`` exits right after ``READY``: the benchmark times set-up
several times per run this way.  ``--trace`` alternates untraced and
traced passes and writes the spans of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: The ROADMAP baseline cohort: patients 1 and 8, 8-15 min records.
PATIENTS = (1, 8)
DURATION_RANGE_S = (480.0, 900.0)
#: Reference path for the cold gate: a 2-worker process pool streaming
#: 37 s chunks (chunk size and executor are both parity-neutral).
REFERENCE_CHUNK_S = 37.0


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("cold", "warm"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--store", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, metavar="DIR")
    parser.add_argument("--min-passes", type=int, default=2)
    args = parser.parse_args()

    from repro.data.dataset import SyntheticEEGDataset
    from repro.engine.executor import CohortEngine
    from repro.engine.report import CohortReport
    from repro.engine.tasks import cohort_tasks
    from repro.exceptions import EngineError
    from repro.kernels import get_kernel

    dataset = SyntheticEEGDataset(seed=args.seed, duration_range_s=DURATION_RANGE_S)
    store = args.store if args.mode == "warm" else None

    tasks = cohort_tasks(dataset, patient_ids=PATIENTS)

    def run_pass():
        """One cohort pass on a fresh engine, one record per ``run`` call
        so that every record is a timing sample of its own."""
        engine = CohortEngine(dataset, executor="serial", store_dir=store)
        outcomes, records, raised = [], [], 0
        start = time.perf_counter()
        for task in tasks:
            t0, cpu = time.perf_counter(), time.process_time()
            try:
                part = engine.run([task])
            except EngineError:
                raised += 1  # a one-record run raises when its record fails
                continue
            t1 = time.perf_counter()
            outcomes += [*part.outcomes, *part.failures]
            records.append({
                "t0": t0, "t1": t1, "wall_s": t1 - t0,
                "cpu_s": time.process_time() - cpu,
                "media_s": sum(o.duration_s for o in part.outcomes),
            })
        wall = time.perf_counter() - start
        report = CohortReport.from_outcomes(outcomes)
        return wall, report, engine.cache_stats(), records, raised

    prefill = None
    if args.mode == "warm":
        # Filled the way a user fills a store: the default process pool,
        # its workers on every core; passes then run on the pinned one.
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, range(os.cpu_count()))
        report = CohortEngine(
            dataset, executor="process", max_workers=2, store_dir=store
        ).run(patient_ids=PATIENTS)
        os.sched_setaffinity(0, pinned)
        prefill = report.to_json()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer("cohort")
        layertrace.install(tracer)

    passes = []
    reports = set()
    started = time.perf_counter()
    while (
        time.perf_counter() - started < args.seconds
        or len(passes) < args.min_passes
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.enable()
        wall, report, stats, records, raised = run_pass()
        if traced:
            tracer.disable()
        text = report.to_json()
        reports.add(text)
        passes.append({
            "wall_s": wall,
            "traced": traced,
            "records": report.n_records,
            "failures": report.n_failures + raised,
            "media_s": sum(o.duration_s for o in report.outcomes),
            "stats": stats,
            "per_record": records,
        })
    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
        "kernel_backend": get_kernel("sample_entropy").__module__.rsplit(".", 1)[-1],
    }
    if tracer is not None:
        tracer.dump(args.trace)
    if prefill is not None:
        # Warm passes must reproduce the cold run that filled the store.
        result["reference"] = prefill
    else:
        # Untimed: let the reference pool use every core, not the pinned one.
        os.sched_setaffinity(0, range(os.cpu_count()))
        reference = CohortEngine(
            dataset, executor="process", max_workers=2,
            chunk_s=REFERENCE_CHUNK_S,
        ).run(patient_ids=PATIENTS)
        result["reference"] = reference.to_json()
    result["reports"] = sorted(reports)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
