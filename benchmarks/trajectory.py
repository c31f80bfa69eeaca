"""Append repository-benchmark medians to the perf trajectory in the tree.

Runs ``perfbench/run.py`` at least three times per named workload and
appends one entry per workload (and per checkout) to a root
``BENCH_<area>.json``: ``BENCH_engine.json`` for the cohort workloads,
``BENCH_service.json`` for the service ones.  An entry holds the git
sha, the ``src/`` line count and ``nproc`` from perfbench's details
line, the median, interquartile range and every run of
``media_s_per_cpu_s``, ``setup_s`` and ``peak_rss_mb``, and each run's
parity verdict and operation counts (``correct``, ``attempted``,
``failed``), since a run is also judged by its failed share.

Usage::

    python benchmarks/trajectory.py --workload cohort-cold --workload cohort-warm
    python benchmarks/trajectory.py --workload cohort-warm --repeats 5 \\
        --checkout ../parent --checkout .

With several ``--checkout`` directories (each a checkout of this
repository with its own ``perfbench/``), the runs interleave: round
``r`` runs every checkout once, in reversed order on odd rounds, so a
before/after comparison is made of alternating pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("media_s_per_cpu_s", "setup_s", "peak_rss_mb")
MIN_REPEATS = 3


def bench_file(workload: str) -> str:
    area = "engine" if workload.startswith("cohort-") else "service"
    return os.path.join(ROOT, f"BENCH_{area}.json")


def run_once(checkout: str, workload: str) -> tuple[dict, dict]:
    """One untraced perfbench run: its ``(details, result)`` lines."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise SystemExit(f"perfbench printed no result in {checkout}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}


def entry(workload: str, runs: list[tuple[dict, dict]]) -> dict:
    details = runs[0][0]
    env = details["environment"]
    results = [result for _, result in runs]
    metrics = {}
    if all(r["correct"] for r in results):
        for name in METRICS:
            metrics[name] = {
                "unit": results[0]["metrics"][name]["unit"],
                **summarize([r["metrics"][name]["value"] for r in results]),
            }
    return {
        "workload": workload,
        "git_sha": env["git_sha"],
        "src_lines": env["src_lines"],
        "nproc": env["nproc"],
        "seed": details["seed"],
        "seconds": details["seconds"],
        "repeats": len(runs),
        "correct": all(r["correct"] for r in results),
        "runs": [
            {k: r[k] for k in ("correct", "attempted", "failed")}
            for r in results
        ],
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics": metrics,
    }


def append(path: str, new: dict) -> None:
    entries = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    entries.append(new)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS)
    parser.add_argument("--checkout", action="append", default=None)
    args = parser.parse_args()
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    checkouts = [os.path.abspath(c) for c in args.checkout or [ROOT]]

    for workload in args.workload:
        runs: dict[str, list] = {c: [] for c in checkouts}
        for rnd in range(args.repeats):
            for checkout in checkouts[::-1] if rnd % 2 else checkouts:
                details, result = run_once(checkout, workload)
                runs[checkout].append((details, result))
                value = result["metrics"].get("media_s_per_cpu_s", {}).get("value")
                print(f"{workload} round {rnd} {checkout}: correct={result['correct']} "
                      f"media_s_per_cpu_s={value}", flush=True)
        for checkout in checkouts:
            new = entry(workload, runs[checkout])
            append(bench_file(workload), new)
            print(json.dumps(new), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
