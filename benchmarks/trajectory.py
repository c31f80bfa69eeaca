"""Append repository-benchmark medians to the perf trajectory in the tree,
and compare two recorded commits from it.

Runs ``perfbench/run.py`` at least three times per named workload and
appends one entry per workload (and per checkout) to a root
``BENCH_<area>.json``: ``BENCH_engine.json`` for the cohort workloads,
``BENCH_service.json`` for the service ones.  An entry holds the git
sha, the ``src/`` line count and ``nproc`` from perfbench's details
line, the workload seed, the median, interquartile range and every run
of ``media_s_per_cpu_s``, ``setup_s`` and ``peak_rss_mb``, and each
run's parity verdict and operation counts (``correct``, ``attempted``,
``failed``), since a run is also judged by its failed share.

Usage::

    python benchmarks/trajectory.py --workload cohort-cold --workload cohort-warm
    python benchmarks/trajectory.py --workload cohort-warm --repeats 5 \\
        --checkout ../parent --checkout . [--seed 7]
    python benchmarks/trajectory.py compare PARENT_SHA CHANGE_SHA \\
        [--workload W] [--seed N]

With several ``--checkout`` directories (each a checkout of this
repository with its own ``perfbench/``), the runs interleave: round
``r`` runs every checkout once, in reversed order on odd rounds, so a
before/after comparison is made of alternating pairs.  ``--seed`` is
passed through to perfbench (default: perfbench's own, 2019).

``compare`` reads the entries of the two commits (git sha prefixes)
back from the ``BENCH_*.json`` files, matches each change entry with
the parent entry recorded beside it, and pairs run ``i`` of the parent
with run ``i`` of the change.  For every workload and metric it prints the pairs, the
change's wins (in the metric's better direction, ties counting for
neither side), both medians, the median ratio, the parent's IQR and
whether the gap between the medians exceeds it, how much worse the
change reads against the metric's bound in ``BENCHMARK.json``, and the
correct/attempted/failed counts of each side.  A gain holds when the
change wins at least nine tenths of the pairs and the gap exceeds the
parent's IQR.
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


def run_once(
    checkout: str, workload: str, seed: int | None = None
) -> tuple[dict, dict]:
    """One untraced perfbench run: its ``(details, result)`` lines."""
    seed_args = [] if seed is None else ["--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, *seed_args],
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


def load_entries() -> list[dict]:
    """Every recorded entry of both trajectory files, in file order."""
    entries = []
    for area in ("engine", "service"):
        path = os.path.join(ROOT, f"BENCH_{area}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                entries.extend(json.load(fh))
    return entries


def metric_bounds() -> dict[str, tuple[str, float]]:
    """``name -> (better, bound)`` of the end-to-end metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def compare_rows(
    entries: list[dict],
    parent: str,
    change: str,
    bounds: dict[str, tuple[str, float]],
    workloads: list[str] | None = None,
    seed: int | None = None,
) -> list[dict]:
    """One row per (workload, metric) with both commits' paired runs.

    Every change entry (sha prefix ``change``, and ``seed`` when given)
    is matched with the parent entry recorded beside it: the nearest
    entry of the same workload, seed and run count whose sha starts
    with ``parent``, searched outwards through the run of entries of
    that workload around it, as one trajectory invocation writes them.
    Run ``i`` of the parent entry pairs with run ``i`` of the change
    entry, and the pairs of every matched couple are pooled in file
    order.  ``bounds`` maps each metric to its better direction and
    regression bound (:func:`metric_bounds`).
    """
    def recorded_with(i: int) -> dict | None:
        mine = entries[i]
        for dist in range(1, len(entries)):
            near = [j for j in (i - dist, i + dist) if 0 <= j < len(entries)]
            if not any(entries[j]["workload"] == mine["workload"] for j in near):
                return None
            for j in near:
                other = entries[j]
                if (other["git_sha"].startswith(parent)
                        and other["workload"] == mine["workload"]
                        and other.get("seed") == mine.get("seed")
                        and len(other["runs"]) == len(mine["runs"])):
                    return other
        return None

    names = workloads or sorted({e["workload"] for e in entries})
    rows = []
    for workload in names:
        couples = [
            (recorded_with(i), e) for i, e in enumerate(entries)
            if e["git_sha"].startswith(change) and e["workload"] == workload
            and (seed is None or e.get("seed") == seed)
        ]
        couples = [(a, b) for a, b in couples if a is not None]
        if not couples:
            continue
        before = [a for a, _ in couples]
        after = [b for _, b in couples]
        counts = [
            {k: sum(run[k] for e in group for run in e["runs"])
             for k in ("correct", "attempted", "failed")}
            for group in (before, after)
        ]
        for name in METRICS:
            better, bound = bounds[name]
            pairs = [
                pair for x, y in couples
                for pair in zip(x["metrics"].get(name, {}).get("runs", []),
                                y["metrics"].get(name, {}).get("runs", []))
            ]
            if not pairs:
                continue
            a, b = [x for x, _ in pairs], [y for _, y in pairs]
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            med_a, med_b = statistics.median(a), statistics.median(b)
            iqr = summarize(a)["iqr"]
            rows.append({
                "workload": workload,
                "metric": name,
                "pairs": len(pairs),
                "wins": wins,
                "parent_median": med_a,
                "change_median": med_b,
                "ratio": med_b / med_a,
                "parent_iqr": iqr,
                "gap_exceeds_iqr": abs(med_b - med_a) > iqr,
                "worse_frac": max(0.0, -sign * (med_b - med_a) / med_a),
                "bound": bound,
                "parent_runs": counts[0],
                "change_runs": counts[1],
            })
    return rows


def print_compare(rows: list[dict]) -> None:
    for r in rows:
        gain = (r["wins"] * 10 >= 9 * r["pairs"]) and r["gap_exceeds_iqr"]
        pc, cc = r["parent_runs"], r["change_runs"]
        print(
            f"{r['workload']:<15} {r['metric']:<18} pairs {r['pairs']:>2}  "
            f"wins {r['wins']:>2}/{r['pairs']:<2}  "
            f"median {r['parent_median']:.6g} -> {r['change_median']:.6g}  "
            f"ratio {r['ratio']:.4f}  parent IQR {r['parent_iqr']:.4g}  "
            f"gap > IQR {'yes' if r['gap_exceeds_iqr'] else 'no'}  "
            f"worse {r['worse_frac'] * 100:.1f}% (bound {r['bound'] * 100:.0f}%)  "
            f"runs correct/attempted/failed "
            f"{pc['correct']}/{pc['attempted']}/{pc['failed']} -> "
            f"{cc['correct']}/{cc['attempted']}/{cc['failed']}"
            f"{'  GAIN' if gain else ''}"
        )


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="trajectory.py compare",
        description="Pair two commits' recorded runs, metric by metric.",
    )
    parser.add_argument("parent", help="git sha (prefix) of the parent")
    parser.add_argument("change", help="git sha (prefix) of the change")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    rows = compare_rows(load_entries(), args.parent, args.change,
                        metric_bounds(), args.workload, args.seed)
    if not rows:
        print("no workload has runs recorded for both commits", file=sys.stderr)
        return 1
    print_compare(rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS)
    parser.add_argument("--checkout", action="append", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    checkouts = [os.path.abspath(c) for c in args.checkout or [ROOT]]

    for workload in args.workload:
        runs: dict[str, list] = {c: [] for c in checkouts}
        for rnd in range(args.repeats):
            for checkout in checkouts[::-1] if rnd % 2 else checkouts:
                details, result = run_once(checkout, workload, args.seed)
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
