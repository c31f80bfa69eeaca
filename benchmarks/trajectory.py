"""Append repository-benchmark medians to the perf trajectory in the tree,
and compare two recorded commits from it.

Runs ``perfbench/run.py`` at least three times per named workload and
appends one entry per workload (and per checkout) to a root
``BENCH_<area>.json``: ``BENCH_engine.json`` for the cohort workloads,
``BENCH_service.json`` for the service ones.  An entry holds the git
sha, the ``src/`` digest and line count and ``nproc`` from perfbench's
details line, the checkout's role, the workload seed, the median,
interquartile range and every run of ``media_s_per_cpu_s``, ``setup_s``
and ``peak_rss_mb``, and each run's parity verdict and operation counts
(``correct``, ``attempted``, ``failed``), since a run is also judged by
its failed share.  Every entry of one invocation carries the same
``invocation`` id.

Usage::

    python benchmarks/trajectory.py --workload cohort-cold --workload cohort-warm
    python benchmarks/trajectory.py --workload cohort-warm --repeats 5 \\
        --checkout ../parent --checkout . [--seed 7]
    python benchmarks/trajectory.py --workload cohort-cold --repeats 10 \\
        --checkout ../parent --checkout ../parent-copy --checkout .
    python benchmarks/trajectory.py compare PARENT_SHA CHANGE_SHA \\
        [--workload W] [--seed N]

With several ``--checkout`` directories (each a checkout of this
repository with its own ``perfbench/``), the runs interleave: round
``r`` runs every checkout once, in reversed order on odd rounds, so a
before/after comparison is made of alternating pairs.  ``--seed`` is
passed through to perfbench (default: perfbench's own, 2019).  Each
checkout's role follows from the git sha and ``src/`` digest perfbench
reports for it: the first of several checkouts is the ``parent``; a
later one with the parent's sha and digest is ``aa``, a second copy of
the parent run to measure how far unchanged code moves between
checkouts; any other is a ``change``, as is a lone checkout.

``compare`` reads the entries of the two commits back from the
``BENCH_*.json`` files -- each argument is a prefix of either the git
sha or the ``src/`` digest, so a change benchmarked from an uncommitted
or scratch-commit tree is found by its source -- matches each change
entry with the parent entry recorded beside it in the same invocation,
and pairs run ``i`` of the parent with run ``i`` of the change.  For every workload and metric
it prints the pairs, the change's wins (in the metric's better
direction, ties counting for neither side), both medians, the median
ratio, the parent's IQR and whether the gap between the medians exceeds
it, how much worse the change reads against the metric's bound in
``BENCHMARK.json``, and the correct/attempted/failed counts of each
side.  Where an ``aa`` entry was recorded beside the parent, its ratio
and win count against that parent are printed too, with the set they
come from: the A/A copy run in the same invocation as the A/B pairs
(``--checkout parent --checkout parent-copy --checkout change``) when
there is one, since sets from different invocations spread more than
runs inside one, else every A/A set of the workload pooled.  A gain holds when
the change wins at least nine tenths of the pairs, the gap exceeds the
parent's IQR and, given an A/A set, the change moves further from the
parent, in its better direction, than the A/A copy moved either way;
a result that passes the first two tests but not the third is printed
as within noise.
"""

from __future__ import annotations

import argparse
import calendar
import json
import os
import statistics
import subprocess
import sys
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("media_s_per_cpu_s", "setup_s", "peak_rss_mb")
MIN_REPEATS = 3
#: Entries written before the ``invocation`` id was kept carry only the
#: second they were written at.  One invocation writes its entries of a
#: workload back to back; two invocations' entries of a workload are at
#: least one round of runs (tens of seconds) apart.
LEGACY_SLACK_S = 5


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


def entry(
    workload: str, runs: list[tuple[dict, dict]], role: str, invocation: str
) -> dict:
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
        "src_digest": env["src_digest"],
        "role": role,
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
        "invocation": invocation,
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


def checkout_roles(envs: list[dict]) -> list[str]:
    """The role of each checkout, given perfbench's ``environment`` of
    each in ``--checkout`` order (see the module docstring)."""
    if len(envs) == 1:
        return ["change"]
    parent = (envs[0]["git_sha"], envs[0]["src_digest"])
    return ["parent"] + [
        "aa" if (env["git_sha"], env["src_digest"]) == parent else "change"
        for env in envs[1:]
    ]


def names_commit(entry: dict, prefix: str) -> bool:
    """Whether ``prefix`` starts the entry's git sha or its ``src/``
    digest (entries recorded before the digest was kept have none)."""
    return entry["git_sha"].startswith(prefix) or entry.get(
        "src_digest", ""
    ).startswith(prefix)


def same_invocation(a: dict, b: dict) -> bool:
    """Whether two entries were written by one invocation: the same
    ``invocation`` id, or for entries written before it was kept,
    ``recorded`` stamps at most :data:`LEGACY_SLACK_S` apart.  Entries
    with neither are told apart by their place in the file alone."""
    if "invocation" in a or "invocation" in b:
        return a.get("invocation") == b.get("invocation")
    if "recorded" in a and "recorded" in b:
        gap = calendar.timegm(
            time.strptime(a["recorded"], "%Y-%m-%dT%H:%M:%SZ")
        ) - calendar.timegm(time.strptime(b["recorded"], "%Y-%m-%dT%H:%M:%SZ"))
        return abs(gap) <= LEGACY_SLACK_S
    return True


def paired_runs(couples: list[tuple[dict, dict]], name: str) -> list[tuple]:
    """Run ``i`` of the first entry with run ``i`` of the second, for
    every couple, in order."""
    return [
        pair for x, y in couples
        for pair in zip(x["metrics"].get(name, {}).get("runs", []),
                        y["metrics"].get(name, {}).get("runs", []))
    ]


def compare_rows(
    entries: list[dict],
    parent: str,
    change: str,
    bounds: dict[str, tuple[str, float]],
    workloads: list[str] | None = None,
    seed: int | None = None,
) -> list[dict]:
    """One row per (workload, metric) with both commits' paired runs.

    ``parent`` and ``change`` are prefixes of a git sha or a ``src/``
    digest (:func:`names_commit`); an entry with a role counts only in
    that role (entries recorded before roles were kept count in either).
    Every change entry (and ``seed``, when given) is matched with the
    parent entry recorded beside it: the nearest entry of the same
    workload, seed, run count and invocation (:func:`same_invocation`)
    that names ``parent``, searched outwards through the run of entries
    of that workload around it, as one trajectory invocation writes
    them.  Run ``i`` of the parent entry pairs with
    run ``i`` of the change entry, and the pairs of every matched couple
    are pooled in file order.  Entries with role ``aa`` are matched with
    their parent the same way and give each row its A/A ratio and win
    count (``None`` without an A/A set): from the A/A sets recorded
    beside the row's own parent entries when there are any
    (``aa_source`` ``"same invocation"``), else from every A/A set of
    the workload pooled (``"pooled"``).  ``bounds`` maps each metric to
    its better direction and regression bound (:func:`metric_bounds`).
    """
    def recorded_with(i: int) -> dict | None:
        mine = entries[i]
        for dist in range(1, len(entries)):
            near = [j for j in (i - dist, i + dist) if 0 <= j < len(entries)]
            if not any(entries[j]["workload"] == mine["workload"] for j in near):
                return None
            for j in near:
                other = entries[j]
                if (names_commit(other, parent)
                        and other.get("role", "parent") == "parent"
                        and other["workload"] == mine["workload"]
                        and other.get("seed") == mine.get("seed")
                        and len(other["runs"]) == len(mine["runs"])
                        and same_invocation(other, mine)):
                    return other
        return None

    def couples_of(workload: str, wanted) -> list[tuple[dict, dict]]:
        found = [
            (recorded_with(i), e) for i, e in enumerate(entries)
            if e["workload"] == workload and wanted(e)
            and (seed is None or e.get("seed") == seed)
        ]
        return [(a, b) for a, b in found if a is not None]

    names = workloads or sorted({e["workload"] for e in entries})
    rows = []
    for workload in names:
        couples = couples_of(
            workload,
            lambda e: names_commit(e, change)
            and e.get("role", "change") == "change",
        )
        if not couples:
            continue
        aa_couples = couples_of(workload, lambda e: e.get("role") == "aa")
        # An A/A set recorded in the same invocation as the A/B set (its
        # parent entry is the A/B parent entry) measured the same host
        # state; only without one are the A/A sets of other invocations
        # pooled.
        same = [c for c in aa_couples if any(c[0] is a for a, _ in couples)]
        aa_source = "same invocation" if same else "pooled" if aa_couples else None
        aa_couples = same or aa_couples
        before = [a for a, _ in couples]
        after = [b for _, b in couples]
        counts = [
            {k: sum(run[k] for e in group for run in e["runs"])
             for k in ("correct", "attempted", "failed")}
            for group in (before, after)
        ]
        for name in METRICS:
            better, bound = bounds[name]
            pairs = paired_runs(couples, name)
            if not pairs:
                continue
            a, b = [x for x, _ in pairs], [y for _, y in pairs]
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            med_a, med_b = statistics.median(a), statistics.median(b)
            iqr = summarize(a)["iqr"]
            aa_pairs = paired_runs(aa_couples, name)
            aa = None
            if aa_pairs:
                aa = {
                    "pairs": len(aa_pairs),
                    "wins": sum(sign * (y - x) > 0 for x, y in aa_pairs),
                    "ratio": statistics.median(y for _, y in aa_pairs)
                    / statistics.median(x for x, _ in aa_pairs),
                }
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
                "aa": aa,
                "aa_source": aa_source,
                "verdict": verdict(len(pairs), wins, abs(med_b - med_a) > iqr,
                                   sign * (med_b / med_a - 1.0), aa),
            })
    return rows


def verdict(
    pairs: int, wins: int, gap_exceeds_iqr: bool, gain: float, aa: dict | None
) -> str:
    """``"gain"`` when the change wins at least nine tenths of the pairs,
    its median gap exceeds the parent's IQR and its relative gain (in the
    metric's better direction) exceeds the A/A copy's relative move in
    either direction; ``"within noise"`` when only the A/A test fails;
    ``""`` otherwise."""
    if not (wins * 10 >= 9 * pairs and gap_exceeds_iqr):
        return ""
    if aa is not None and gain <= abs(aa["ratio"] - 1.0):
        return "within noise"
    return "gain"


def print_compare(rows: list[dict]) -> None:
    for r in rows:
        pc, cc = r["parent_runs"], r["change_runs"]
        aa = r["aa"]
        print(
            f"{r['workload']:<15} {r['metric']:<18} pairs {r['pairs']:>2}  "
            f"wins {r['wins']:>2}/{r['pairs']:<2}  "
            f"median {r['parent_median']:.6g} -> {r['change_median']:.6g}  "
            f"ratio {r['ratio']:.4f}  parent IQR {r['parent_iqr']:.4g}  "
            f"gap > IQR {'yes' if r['gap_exceeds_iqr'] else 'no'}  "
            + (f"A/A ratio {aa['ratio']:.4f} wins {aa['wins']}/{aa['pairs']} "
               f"({r['aa_source']})  " if aa else "A/A none  ")
            + f"worse {r['worse_frac'] * 100:.1f}% (bound {r['bound'] * 100:.0f}%)  "
            f"runs correct/attempted/failed "
            f"{pc['correct']}/{pc['attempted']}/{pc['failed']} -> "
            f"{cc['correct']}/{cc['attempted']}/{cc['failed']}"
            f"{'  ' + r['verdict'].upper() if r['verdict'] else ''}"
        )


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="trajectory.py compare",
        description="Pair two commits' recorded runs, metric by metric.",
    )
    parser.add_argument("parent", help="git sha or src/ digest (prefix) of the parent")
    parser.add_argument("change", help="git sha or src/ digest (prefix) of the change")
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
    if len(set(checkouts)) != len(checkouts):
        parser.error("each --checkout must be a different directory")
    invocation = uuid.uuid4().hex

    for workload in args.workload:
        runs: dict[str, list] = {c: [] for c in checkouts}
        for rnd in range(args.repeats):
            for checkout in checkouts[::-1] if rnd % 2 else checkouts:
                details, result = run_once(checkout, workload, args.seed)
                runs[checkout].append((details, result))
                value = result["metrics"].get("media_s_per_cpu_s", {}).get("value")
                print(f"{workload} round {rnd} {checkout}: correct={result['correct']} "
                      f"media_s_per_cpu_s={value}", flush=True)
        roles = checkout_roles(
            [runs[c][0][0]["environment"] for c in checkouts]
        )
        for checkout, role in zip(checkouts, roles):
            new = entry(workload, runs[checkout], role, invocation)
            append(bench_file(workload), new)
            print(json.dumps(new), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
