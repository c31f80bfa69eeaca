"""Unit tests for ``benchmarks/trajectory.py``: the run-pairing verdicts
of ``compare`` and the ``--seed`` pass-through to perfbench."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", os.path.join(ROOT, "benchmarks", "trajectory.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDS = {
    "media_s_per_cpu_s": ("higher", 0.25),
    "setup_s": ("lower", 0.25),
    "peak_rss_mb": ("lower", 0.1),
}


def entry(sha, workload, media, setup, rss, failed=0, seed=2019):
    runs = [
        {"correct": True, "attempted": 100, "failed": failed} for _ in media
    ]
    return {
        "workload": workload,
        "git_sha": sha,
        "seed": seed,
        "runs": runs,
        "metrics": {
            "media_s_per_cpu_s": {"runs": media},
            "setup_s": {"runs": setup},
            "peak_rss_mb": {"runs": rss},
        },
    }


#: A parent and a change of the same workload, ten runs each: the change
#: reads faster in 9 of 10 pairs and is slower to set up in every pair.
#: Before them, the same parent was recorded beside another change, with
#: other readings that must not be paired with this change's runs.
ENTRIES = [
    entry("aaaa1111", "service-replay", [500] * 10, [9.0] * 10, [99.0] * 10),
    entry("cccc3333", "service-replay", [501] * 10, [9.0] * 10, [99.0] * 10),
    entry(
        "aaaa1111", "service-replay",
        media=[100, 102, 98, 101, 99, 100, 103, 97, 100, 101],
        setup=[0.40] * 10,
        rss=[50.0] * 10,
    ),
    entry(
        "bbbb2222", "service-replay",
        media=[110, 112, 108, 111, 109, 95, 113, 107, 110, 111],
        setup=[0.44] * 10,
        rss=[50.0] * 9 + [49.0],
        failed=1,
    ),
    # Another workload and another seed.
    entry("aaaa1111", "cohort-cold", [1.0, 1.0, 1.0], [1.0] * 3, [1.0] * 3),
    entry("bbbb2222", "service-replay", [1.0] * 3, [1.0] * 3, [1.0] * 3, seed=7),
]


def rows_by_metric(rows):
    return {r["metric"]: r for r in rows}


class TestCompare:
    def test_pairs_run_i_with_run_i(self, trajectory):
        rows = trajectory.compare_rows(
            ENTRIES, "aaaa", "bbbb", BOUNDS, ["service-replay"], seed=2019
        )
        media = rows_by_metric(rows)["media_s_per_cpu_s"]
        assert media["pairs"] == 10
        assert media["wins"] == 9  # run 5: 95 against the parent's 100
        assert media["parent_median"] == 100.0
        assert media["change_median"] == 110.0
        assert media["ratio"] == pytest.approx(1.1)
        # Inclusive quartiles of the parent's runs: 99.25 and 101.
        assert media["parent_iqr"] == pytest.approx(1.75)
        assert media["gap_exceeds_iqr"]
        assert media["worse_frac"] == 0.0

    def test_lower_is_better_and_bound(self, trajectory):
        rows = rows_by_metric(trajectory.compare_rows(
            ENTRIES, "aaaa", "bbbb", BOUNDS, ["service-replay"], seed=2019
        ))
        setup = rows["setup_s"]
        assert setup["wins"] == 0
        assert setup["worse_frac"] == pytest.approx(0.1)
        assert setup["bound"] == 0.25
        rss = rows["peak_rss_mb"]
        assert rss["wins"] == 1  # a lower RSS wins; the nine ties count for neither
        assert not rss["gap_exceeds_iqr"]

    def test_counts_runs_and_failed_operations(self, trajectory):
        rows = trajectory.compare_rows(
            ENTRIES, "aaaa", "bbbb", BOUNDS, ["service-replay"], seed=2019
        )
        assert rows[0]["parent_runs"] == {
            "correct": 10, "attempted": 1000, "failed": 0
        }
        assert rows[0]["change_runs"] == {
            "correct": 10, "attempted": 1000, "failed": 10
        }

    def test_pairs_only_entries_recorded_together(self, trajectory):
        # The seed-7 change entry has no parent recorded beside it, and
        # the earlier parent entry belongs to the cccc3333 comparison.
        rows = rows_by_metric(trajectory.compare_rows(
            ENTRIES, "aaaa", "bbbb", BOUNDS, ["service-replay"]
        ))
        assert rows["media_s_per_cpu_s"]["pairs"] == 10
        assert rows["media_s_per_cpu_s"]["parent_median"] == 100.0
        other = rows_by_metric(trajectory.compare_rows(
            ENTRIES, "aaaa", "cccc", BOUNDS, ["service-replay"]
        ))
        assert other["media_s_per_cpu_s"]["parent_median"] == 500.0

    def test_seed_and_workload_filters(self, trajectory):
        assert trajectory.compare_rows(
            ENTRIES, "aaaa", "bbbb", BOUNDS, ["service-replay"], seed=7
        ) == []
        # cohort-cold has no change entry: no row.
        assert trajectory.compare_rows(
            ENTRIES, "aaaa", "bbbb", BOUNDS, ["cohort-cold"]
        ) == []

    def test_main_reads_the_bench_files(self, trajectory, tmp_path, monkeypatch, capsys):
        (tmp_path / "BENCH_service.json").write_text(json.dumps(ENTRIES))
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            (tmp_path / "BENCHMARK.json").write_text(fh.read())
        monkeypatch.setattr(trajectory, "ROOT", str(tmp_path))
        assert trajectory.main(
            ["compare", "aaaa", "bbbb", "--workload", "service-replay",
             "--seed", "2019"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert "wins  9/10" in out[0] and out[0].endswith("GAIN")
        assert not out[1].endswith("GAIN")
        assert trajectory.main(["compare", "aaaa", "ffff"]) == 1


class TestSeedPassThrough:
    def test_seed_reaches_perfbench(self, trajectory, monkeypatch):
        seen = []

        def fake_run(argv, **kwargs):
            seen.append(argv)
            lines = [json.dumps({"details": 1}), json.dumps({"result": 1})]
            return subprocess.CompletedProcess(argv, 0, "\n".join(lines), "")

        monkeypatch.setattr(trajectory.subprocess, "run", fake_run)
        trajectory.run_once("/checkout", "service-replay", 7)
        trajectory.run_once("/checkout", "service-replay")
        assert seen[0][-2:] == ["--seed", "7"]
        assert "--seed" not in seen[1]
