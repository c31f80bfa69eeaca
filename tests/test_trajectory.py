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


def entry(sha, workload, media, setup, rss, failed=0, seed=2019, **extra):
    runs = [
        {"correct": True, "attempted": 100, "failed": failed} for _ in media
    ]
    return {
        "workload": workload,
        "git_sha": sha,
        "seed": seed,
        **extra,
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


#: An A/B set recorded from a scratch commit that never entered history
#: (found by its src/ digest), then an A/A set of the same parent: a
#: second copy of it read 12 % faster, so the A/B set's 10 % gain in
#: 10 of 10 pairs is within noise.
AA_ENTRIES = [
    entry("aaaa1111", "cohort-cold", [100.0 + i for i in range(10)],
          [0.4] * 10, [50.0] * 10, src_digest="d1d1", role="parent"),
    entry("eeee5555", "cohort-cold", [110.0 + i for i in range(10)],
          [0.4] * 10, [50.0] * 10, src_digest="d2d2", role="change"),
    entry("aaaa1111", "cohort-cold", [100.0 + i for i in range(10)],
          [0.4] * 10, [50.0] * 10, src_digest="d1d1", role="parent"),
    entry("aaaa1111", "cohort-cold", [112.0 + i for i in range(10)],
          [0.4] * 10, [50.0] * 10, src_digest="d1d1", role="aa"),
]


class TestAARole:
    def test_src_digest_names_the_change(self, trajectory):
        by_sha = trajectory.compare_rows(AA_ENTRIES, "aaaa", "eeee", BOUNDS)
        by_digest = trajectory.compare_rows(AA_ENTRIES, "d1d1", "d2d2", BOUNDS)
        assert by_sha == by_digest
        assert by_sha[0]["pairs"] == 10 and by_sha[0]["wins"] == 10

    def test_entries_count_only_in_their_role(self, trajectory):
        # The A/A copy carries the parent's sha and digest; it must not
        # stand in for the parent beside the change, nor be a change.
        assert trajectory.compare_rows(AA_ENTRIES[2:], "aaaa", "aaaa", BOUNDS) == []
        # A later set that runs this change as its parent is not paired
        # with the earlier parent found near it.
        later = AA_ENTRIES[:2] + [
            entry("eeee5555", "cohort-cold", [90.0] * 10, [0.4] * 10,
                  [50.0] * 10, role="parent"),
            entry("ffff6666", "cohort-cold", [95.0] * 10, [0.4] * 10,
                  [50.0] * 10, role="change"),
        ]
        media = trajectory.compare_rows(later, "aaaa", "eeee", BOUNDS)[0]
        assert media["pairs"] == 10 and media["change_median"] == 114.5
        media = trajectory.compare_rows(AA_ENTRIES, "aaaa", "eeee", BOUNDS)[0]
        assert media["parent_median"] == 104.5

    def test_aa_turns_a_ten_of_ten_win_into_within_noise(self, trajectory):
        media = rows_by_metric(trajectory.compare_rows(
            AA_ENTRIES, "aaaa", "eeee", BOUNDS
        ))["media_s_per_cpu_s"]
        assert media["wins"] == 10 and media["gap_exceeds_iqr"]
        assert media["aa"] == {
            "pairs": 10, "wins": 10, "ratio": pytest.approx(116.5 / 104.5)
        }
        assert media["verdict"] == "within noise"
        # Without the A/A set the same pairs are a gain.
        alone = rows_by_metric(trajectory.compare_rows(
            AA_ENTRIES[:2], "aaaa", "eeee", BOUNDS
        ))["media_s_per_cpu_s"]
        assert alone["aa"] is None and alone["verdict"] == "gain"

    def test_gain_clears_a_small_aa_move(self, trajectory):
        quiet = [dict(e) for e in AA_ENTRIES]
        quiet[3] = entry("aaaa1111", "cohort-cold",
                         [101.0 + i for i in range(10)], [0.4] * 10,
                         [50.0] * 10, role="aa")
        media = rows_by_metric(trajectory.compare_rows(
            quiet, "aaaa", "eeee", BOUNDS
        ))["media_s_per_cpu_s"]
        assert media["aa"]["ratio"] < media["ratio"]
        assert media["verdict"] == "gain"

    def test_compare_prints_the_aa_columns(self, trajectory, tmp_path,
                                           monkeypatch, capsys):
        (tmp_path / "BENCH_engine.json").write_text(json.dumps(AA_ENTRIES))
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            (tmp_path / "BENCHMARK.json").write_text(fh.read())
        monkeypatch.setattr(trajectory, "ROOT", str(tmp_path))
        assert trajectory.main(["compare", "aaaa", "d2d2"]) == 0
        media = capsys.readouterr().out.splitlines()[0]
        assert "A/A ratio 1.1148 wins 10/10" in media
        assert media.endswith("WITHIN NOISE")

    def test_roles_follow_the_checkouts(self, trajectory, tmp_path, monkeypatch):
        # perfbench reports each checkout's git sha and src/ digest; the
        # role follows from them, so a copy of the parent cannot be
        # recorded as a change, nor a change as an A/A copy.
        environments = {
            "parent": {"git_sha": "abc", "src_digest": "d1"},
            "copy": {"git_sha": "abc", "src_digest": "d1"},
            "dirty": {"git_sha": "abc", "src_digest": "d2"},
            "change": {"git_sha": "def", "src_digest": "d3"},
        }
        result = {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"unit": "x", "value": 1.0}
                        for name in trajectory.METRICS},
        }

        def run_once(checkout, workload, seed):
            env = environments[os.path.basename(checkout)]
            details = {"environment": {**env, "src_lines": 1, "nproc": 2},
                       "seed": 2019, "seconds": 1.0}
            return details, result

        monkeypatch.setattr(trajectory, "ROOT", str(tmp_path))
        monkeypatch.setattr(trajectory, "run_once", run_once)

        def record(*names):
            argv = ["--workload", "cohort-cold"]
            for name in names:
                argv += ["--checkout", str(tmp_path / name)]
            assert trajectory.main(argv) == 0

        record("parent", "change")
        record("parent", "copy")
        record("parent", "dirty", "copy")
        record("change")
        recorded = json.loads((tmp_path / "BENCH_engine.json").read_text())
        assert [e["role"] for e in recorded] == [
            "parent", "change", "parent", "aa", "parent", "change", "aa",
            "change",
        ]
        assert [e["src_digest"] for e in recorded[:4]] == ["d1", "d3", "d1", "d1"]
        with pytest.raises(SystemExit):
            record("parent", "parent")


#: Two invocations: the first recorded a noisy A/A copy (25 % faster),
#: the second, with ``--checkout parent --checkout parent-copy
#: --checkout change``, a quiet one (1 % faster) beside the change.
TWO_AA_ENTRIES = [
    entry("aaaa1111", "cohort-cold", [100.0 + i for i in range(10)],
          [0.4] * 10, [50.0] * 10, role="parent"),
    entry("aaaa1111", "cohort-cold", [125.0 + i for i in range(10)],
          [0.4] * 10, [50.0] * 10, role="aa"),
    entry("aaaa1111", "cohort-cold", [100.0 + i for i in range(10)],
          [0.4] * 10, [50.0] * 10, role="parent"),
    entry("aaaa1111", "cohort-cold", [101.0 + i for i in range(10)],
          [0.4] * 10, [50.0] * 10, role="aa"),
    entry("eeee5555", "cohort-cold", [110.0 + i for i in range(10)],
          [0.4] * 10, [50.0] * 10, role="change"),
]


class TestSameInvocationAA:
    def test_same_invocation_set_decides(self, trajectory):
        media = rows_by_metric(trajectory.compare_rows(
            TWO_AA_ENTRIES, "aaaa", "eeee", BOUNDS
        ))["media_s_per_cpu_s"]
        assert media["aa_source"] == "same invocation"
        assert media["aa"] == {
            "pairs": 10, "wins": 10, "ratio": pytest.approx(105.5 / 104.5)
        }
        assert media["verdict"] == "gain"

    def test_other_invocations_are_pooled_without_one(self, trajectory):
        # Without the quiet copy, the change's own invocation has no A/A
        # set: the noisy copy of the other invocation is used, and it
        # outweighs the gain.
        noisy_only = TWO_AA_ENTRIES[:3] + TWO_AA_ENTRIES[4:]
        media = rows_by_metric(trajectory.compare_rows(
            noisy_only, "aaaa", "eeee", BOUNDS
        ))["media_s_per_cpu_s"]
        assert media["aa_source"] == "pooled"
        assert media["aa"]["ratio"] == pytest.approx(129.5 / 104.5)
        assert media["verdict"] == "within noise"

    def test_checkout_order_does_not_matter(self, trajectory):
        # The quiet copy recorded after the change is still beside the
        # same parent entry.
        reordered = TWO_AA_ENTRIES[:3] + TWO_AA_ENTRIES[4:] + TWO_AA_ENTRIES[3:4]
        media = rows_by_metric(trajectory.compare_rows(
            reordered, "aaaa", "eeee", BOUNDS
        ))["media_s_per_cpu_s"]
        assert media["aa_source"] == "same invocation"
        assert media["verdict"] == "gain"

    def test_compare_prints_the_set_used(self, trajectory, tmp_path,
                                         monkeypatch, capsys):
        (tmp_path / "BENCH_engine.json").write_text(json.dumps(TWO_AA_ENTRIES))
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            (tmp_path / "BENCHMARK.json").write_text(fh.read())
        monkeypatch.setattr(trajectory, "ROOT", str(tmp_path))
        assert trajectory.main(["compare", "aaaa", "eeee"]) == 0
        media = capsys.readouterr().out.splitlines()[0]
        assert "A/A ratio 1.0096 wins 10/10 (same invocation)" in media
        assert media.endswith("GAIN")


def two_invocations(key, first, first_warm, second, second_warm):
    """Two invocations, each recording cohort-cold (parent, A/A copy,
    change) and then cohort-warm (parent, change); ``key`` is the field
    telling them apart, with one value per workload set."""
    def cold(sha, media, role):
        return entry(sha, "cohort-cold", media, [0.4] * 10, [50.0] * 10,
                     role=role)

    def warm(sha, role):
        return entry(sha, "cohort-warm", [500.0] * 3, [1.2] * 3, [44.0] * 3,
                     role=role)

    def mark(value, *entries):
        return [dict(e, **{key: value}) for e in entries]

    return (
        mark(first,
             cold("aaaa1111", [100.0 + i for i in range(10)], "parent"),
             cold("aaaa1111", [125.0 + i for i in range(10)], "aa"),
             cold("eeee5555", [90.0 + i for i in range(10)], "change"))
        + mark(first_warm, warm("aaaa1111", "parent"), warm("eeee5555", "change"))
        + mark(second,
               cold("bbbb2222", [100.0 + i for i in range(10)], "parent"),
               cold("bbbb2222", [101.0 + i for i in range(10)], "aa"),
               cold("eeee5555", [110.0 + i for i in range(10)], "change"))
        + mark(second_warm, warm("bbbb2222", "parent"), warm("eeee5555", "change"))
    )


class TestInvocationPairing:
    """The same change measured against two parents in two invocations,
    with cohort-cold and cohort-warm entries alternating in the file: a
    change entry pairs only with the parent of its own invocation."""

    @pytest.mark.parametrize("key, values", [
        ("invocation", ("first", "first", "second", "second")),
        # Entries written before the id was kept: their stamps, one of
        # them a second late.
        ("recorded", ("2026-10-19T08:22:39Z", "2026-10-19T08:24:51Z",
                      "2026-10-19T08:33:16Z", "2026-10-19T08:35:30Z")),
    ])
    def test_change_pairs_within_its_invocation(self, trajectory, key, values):
        entries = two_invocations(key, *values)
        if key == "recorded":
            entries[7]["recorded"] = "2026-10-19T08:33:17Z"
        media = rows_by_metric(trajectory.compare_rows(
            entries, "bbbb", "eeee", BOUNDS, ["cohort-cold"]
        ))["media_s_per_cpu_s"]
        assert media["pairs"] == 10
        assert media["change_median"] == 114.5
        assert media["aa_source"] == "same invocation"
        assert media["aa"]["ratio"] == pytest.approx(105.5 / 104.5)
        assert media["verdict"] == "gain"
        first = rows_by_metric(trajectory.compare_rows(
            entries, "aaaa", "eeee", BOUNDS, ["cohort-cold"]
        ))["media_s_per_cpu_s"]
        assert first["pairs"] == 10 and first["change_median"] == 94.5

    def test_each_invocation_writes_one_id(self, trajectory, tmp_path,
                                           monkeypatch):
        result = {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"unit": "x", "value": 1.0}
                        for name in trajectory.METRICS},
        }

        def run_once(checkout, workload, seed):
            env = {"git_sha": os.path.basename(checkout), "src_digest": "d",
                   "src_lines": 1, "nproc": 2}
            return {"environment": env, "seed": 2019, "seconds": 1.0}, result

        monkeypatch.setattr(trajectory, "ROOT", str(tmp_path))
        monkeypatch.setattr(trajectory, "run_once", run_once)
        for _ in range(2):
            assert trajectory.main([
                "--workload", "cohort-cold", "--workload", "cohort-warm",
                "--checkout", str(tmp_path / "p"), "--checkout", str(tmp_path / "c"),
            ]) == 0
        ids = [e["invocation"] for e in json.loads(
            (tmp_path / "BENCH_engine.json").read_text())]
        assert len(ids) == 8
        assert len(set(ids[:4])) == len(set(ids[4:])) == 1
        assert ids[0] != ids[4]


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
