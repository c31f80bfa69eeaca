"""Tests for the command-line interface (``python -m repro``)."""

import json
import re

import pytest

from repro.cli import build_parser, main, resolve_cohort_scale
from repro.data import save_record
from repro.data.sampling import PAPER_DURATION_RANGE_S
from repro.settings import ENV_PAPER_DURATIONS, ENV_SAMPLES_PER_SEIZURE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_label_requires_duration(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["label", "somefile"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.patient == 1
        assert args.duration_min == 8.0

    @pytest.mark.parametrize(
        "command",
        [["cohort"], ["shard", "run", "shard-000.json"],
         ["shard", "orchestrate", "--out-dir", "plan"]],
    )
    @pytest.mark.parametrize("kind", ["fleet", "thread"])
    def test_executor_choice_refuses_unknown_kind(self, command, kind, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*command, "--executor", kind])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{kind}'" in err
        # Newer argparse versions print the choices without quotes.
        assert re.search(r"choose from '?process'?, '?serial'?\)", err)


class TestSimulate:
    def test_runs_and_prints_delta(self, capsys):
        code = main(
            [
                "simulate",
                "--patient", "8",
                "--duration-min", "5",
                "--duration-max", "6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delta =" in out
        assert "ground truth" in out

    def test_invalid_duration_range_errors(self, capsys):
        code = main(
            ["simulate", "--duration-min", "10", "--duration-max", "5"]
        )
        assert code == 2


class TestLabel:
    def test_labels_saved_record(self, tmp_path, dataset, capsys):
        record = dataset.generate_sample(9, 0, 0)
        base = tmp_path / "rec"
        save_record(record, base)
        code = main(
            ["label", str(base), "--avg-duration",
             str(dataset.mean_seizure_duration(9))]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "detected seizure" in out
        assert "delta =" in out  # expert summary was loaded and compared


class TestCohort:
    def test_runs_and_prints_table(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code = main(
            [
                "cohort",
                "--patients", "8",
                "--samples", "1",
                "--duration-min", "5",
                "--duration-max", "6",
                "--executor", "serial",
                "--json", str(out_json),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "patient" in out and "gmean" in out
        assert "cohort: 4 records" in out  # patient 8 has 4 seizures
        assert out_json.exists()
        payload = out_json.read_text()
        assert '"patients":' in payload

    def test_invalid_duration_range_errors(self):
        code = main(["cohort", "--duration-min", "9", "--duration-max", "5"])
        assert code == 2

    def test_bad_patient_list_errors(self):
        code = main(["cohort", "--patients", "eight"])
        assert code == 2

    def test_patient_list_parsing_to_empty_errors(self, capsys):
        # "," splits to nothing: must not run an empty cohort cleanly.
        code = main(["cohort", "--patients", ",", "--executor", "serial"])
        assert code == 2
        assert "bad --patients" in capsys.readouterr().err

    def test_bad_samples_errors(self):
        code = main(["cohort", "--samples", "0"])
        assert code == 2

    def test_unknown_patient_id_errors_cleanly(self, capsys):
        code = main(["cohort", "--patients", "99"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown patient ids" in err

    def test_zero_workers_errors_cleanly(self, capsys):
        code = main(["cohort", "--workers", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "max_workers" in err

    def test_nan_duration_errors_cleanly(self, capsys):
        # NaN slips past the CLI's own range comparisons (all False) but
        # fails the dataset's validation; that DataError must surface as
        # a clean error too.
        code = main(["cohort", "--duration-min", "nan", "--duration-max", "nan"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_data_error_from_run_errors_cleanly(self, capsys):
        # Passes CLI validation, but the records are far too short to
        # host patient 8's ~50 s seizures: the DataError raised inside
        # the run must surface as a clean error, not a traceback.
        code = main(
            [
                "cohort",
                "--patients", "8",
                "--duration-min", "0.5",
                "--duration-max", "1",
                "--executor", "serial",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "too short" in err


class TestCohortScaleResolution:
    """The paper-scale env knobs, resolved without running anything."""

    def parse(self, *argv):
        return build_parser().parse_args(["cohort", *argv])

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv(ENV_SAMPLES_PER_SEIZURE, raising=False)
        monkeypatch.delenv(ENV_PAPER_DURATIONS, raising=False)

    def test_laptop_defaults(self):
        samples, durations = resolve_cohort_scale(self.parse())
        assert samples == 1
        assert durations == (480.0, 900.0)

    def test_env_samples_knob(self, monkeypatch):
        monkeypatch.setenv(ENV_SAMPLES_PER_SEIZURE, "100")
        samples, _ = resolve_cohort_scale(self.parse())
        assert samples == 100

    def test_env_paper_durations_knob(self, monkeypatch):
        monkeypatch.setenv(ENV_PAPER_DURATIONS, "1")
        _, durations = resolve_cohort_scale(self.parse())
        assert durations == PAPER_DURATION_RANGE_S

    def test_paper_scale_flag_is_the_one_liner(self):
        # The 45 x 100-sample Sec. VI-A run: one flag, no env needed.
        samples, durations = resolve_cohort_scale(self.parse("--paper-scale"))
        assert samples == 100
        assert durations == PAPER_DURATION_RANGE_S

    def test_explicit_flags_beat_env_and_paper_scale(self, monkeypatch):
        monkeypatch.setenv(ENV_SAMPLES_PER_SEIZURE, "100")
        monkeypatch.setenv(ENV_PAPER_DURATIONS, "1")
        samples, durations = resolve_cohort_scale(
            self.parse(
                "--paper-scale", "--samples", "2",
                "--duration-min", "5", "--duration-max", "6",
            )
        )
        assert samples == 2
        assert durations == (300.0, 360.0)

    def test_partial_duration_flags_fill_from_cli_default(self):
        _, durations = resolve_cohort_scale(self.parse("--duration-min", "5"))
        assert durations == (300.0, 900.0)

    def test_partial_duration_flag_keeps_paper_bound(self):
        # One explicit bound must not drag the other back to the laptop
        # default when running at paper scale.
        _, durations = resolve_cohort_scale(
            self.parse("--paper-scale", "--duration-max", "45")
        )
        assert durations == (1800.0, 2700.0)

    def test_non_numeric_env_samples_names_the_knob(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_SAMPLES_PER_SEIZURE, "ten")
        code = main(["cohort", "--patients", "8", "--executor", "serial"])
        assert code == 2
        assert ENV_SAMPLES_PER_SEIZURE in capsys.readouterr().err

    def test_bad_env_samples_errors_cleanly(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_SAMPLES_PER_SEIZURE, "0")
        code = main(["cohort", "--patients", "8", "--executor", "serial"])
        assert code == 2
        assert ENV_SAMPLES_PER_SEIZURE in capsys.readouterr().err

    def test_env_samples_drive_a_run(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_SAMPLES_PER_SEIZURE, "2")
        code = main(
            [
                "cohort",
                "--patients", "8",
                "--duration-min", "5",
                "--duration-max", "6",
                "--executor", "serial",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cohort: 8 records" in out  # 4 seizures x 2 samples



class TestCohortResumability:
    def test_store_populated_and_reused(self, tmp_path, capsys):
        store = tmp_path / "features"
        argv = [
            "cohort",
            "--patients", "8",
            "--duration-min", "5",
            "--duration-max", "6",
            "--executor", "serial",
            "--store", str(store),
        ]
        assert main(argv) == 0
        entries = list(store.glob("*.feat"))
        assert len(entries) == 4  # one persisted matrix per record
        contents = {p: p.read_bytes() for p in entries}
        assert main(argv) == 0  # resumed run loads, never rewrites
        # Content untouched byte for byte (mtimes *do* change: loads
        # touch entries so LRU eviction tracks use).
        assert {p: p.read_bytes() for p in entries} == contents

    def _cohort_args(self, *extra):
        return [
            "cohort",
            "--patients", "8",
            "--duration-min", "5",
            "--duration-max", "6",
            "--executor", "serial",
            *extra,
        ]

    def test_checkpoint_roundtrip_is_byte_identical(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        first = tmp_path / "first.json"
        resumed = tmp_path / "resumed.json"
        code = main(
            self._cohort_args("--checkpoint", str(ckpt), "--json", str(first))
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 record(s) restored" in out
        assert ckpt.exists()

        code = main(
            self._cohort_args(
                "--checkpoint", str(ckpt), "--resume", "--json", str(resumed)
            )
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 record(s) restored" in out
        assert "0 processed this run" in out
        assert first.read_bytes() == resumed.read_bytes()

        # A partial resume on a 2-worker pool: the summary names the
        # engine's kind and counts workers over the fresh records only
        # (one fresh record runs in-process, on one worker).
        lines = ckpt.read_text().splitlines(keepends=True)
        ckpt.write_text("".join(lines[:-1]))
        code = main(
            self._cohort_args(
                "--checkpoint", str(ckpt), "--resume", "--json", str(resumed),
                "--executor", "process", "--workers", "2",
            )
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 record(s) restored" in out
        assert "1 processed this run" in out
        assert "(process, 1 worker(s))" in out
        assert first.read_bytes() == resumed.read_bytes()

    def test_resume_scans_the_journal_once(self, tmp_path, capsys, monkeypatch):
        from repro.engine.checkpoint import CohortCheckpoint

        ckpt = tmp_path / "run.ckpt"
        assert main(self._cohort_args("--checkpoint", str(ckpt))) == 0
        capsys.readouterr()
        scanned = []
        scan = CohortCheckpoint._scan

        def counting_scan(self):
            scanned.append(self.path.name)
            return scan(self)

        monkeypatch.setattr(CohortCheckpoint, "_scan", counting_scan)
        code = main(self._cohort_args("--checkpoint", str(ckpt), "--resume"))
        assert code == 0
        assert "4 record(s) restored" in capsys.readouterr().out
        # The restored count comes from the engine's own load.
        assert scanned == ["run.ckpt"]

    def test_existing_checkpoint_without_resume_errors(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        assert main(self._cohort_args("--checkpoint", str(ckpt))) == 0
        capsys.readouterr()
        code = main(self._cohort_args("--checkpoint", str(ckpt)))
        err = capsys.readouterr().err
        assert code == 2
        assert "--resume" in err

    def test_resume_requires_checkpoint(self, capsys):
        code = main(self._cohort_args("--resume"))
        err = capsys.readouterr().err
        assert code == 2
        assert "--resume requires --checkpoint" in err

    def test_foreign_checkpoint_rejected(self, tmp_path, capsys):
        # A journal from a different work list must be rejected with a
        # clear error, not silently merged.
        ckpt = tmp_path / "run.ckpt"
        assert main(self._cohort_args("--checkpoint", str(ckpt))) == 0
        capsys.readouterr()
        code = main(
            [
                "cohort",
                "--patients", "1",
                "--duration-min", "5",
                "--duration-max", "6",
                "--executor", "serial",
                "--checkpoint", str(ckpt),
                "--resume",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "different run" in err

    def test_checkpoint_on_foreign_file_errors_cleanly(
        self, tmp_path, capsys
    ):
        # Resuming against a file that is not a checkpoint must refuse
        # (and not truncate the file), even with --resume.
        foreign = tmp_path / "notes.jsonl"
        foreign.write_text('{"line": 1}\n')
        code = main(
            self._cohort_args("--checkpoint", str(foreign), "--resume")
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "not a cohort checkpoint" in err
        assert foreign.read_text() == '{"line": 1}\n'

    def test_tolerated_all_failure_still_errors(self, capsys):
        # --max-failures -1 tolerates poisoned records, but an entirely
        # failed run must not masquerade as success (the engine raises).
        code = main(
            [
                "cohort",
                "--patients", "8",
                "--duration-min", "0.5",
                "--duration-max", "1",
                "--executor", "serial",
                "--max-failures", "-1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "every record failed" in err
        assert "too short" in err


class TestStoreCommand:
    """The ``repro store`` lifecycle CLI (stats / verify / gc / clear)."""

    @pytest.fixture()
    def populated(self, tmp_path):
        store = tmp_path / "features"
        argv = [
            "cohort",
            "--patients", "8",
            "--duration-min", "5",
            "--duration-max", "6",
            "--executor", "serial",
            "--store", str(store),
        ]
        assert main(argv) == 0
        return store

    def test_stats(self, populated, capsys):
        capsys.readouterr()
        assert main(["store", "stats", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "entries: 4" in out
        assert "bytes:" in out

    def test_verify_clean(self, populated, capsys):
        capsys.readouterr()
        assert main(["store", "verify", str(populated)]) == 0
        assert "4 ok, 0 corrupt, 0 stale" in capsys.readouterr().out

    def test_verify_flags_corruption(self, populated, capsys):
        entry = sorted(populated.glob("*.feat"))[0]
        entry.write_bytes(entry.read_bytes()[:30])
        capsys.readouterr()
        assert main(["store", "verify", str(populated)]) == 1
        captured = capsys.readouterr()
        assert "1 corrupt" in captured.out
        assert "repro store gc" in captured.err

    def test_gc_removes_broken_entries(self, populated, capsys):
        entry = sorted(populated.glob("*.feat"))[0]
        entry.write_bytes(b"junk")
        capsys.readouterr()
        assert main(["store", "gc", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "removed 1 corrupt" in out
        assert len(list(populated.glob("*.feat"))) == 3
        assert main(["store", "verify", str(populated)]) == 0

    def test_gc_size_bound(self, populated, capsys):
        size = max(p.stat().st_size for p in populated.glob("*.feat"))
        capsys.readouterr()
        assert main(["store", "gc", str(populated), "--max-bytes", str(size)]) == 0
        total = sum(p.stat().st_size for p in populated.glob("*.feat"))
        assert total <= size

    def test_clear(self, populated, capsys):
        capsys.readouterr()
        assert main(["store", "clear", str(populated)]) == 0
        assert "removed 4 entries" in capsys.readouterr().out
        assert list(populated.glob("*.feat")) == []

    def test_missing_directory_errors(self, tmp_path, capsys):
        code = main(["store", "stats", str(tmp_path / "nope")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no feature store directory" in err

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])


class TestLifetime:
    def test_full_system(self, capsys):
        code = main(["lifetime", "--seizures-per-day", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2.59 days" in out
        assert "EEG Labeling" in out

    def test_labeling_only(self, capsys):
        code = main(
            ["lifetime", "--seizures-per-day", "1.0", "--labeling-only"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "17.9" in out  # ~430 h = 17.93 days


class TestCohortStreaming:
    """The ``--chunk-s`` knob: any positive value, byte-identical report."""

    def _run(self, tmp_path, name, *extra):
        out = tmp_path / name
        argv = [
            "cohort",
            "--patients", "8",
            "--duration-min", "5",
            "--duration-max", "6",
            "--executor", "serial",
            "--json", str(out),
            *extra,
        ]
        assert main(argv) == 0
        return out.read_bytes()

    def test_chunk_s_reports_byte_identical(self, tmp_path, capsys):
        default = self._run(tmp_path, "default.json")
        small = self._run(tmp_path, "small.json", "--chunk-s", "2.5")
        large = self._run(tmp_path, "large.json", "--chunk-s", "600")
        assert default == small == large

    def test_non_positive_chunk_s_errors(self, capsys):
        code = main(["cohort", "--chunk-s", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--chunk-s" in err


class TestCohortCompact:
    def _checkpointed_run(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        argv = [
            "cohort",
            "--patients", "8",
            "--duration-min", "5",
            "--duration-max", "6",
            "--executor", "serial",
            "--checkpoint", str(ckpt),
        ]
        assert main(argv) == 0
        return argv, ckpt

    def test_compact_rewrites_and_journal_still_resumes(
        self, tmp_path, capsys
    ):
        argv, ckpt = self._checkpointed_run(tmp_path)
        with open(ckpt, "a") as fh:
            fh.write('{"partial": tr')  # the line a kill leaves behind
        capsys.readouterr()
        code = main(argv + ["--compact"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kept 4 outcome(s)" in out
        assert "dropped 1 dead line(s)" in out
        assert len(ckpt.read_text().splitlines()) == 5
        # The compacted journal still resumes: 4 restored, 0 processed.
        code = main(argv + ["--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 record(s) restored" in out
        assert "0 processed this run" in out

    def test_resume_reports_auto_compaction(self, tmp_path, capsys):
        from repro.engine import DEFAULT_COMPACT_DEAD_LINES

        argv, ckpt = self._checkpointed_run(tmp_path)
        duplicate = ckpt.read_text().splitlines(keepends=True)[1]
        with open(ckpt, "a") as fh:
            fh.write(duplicate * DEFAULT_COMPACT_DEAD_LINES)
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert (
            f"journal auto-compacted (dead-line weight reached "
            f"{DEFAULT_COMPACT_DEAD_LINES})"
        ) in out
        assert len(ckpt.read_text().splitlines()) == 5

    def test_compact_requires_checkpoint(self, capsys):
        code = main(["cohort", "--compact"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--compact requires --checkpoint" in err

    def test_compact_missing_journal_errors_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "cohort",
                "--checkpoint", str(tmp_path / "absent.ckpt"),
                "--compact",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "no valid checkpoint" in err


class TestShardCLI:
    """The ``repro shard`` group: plan / run / collect / merge /
    orchestrate over local subprocess shards."""

    SCALE = ["--patients", "8", "--duration-min", "5", "--duration-max", "6"]

    def plan(self, tmp_path, capsys, shards="3"):
        plan_dir = tmp_path / "plan"
        code = main(
            ["shard", "plan", "--out-dir", str(plan_dir),
             "--shards", shards, *self.SCALE]
        )
        out = capsys.readouterr().out
        assert code == 0
        return plan_dir, out

    def test_plan_writes_manifests(self, tmp_path, capsys):
        plan_dir, out = self.plan(tmp_path, capsys)
        assert "planned 3 shard(s) over 4 task(s)" in out
        assert "work digest" in out
        assert sorted(p.name for p in plan_dir.glob("shard-*.json")) == [
            "shard-000.json", "shard-001.json", "shard-002.json",
        ]

    def test_plan_refuses_existing_plan(self, tmp_path, capsys):
        plan_dir, _ = self.plan(tmp_path, capsys)
        code = main(
            ["shard", "plan", "--out-dir", str(plan_dir),
             "--shards", "2", *self.SCALE]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "already contains a shard plan" in err

    def test_plan_validates_flags(self, tmp_path, capsys):
        code = main(
            ["shard", "plan", "--out-dir", str(tmp_path / "p"),
             "--shards", "0", *self.SCALE]
        )
        assert code == 2
        assert "n_shards" in capsys.readouterr().err
        code = main(
            ["shard", "plan", "--out-dir", str(tmp_path / "p"),
             "--shards", "2", "--patients", "banana"]
        )
        assert code == 2


    def test_plan_unwritable_out_dir_errors_cleanly(self, tmp_path, capsys):
        # --out-dir pointing at a *file*: clean error, never a traceback.
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory\n")
        code = main(
            ["shard", "plan", "--out-dir", str(blocker),
             "--shards", "2", *self.SCALE]
        )
        assert code == 2
        assert "cannot write shard manifest" in capsys.readouterr().err

    def test_plan_unknown_patient_errors_cleanly(self, tmp_path, capsys):
        code = main(
            ["shard", "plan", "--out-dir", str(tmp_path / "p"),
             "--shards", "2", "--patients", "99"]
        )
        assert code == 2
        assert "unknown patient" in capsys.readouterr().err


    def test_run_collect_merge_report_parity(self, tmp_path, capsys):
        """The full CLI loop, shard by shard, against the single-node
        cohort report — byte-identical."""
        single = tmp_path / "single.json"
        code = main(
            ["cohort", *self.SCALE, "--executor", "serial",
             "--json", str(single)]
        )
        assert code == 0
        plan_dir, _ = self.plan(tmp_path, capsys)

        # Incomplete plan: collect exits 1, merge refuses.
        assert main(["shard", "collect", str(plan_dir)]) == 1
        out = capsys.readouterr().out
        assert "0/4" in out and "not started" in out
        merged = tmp_path / "merged.ckpt"
        assert main(
            ["shard", "merge", str(plan_dir), "--out", str(merged)]
        ) == 2
        assert "incomplete" in capsys.readouterr().err

        for i in range(3):
            code = main(
                ["shard", "run", str(plan_dir / f"shard-00{i}.json"),
                 "--executor", "serial"]
            )
            assert code == 0
        out = capsys.readouterr().out
        assert "record(s) complete" in out

        assert main(["shard", "collect", str(plan_dir)]) == 0
        assert "(complete)" in capsys.readouterr().out

        report_json = tmp_path / "sharded.json"
        code = main(
            ["shard", "merge", str(plan_dir), "--out", str(merged),
             "--report", str(report_json)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "merged 3 shard journal(s)" in out
        assert "cohort: 4 records" in out
        assert report_json.read_bytes() == single.read_bytes()

    def run_plan(self, tmp_path, capsys):
        plan_dir, _ = self.plan(tmp_path, capsys)
        for i in range(3):
            assert main(
                ["shard", "run", str(plan_dir / f"shard-00{i}.json"),
                 "--executor", "serial"]
            ) == 0
        capsys.readouterr()
        return plan_dir

    def test_merge_then_resume_full_run(self, tmp_path, capsys):
        plan_dir = self.run_plan(tmp_path, capsys)
        merged = tmp_path / "merged.ckpt"
        assert main(["shard", "merge", str(plan_dir), "--out", str(merged)]) == 0
        out = capsys.readouterr().out
        assert (
            f"merged 3 shard journal(s) into {merged}: 4 outcome(s), "
            f"0 dead line(s) dropped"
        ) in out
        # The merged journal resumes the full cohort run: all restored.
        code = main(
            ["cohort", *self.SCALE, "--executor", "serial",
             "--checkpoint", str(merged), "--resume"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 record(s) restored" in out
        assert "0 processed this run" in out

    def test_merge_existing_destination_refused(self, tmp_path, capsys):
        plan_dir = self.run_plan(tmp_path, capsys)
        dest = tmp_path / "exists.ckpt"
        dest.write_bytes(b"precious\n")
        code = main(["shard", "merge", str(plan_dir), "--out", str(dest)])
        err = capsys.readouterr().err
        assert code == 2
        assert "already exists" in err
        assert dest.read_bytes() == b"precious\n"

    def test_rerun_resumes_completed_shard(self, tmp_path, capsys):
        plan_dir, _ = self.plan(tmp_path, capsys)
        manifest = plan_dir / "shard-001.json"
        assert main(["shard", "run", str(manifest),
                     "--executor", "serial"]) == 0
        capsys.readouterr()
        assert main(["shard", "run", str(manifest),
                     "--executor", "serial"]) == 0
        out = capsys.readouterr().out
        assert "(1 restored, 0 processed" in out

    def test_rerun_scans_the_shard_journal_once(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.engine.checkpoint import CohortCheckpoint

        plan_dir, _ = self.plan(tmp_path, capsys)
        manifest = plan_dir / "shard-001.json"
        assert main(["shard", "run", str(manifest),
                     "--executor", "serial"]) == 0
        capsys.readouterr()
        scanned = []
        scan = CohortCheckpoint._scan

        def counting_scan(self):
            scanned.append(self.path.name)
            return scan(self)

        monkeypatch.setattr(CohortCheckpoint, "_scan", counting_scan)
        assert main(["shard", "run", str(manifest),
                     "--executor", "serial"]) == 0
        assert "(1 restored, 0 processed" in capsys.readouterr().out
        assert scanned == ["shard-001.ckpt"]

    def test_run_rejects_bad_chunk_and_missing_manifest(
        self, tmp_path, capsys
    ):
        plan_dir, _ = self.plan(tmp_path, capsys)
        code = main(
            ["shard", "run", str(plan_dir / "shard-000.json"),
             "--chunk-s", "0"]
        )
        assert code == 2
        assert "--chunk-s" in capsys.readouterr().err
        code = main(["shard", "run", str(plan_dir / "absent.json")])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_collect_reports_foreign_journal(self, tmp_path, capsys):
        from repro.engine import CohortCheckpoint

        plan_dir, _ = self.plan(tmp_path, capsys)
        foreign = CohortCheckpoint(plan_dir / "shard-000.ckpt")
        foreign.begin("f" * 32, "f" * 32)
        foreign.close()
        code = main(["shard", "collect", str(plan_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "shard 0" in err

    def test_orchestrate_end_to_end_matches_cohort(self, tmp_path, capsys):
        single = tmp_path / "single.json"
        assert main(
            ["cohort", *self.SCALE, "--executor", "serial",
             "--json", str(single)]
        ) == 0
        capsys.readouterr()
        sharded = tmp_path / "sharded.json"
        plan_dir = tmp_path / "plan"
        code = main(
            ["shard", "orchestrate", "--out-dir", str(plan_dir),
             "--shards", "3", *self.SCALE,
             "--executor", "serial", "--jobs", "2",
             "--json", str(sharded)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "orchestrated 3 shard(s)" in out
        assert "cohort: 4 records" in out
        assert sharded.read_bytes() == single.read_bytes()
        # A second orchestrate reuses the plan and launches nothing.
        code = main(
            ["shard", "orchestrate", "--out-dir", str(plan_dir),
             "--shards", "3", *self.SCALE, "--executor", "serial"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "launched 0" in out

    def test_orchestrate_refuses_mismatched_plan(self, tmp_path, capsys):
        plan_dir, _ = self.plan(tmp_path, capsys)
        code = main(
            ["shard", "orchestrate", "--out-dir", str(plan_dir),
             "--shards", "3", "--patients", "9",
             "--duration-min", "5", "--duration-max", "6",
             "--executor", "serial"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "different" in err

    def test_orchestrate_validates_jobs(self, tmp_path, capsys):
        code = main(
            ["shard", "orchestrate", "--out-dir", str(tmp_path / "p"),
             "--shards", "2", *self.SCALE, "--jobs", "0"]
        )
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_shard_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard"])


class TestReplay:
    SCALE = ["--patient", "1", "--duration-min", "5", "--duration-max", "6"]

    def test_human_rollup(self, capsys):
        code = main(["replay", *self.SCALE])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed" in out and "unpaced" in out
        assert "decisions:" in out
        assert "p50" in out and "p99" in out

    def test_json_is_byte_stable(self, capsys):
        code = main(["replay", *self.SCALE, "--json"])
        first = capsys.readouterr().out
        assert code == 0
        code = main(["replay", *self.SCALE, "--json"])
        second = capsys.readouterr().out
        assert code == 0
        assert first == second
        body = json.loads(first)
        assert body["replay"]["windows"] > 0
        assert body["telemetry"]["chunks"]["ingested"] == body["replay"]["chunks"]
        # Wall-clock numbers are excluded from the stable output.
        assert "wall_s" not in body["replay"]
        assert "latency" not in body["telemetry"]

    def test_invalid_duration_range_errors(self, capsys):
        code = main(["replay", "--duration-min", "10", "--duration-max", "5"])
        assert code == 2
        assert "duration" in capsys.readouterr().err

    def test_invalid_backpressure_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--backpressure", "drop"])

    def test_unknown_patient_errors(self, capsys):
        code = main(["replay", "--patient", "99", *self.SCALE[2:]])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestServe:
    def test_max_seconds_smoke_json(self, capsys):
        code = main(["serve", "--max-seconds", "0.2", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "listening on 127.0.0.1:" in out
        snapshot = json.loads(out.splitlines()[-1])
        assert snapshot["sessions"] == {"opened": 0, "closed": 0, "active": 0}
        assert "latency" not in snapshot

    def test_max_seconds_smoke_human(self, capsys):
        code = main(["serve", "--max-seconds", "0.2", "--queue-depth", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "queue depth 4" in out
        assert "served 0 session(s)" in out

    def test_invalid_max_seconds_errors(self, capsys):
        code = main(["serve", "--max-seconds", "-1"])
        assert code == 2
        assert "--max-seconds" in capsys.readouterr().err

    def test_invalid_workers_errors(self, capsys):
        code = main(["serve", "--max-seconds", "0.1", "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_workers_smoke_json(self, capsys):
        code = main(
            ["serve", "--max-seconds", "0.3", "--workers", "2", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 worker shards" in out
        snapshot = json.loads(out.splitlines()[-1])
        assert snapshot["workers"] == 2
        assert len(snapshot["shards"]) == 2
        # The stable JSON strips latency fleet-wide and per shard.
        assert "latency" not in snapshot
        assert all("latency" not in s for s in snapshot["shards"])


class TestErrorExit:
    """Bad input ends in one ``error:`` line and exit code 2, never a
    traceback — checked on the real process, as a user would run it."""

    SCALE = ["--patients", "8", "--duration-min", "5", "--duration-max", "6"]

    @staticmethod
    def _run(argv):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            env=env,
            text=True,
            timeout=300,
        )

    @pytest.mark.parametrize(
        "case",
        [
            "simulate-unknown-patient",
            "simulate-inf-duration",
            "cohort-inf-duration",
            "label-missing-record",
            "lifetime-negative-rate",
            "serve-nan-max-seconds",
            "replay-nan-chunk",
            "shard-run-nan-chunk",
            "orchestrate-nan-chunk",
            "orchestrate-zero-jobs",
            "orchestrate-zero-shard-workers",
        ],
    )
    def test_bad_input_is_one_error_line(self, case, tmp_path):
        plan_dir = tmp_path / "plan"
        orchestrate = [
            "shard", "orchestrate", "--out-dir", str(plan_dir),
            "--shards", "2", *self.SCALE, "--executor", "serial",
        ]
        if case == "shard-run-nan-chunk":
            # Four tasks over five shards: the last manifest is empty,
            # and an empty shard must refuse a bad knob as well.
            assert main(
                ["shard", "plan", "--out-dir", str(plan_dir),
                 "--shards", "5", *self.SCALE]
            ) == 0
        argv = {
            "simulate-unknown-patient": ["simulate", "--patient", "99"],
            "simulate-inf-duration": ["simulate", "--duration-max", "inf"],
            "cohort-inf-duration": [
                "cohort", "--patients", "8", "--duration-max", "inf",
            ],
            "label-missing-record": [
                "label", str(tmp_path / "absent"), "--avg-duration", "60",
            ],
            "lifetime-negative-rate": ["lifetime", "--seizures-per-day", "-1"],
            "serve-nan-max-seconds": ["serve", "--max-seconds", "nan"],
            "replay-nan-chunk": [
                "replay", "--duration-min", "5", "--duration-max", "6",
                "--chunk-s", "nan",
            ],
            "shard-run-nan-chunk": [
                "shard", "run", str(plan_dir / "shard-004.json"),
                "--chunk-s", "nan",
            ],
            "orchestrate-nan-chunk": [*orchestrate, "--chunk-s", "nan"],
            "orchestrate-zero-jobs": [*orchestrate, "--jobs", "0"],
            "orchestrate-zero-shard-workers": [
                *orchestrate, "--shard-workers", "0",
            ],
        }[case]
        proc = self._run(argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        if case.endswith("inf-duration"):
            # Refused by the dataset before any record is drawn, not
            # reported as every record failing.
            assert "invalid duration range" in proc.stderr, proc.stderr
        if case.startswith("orchestrate"):
            # Refused before the plan was written: nothing to clean up.
            assert not list(plan_dir.glob("shard-*.json"))


class TestServeSignals:
    """`repro serve` drains before exiting on SIGTERM — subprocess-level,
    because signal delivery and exit codes are the contract."""

    @staticmethod
    def _serve_and_sigterm(extra_args, feed_session=False):
        import os
        import signal as signal_module
        import socket as socket_module
        import struct
        import subprocess
        import sys

        import numpy as np

        from repro.service.framing import chunk_message, encode_frame

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--json", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            port = int(banner.split("listening on ")[1].split()[0].split(":")[1])
            if feed_session:
                # Admit chunks, then SIGTERM while they may still be
                # queued: the drain must decide them before exit.
                length = struct.Struct(">I")
                with socket_module.create_connection(("127.0.0.1", port)) as sock:
                    def send(message):
                        sock.sendall(encode_frame(message))
                        head = b""
                        while len(head) < 4:
                            head += sock.recv(4 - len(head))
                        (n,) = length.unpack(head)
                        body = b""
                        while len(body) < n:
                            body += sock.recv(n - len(body))
                        return json.loads(body)

                    assert send({"op": "open", "session": "p"})["ok"]
                    data = np.zeros((2, 1024), dtype=np.float64)
                    for seq in range(3):
                        reply = send(chunk_message("p", seq, data))
                        assert reply["ok"] and reply["accepted"]
            proc.send_signal(signal_module.SIGTERM)
            out, err = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out, err

    def test_sigterm_drains_single_process(self):
        code, out, err = self._serve_and_sigterm([], feed_session=True)
        assert code == 0
        assert "received SIGTERM, draining" in err
        snapshot = json.loads(out.splitlines()[-1])
        # Every admitted chunk was decided before exit.
        assert snapshot["chunks"]["ingested"] == 3
        assert snapshot["chunks"]["processed"] == 3

    def test_sigterm_drains_worker_fleet(self):
        code, out, err = self._serve_and_sigterm(
            ["--workers", "2"], feed_session=True
        )
        assert code == 0
        assert "received SIGTERM, draining" in err
        snapshot = json.loads(out.splitlines()[-1])
        assert snapshot["workers"] == 2
        assert snapshot["chunks"]["ingested"] == 3
        assert snapshot["chunks"]["processed"] == 3
