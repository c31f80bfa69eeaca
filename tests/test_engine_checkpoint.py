"""Checkpoint suite: record-level resumable runs, byte-identical merges.

Pins the PR 3 durability contract:

* a run interrupted after N records and resumed from its journal
  produces a ``CohortReport`` byte-identical to an uninterrupted run,
  on every executor backend (kill-and-resume parity);
* resume *skips* completed records (asserted via an execution counter);
* any journal damage — truncated trailing line, flipped byte, garbage
  or stale-version header — degrades to recompute, never a crash and
  never a wrong report;
* a journal written by a different work list or engine configuration is
  rejected with :class:`CheckpointError` instead of silently merged;
* failures are never journaled, so resumed runs retry them.
"""

import json

import pytest

from repro.data import SyntheticEEGDataset
from repro.engine import (
    DEFAULT_COMPACT_DEAD_LINES,
    CohortCheckpoint,
    CohortEngine,
    RecordTask,
    cohort_tasks,
    config_digest,
    merge_shards,
    plan_shards,
    run_shard,
    work_list_digest,
    write_plan,
)
from repro.engine import executor as executor_module
from repro.engine.checkpoint import _header_line
from repro.engine.sharding import journal_path
from repro.exceptions import CheckpointError, EngineError, ShardError

POISONED = RecordTask(1, 999, 0)


@pytest.fixture(scope="module")
def tasks(dataset):
    """Patient 8's four records: a small but multi-record work list."""
    return cohort_tasks(dataset, patient_ids=[8])


@pytest.fixture(scope="module")
def baseline(dataset, tasks):
    """Uninterrupted serial run: the byte-level reference."""
    return CohortEngine(dataset, executor="serial").run(tasks).to_json()


def reseed(dataset):
    """The same cohort under another root seed: every record (and so
    every outcome) changes, the work list does not."""
    return SyntheticEEGDataset(
        seed=dataset.seed + 1, duration_range_s=dataset.duration_range_s
    )


def interrupt_after(monkeypatch, n):
    """Make the in-process pipeline die (KeyboardInterrupt — *not* an
    Exception, so failure capture does not swallow it) after ``n``
    completed records: a deterministic in-process stand-in for SIGKILL.
    """
    calls = {"n": 0}
    original = executor_module._WorkerContext.process

    def dying(self, task):
        if calls["n"] >= n:
            raise KeyboardInterrupt
        calls["n"] += 1
        return original(self, task)

    monkeypatch.setattr(executor_module._WorkerContext, "process", dying)
    return calls


class TestJournalFormat:
    def test_header_plus_one_line_per_outcome(self, dataset, tasks, tmp_path):
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(tasks)
        header = json.loads(lines[0])
        assert header["kind"] == "repro-cohort-checkpoint"
        assert header["version"] == CohortCheckpoint.VERSION
        assert header["work"] == work_list_digest(tasks)
        for line in lines[1:]:
            payload = json.loads(line)
            assert payload["outcome"]["error"] is None
            assert payload["checksum"]

    def test_outcome_count(self, dataset, tasks, tmp_path):
        path = tmp_path / "run.ckpt"
        journal = CohortCheckpoint(path)
        assert journal.outcome_count() == 0
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        assert journal.outcome_count() == len(tasks)

    def test_digests_are_stable_and_sensitive(self, dataset, tasks):
        engine = CohortEngine(dataset, executor="serial")
        assert work_list_digest(tasks) == work_list_digest(tuple(tasks))
        assert work_list_digest(tasks) != work_list_digest(tasks[:2])
        other = CohortEngine(
            dataset, executor="process", max_workers=2, chunk_s=7.0
        )
        # Scheduling knobs do not change the config digest...
        assert config_digest(engine.config) == config_digest(other.config)
        # ...an outcome-changing config over the same work list does.
        reseeded = CohortEngine(reseed(dataset), executor="serial")
        assert config_digest(engine.config) != config_digest(reseeded.config)

    def test_default_config_digest_is_pinned(self):
        # Journals and shard manifests on disk carry this digest; a
        # change here would orphan every one of them.
        from repro.data import SyntheticEEGDataset

        engine = CohortEngine(SyntheticEEGDataset(), executor="serial")
        assert config_digest(engine.config) == "c727ef5bb16e42e703cee622e4b8c8fb"


class TestResumeSkipsCompleted:
    def test_full_journal_runs_nothing(
        self, dataset, tasks, baseline, tmp_path, counter
    ):
        path = tmp_path / "run.ckpt"
        first = CohortEngine(dataset, executor="serial")
        first.run(tasks, checkpoint=path)
        assert counter["n"] == len(tasks)

        resumed = CohortEngine(dataset, executor="serial")
        report = resumed.run(tasks, checkpoint=path)
        assert counter["n"] == len(tasks)  # nothing re-processed
        assert report.to_json() == baseline

    @pytest.mark.parametrize("resume_backend", ["serial", "process"])
    def test_kill_and_resume_parity(
        self, dataset, tasks, baseline, tmp_path, monkeypatch, resume_backend
    ):
        """The acceptance criterion: interrupt after 2 of 4 records, then
        resume on every backend — byte-identical to uninterrupted."""
        path = tmp_path / "run.ckpt"
        interrupt_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        assert CohortCheckpoint(path).outcome_count() == 2

        monkeypatch.undo()  # the "new process" after the kill
        engine = CohortEngine(
            dataset, executor=resume_backend, max_workers=2
        )
        report = engine.run(tasks, checkpoint=path)
        assert report.to_json() == baseline

    def test_resume_executes_only_the_remainder(
        self, dataset, tasks, baseline, tmp_path, counter
    ):
        path = tmp_path / "run.ckpt"
        # Scoped separately so undoing the interruption keeps the
        # counter fixture's own patch alive.
        with pytest.MonkeyPatch.context() as interruption:
            interrupt_after(interruption, 3)
            with pytest.raises(KeyboardInterrupt):
                CohortEngine(dataset, executor="serial").run(
                    tasks, checkpoint=path
                )

        counter["n"] = 0
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=path
        )
        assert counter["n"] == len(tasks) - 3
        assert report.to_json() == baseline

    def test_checkpoint_object_can_be_passed_directly(
        self, dataset, tasks, baseline, tmp_path
    ):
        journal = CohortCheckpoint(tmp_path / "run.ckpt")
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=journal
        )
        assert report.to_json() == baseline
        assert journal.outcome_count() == len(tasks)


class TestJournalCorruption:
    """Load-or-recompute: damage costs time, never a crash or a wrong
    report."""

    def test_truncated_trailing_line_recomputes_that_task(
        self, dataset, tasks, baseline, tmp_path, counter
    ):
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        blob = path.read_text()
        # Simulate a crash mid-append: the last line is half-written.
        path.write_text(blob[: len(blob) - len(blob.splitlines()[-1]) // 2 - 1])
        counter["n"] = 0
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=path
        )
        assert counter["n"] == 1  # only the damaged task re-ran
        assert report.to_json() == baseline

    def test_flipped_byte_drops_only_that_line(
        self, dataset, tasks, baseline, tmp_path, counter
    ):
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        lines = path.read_text().splitlines()
        # Corrupt a digit inside the second outcome's payload.
        lines[2] = lines[2].replace('"n_windows":', '"n_windowz":', 1)
        path.write_text("\n".join(lines) + "\n")
        counter["n"] = 0
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=path
        )
        assert counter["n"] == 1
        assert report.to_json() == baseline

    def test_damaged_header_resets_the_journal(
        self, dataset, tasks, baseline, tmp_path, counter
    ):
        # Bit-flip inside our own header (checksum now fails, but the
        # kind tag survives): the journal is recognizably ours and
        # recognizably broken, so it resets.
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"work":', '"wonk":', 1)
        path.write_text("\n".join(lines) + "\n")
        assert CohortCheckpoint(path).outcome_count() == 0  # not restorable
        counter["n"] = 0
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=path
        )
        assert counter["n"] == len(tasks)  # everything re-ran
        assert report.to_json() == baseline
        # The reset journal is healthy again: a further resume skips all.
        counter["n"] = 0
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        assert counter["n"] == 0

    def test_stale_version_resets_the_journal(
        self, dataset, tasks, baseline, tmp_path, monkeypatch, counter
    ):
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        monkeypatch.setattr(
            CohortCheckpoint, "VERSION", CohortCheckpoint.VERSION + 1
        )
        counter["n"] = 0
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=path
        )
        assert counter["n"] == len(tasks)
        assert report.to_json() == baseline

    def test_empty_file_recomputes_everything(
        self, dataset, tasks, baseline, tmp_path
    ):
        path = tmp_path / "run.ckpt"
        path.write_text("")
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=path
        )
        assert report.to_json() == baseline

    def test_unterminated_tail_does_not_corrupt_the_next_append(
        self, dataset, tasks, baseline, tmp_path
    ):
        # A kill mid-write leaves a partial line *without* a newline;
        # the resume must give it its own line before appending.
        path = tmp_path / "run.ckpt"
        interrupted = CohortCheckpoint(path)
        done = interrupted.begin(
            work_list_digest(tasks),
            config_digest(CohortEngine(dataset, executor="serial").config),
        )
        assert done == {}
        interrupted.close()
        with open(path, "a") as fh:
            fh.write('{"outcome": {"patient_id": 8')  # no newline
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=path
        )
        assert report.to_json() == baseline
        # And the journal is fully loadable afterwards.
        assert CohortCheckpoint(path).outcome_count() == len(tasks)

    def test_record_without_begin_raises(self, tmp_path):
        journal = CohortCheckpoint(tmp_path / "run.ckpt")
        with pytest.raises(CheckpointError, match="begin"):
            journal.record(None)

    def test_append_failure_costs_durability_not_the_run(
        self, dataset, tasks, baseline, tmp_path, monkeypatch
    ):
        # Losing the disk mid-run (here: every append fails) must not
        # abort a healthy cohort run — mirroring the feature store's
        # best-effort persistence.
        class BrokenHandle:
            def write(self, data):
                raise OSError(28, "No space left on device")

            def flush(self):  # pragma: no cover - write raises first
                pass

            def close(self):
                pass

        original_begin = CohortCheckpoint.begin

        def breaking_begin(self, work_digest, config_digest):
            done = original_begin(self, work_digest, config_digest)
            self._handle.close()
            self._handle = BrokenHandle()
            return done

        monkeypatch.setattr(CohortCheckpoint, "begin", breaking_begin)
        journal = CohortCheckpoint(tmp_path / "run.ckpt")
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=journal
        )
        assert report.to_json() == baseline
        assert journal.write_errors == len(tasks)


class TestForeignFilesAndUnopenablePaths:
    def test_foreign_file_is_refused_not_truncated(
        self, dataset, tasks, tmp_path
    ):
        # A path that holds someone else's data (here: a plausible
        # results JSONL) must be rejected — resetting it is data loss.
        path = tmp_path / "results.jsonl"
        foreign = '{"experiment": "sweep-7", "auc": 0.93}\nsecond line\n'
        path.write_text(foreign)
        with pytest.raises(CheckpointError, match="not a cohort checkpoint"):
            CohortEngine(dataset, executor="serial").run(
                tasks, checkpoint=path
            )
        assert path.read_text() == foreign  # untouched

    def test_feature_store_entry_is_refused(self, dataset, tasks, tmp_path):
        # A disk-store entry is JSON-headed too; the kind tag keeps the
        # two formats from ever being confused.
        path = tmp_path / "entry.feat"
        path.write_bytes(b'{"version": 1, "key": "abc"}\n\x00\x01')
        with pytest.raises(CheckpointError, match="not a cohort checkpoint"):
            CohortEngine(dataset, executor="serial").run(
                tasks, checkpoint=path
            )

    def test_binary_foreign_file_is_refused_not_truncated(
        self, dataset, tasks, tmp_path
    ):
        # A file whose bytes do not even decode (e.g. a PNG) must get
        # the same clean refusal as a foreign text file — not a
        # UnicodeDecodeError traceback, and never a truncation.
        path = tmp_path / "image.png"
        foreign = b"\x89PNG\r\n\x1a\n" + bytes(range(256)) * 8
        path.write_bytes(foreign)
        with pytest.raises(CheckpointError, match="not a cohort checkpoint"):
            CohortEngine(dataset, executor="serial").run(
                tasks, checkpoint=path
            )
        assert path.read_bytes() == foreign  # untouched

    def test_mostly_text_binary_tail_is_refused_not_truncated(
        self, dataset, tasks, tmp_path
    ):
        # The nasty case: the first line decodes (and is not ours) but
        # later bytes do not — the file must still survive untouched.
        path = tmp_path / "mixed.dat"
        foreign = b'{"experiment": "sweep-7"}\n' + b"\xff\xfe" * 64
        path.write_bytes(foreign)
        with pytest.raises(CheckpointError, match="not a cohort checkpoint"):
            CohortEngine(dataset, executor="serial").run(
                tasks, checkpoint=path
            )
        assert path.read_bytes() == foreign

    def test_binary_junk_line_in_our_journal_is_dropped(
        self, dataset, tasks, baseline, tmp_path
    ):
        # Undecodable bytes *inside our own journal* are line damage,
        # not a foreign file: that task re-runs, nothing crashes.
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        lines = path.read_bytes().splitlines()
        lines[2] = b"\xff\xfe garbage"
        path.write_bytes(b"\n".join(lines) + b"\n")
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=path
        )
        assert report.to_json() == baseline

    def test_unopenable_checkpoint_fails_before_any_work(
        self, dataset, tasks, tmp_path, counter
    ):
        # The checkpoint path is a directory: configuration error,
        # raised cleanly before a single record is processed.
        target = tmp_path / "ckptdir"
        target.mkdir()
        with pytest.raises(CheckpointError, match="cannot open"):
            CohortEngine(dataset, executor="serial").run(
                tasks, checkpoint=target
            )
        assert counter["n"] == 0


class TestForeignJournalRejection:
    def test_different_work_list_rejected(self, dataset, tasks, tmp_path):
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        with pytest.raises(CheckpointError, match="different run"):
            CohortEngine(dataset, executor="serial").run(
                tasks[:2], checkpoint=path
            )

    def test_different_config_rejected(self, dataset, tasks, tmp_path):
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        other = CohortEngine(reseed(dataset), executor="serial")
        with pytest.raises(CheckpointError, match="different run"):
            other.run(tasks, checkpoint=path)

    def test_rejection_leaves_the_journal_untouched(
        self, dataset, tasks, tmp_path
    ):
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        before = path.read_bytes()
        with pytest.raises(CheckpointError):
            CohortEngine(dataset, executor="serial").run(
                tasks[:1], checkpoint=path
            )
        assert path.read_bytes() == before


class TestFailuresAndCheckpoints:
    def test_failures_never_journaled_and_always_retried(
        self, dataset, tasks, tmp_path, counter
    ):
        poisoned = tasks + (POISONED,)
        path = tmp_path / "run.ckpt"
        first = CohortEngine(dataset, executor="serial").run(
            poisoned, checkpoint=path
        )
        assert first.n_failures == 1
        assert CohortCheckpoint(path).outcome_count() == len(tasks)

        counter["n"] = 0
        rerun = CohortEngine(dataset, executor="serial").run(
            poisoned, checkpoint=path
        )
        assert counter["n"] == 1  # only the poisoned record retried
        assert rerun.to_json() == first.to_json()

    def test_strict_abort_still_journals_the_successes(
        self, dataset, tasks, tmp_path
    ):
        # Poison last: fail-fast cancels *after* the good records
        # completed, and their outcomes must already be on disk.
        poisoned = tasks + (POISONED,)
        path = tmp_path / "run.ckpt"
        with pytest.raises(EngineError, match="aborted after"):
            CohortEngine(dataset, executor="serial").run(
                poisoned, checkpoint=path, max_failures=0
            )
        assert CohortCheckpoint(path).outcome_count() == len(tasks)


class TestCompaction:
    """``CohortCheckpoint.compact()``: rewrite a journal from its parsed
    outcomes, dropping dead weight, preserving the run identity."""

    def dirty_journal(self, dataset, tasks, tmp_path):
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        lines = path.read_text().splitlines(keepends=True)
        # Dead weight a long-lived journal accretes: a duplicate append
        # (two runs sharing the file), a corrupt line, and the partial
        # trailing line a kill leaves behind.
        with open(path, "a") as fh:
            fh.write(lines[1])
            fh.write('{"outcome": {"broken": true}}\n')
            fh.write(lines[2][: len(lines[2]) // 2])
        return path

    def test_compact_drops_dead_lines_preserves_digests(
        self, dataset, tasks, tmp_path
    ):
        path = self.dirty_journal(dataset, tasks, tmp_path)
        before_header = path.read_text().splitlines()[0]
        journal = CohortCheckpoint(path)
        result = journal.compact()
        assert result["kept"] == len(tasks)
        assert result["dropped"] == 3
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(tasks)
        assert lines[0] == before_header  # work/config digests verbatim
        assert result["bytes"] == len(path.read_bytes())

    def test_compacted_journal_resumes_identically(
        self, dataset, tasks, tmp_path, baseline, counter
    ):
        path = self.dirty_journal(dataset, tasks, tmp_path)
        CohortCheckpoint(path).compact()
        counter["n"] = 0
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=path
        )
        assert counter["n"] == 0  # everything restored, nothing re-run
        assert report.to_json() == baseline

    def test_compact_is_idempotent(self, dataset, tasks, tmp_path):
        path = self.dirty_journal(dataset, tasks, tmp_path)
        CohortCheckpoint(path).compact()
        before = path.read_bytes()
        result = CohortCheckpoint(path).compact()
        assert result["dropped"] == 0
        assert path.read_bytes() == before

    def test_compact_open_journal_refused(self, dataset, tasks, tmp_path):
        path = tmp_path / "run.ckpt"
        journal = CohortCheckpoint(path)
        journal.begin(work_list_digest(tasks), "cfg")
        try:
            with pytest.raises(CheckpointError, match="open"):
                journal.compact()
        finally:
            journal.close()

    def test_compact_missing_journal_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            CohortCheckpoint(tmp_path / "absent.ckpt").compact()

    def test_compact_foreign_file_refused_and_untouched(self, tmp_path):
        foreign = tmp_path / "notes.jsonl"
        foreign.write_text('{"line": 1}\n')
        with pytest.raises(CheckpointError, match="not a cohort checkpoint"):
            CohortCheckpoint(foreign).compact()
        assert foreign.read_text() == '{"line": 1}\n'


class TestAutoCompactionCadence:
    """The automatic cadence: ``begin()`` compacts the journal when its
    dead-line weight reaches ``DEFAULT_COMPACT_DEAD_LINES`` — long-lived
    journals shed kill debris without an operator running ``--compact``.
    """

    def dirty_journal(self, dataset, tasks, tmp_path, dead):
        path = tmp_path / "run.ckpt"
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=path)
        duplicate = path.read_text().splitlines(keepends=True)[1]
        with open(path, "a") as fh:
            fh.write(duplicate * dead)
        return path

    def test_begin_compacts_past_the_threshold(
        self, dataset, tasks, tmp_path, baseline
    ):
        path = self.dirty_journal(
            dataset, tasks, tmp_path, dead=DEFAULT_COMPACT_DEAD_LINES
        )
        journal = CohortCheckpoint(path)
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=journal
        )
        assert journal.auto_compactions == 1
        assert len(path.read_text().splitlines()) == 1 + len(tasks)
        assert report.to_json() == baseline

    def test_below_threshold_journal_untouched(
        self, dataset, tasks, tmp_path
    ):
        path = self.dirty_journal(
            dataset, tasks, tmp_path, dead=DEFAULT_COMPACT_DEAD_LINES - 1
        )
        before = path.read_bytes()
        journal = CohortCheckpoint(path)
        CohortEngine(dataset, executor="serial").run(tasks, checkpoint=journal)
        assert journal.auto_compactions == 0
        assert journal.dropped == DEFAULT_COMPACT_DEAD_LINES - 1
        assert path.read_bytes() == before  # fully restored: no appends

    def test_default_cadence_ignores_normal_kill_debris(
        self, dataset, tasks, tmp_path, monkeypatch
    ):
        """An interrupted run leaves at most one partial line: far below
        the threshold, so ordinary resumes never pay a rewrite."""
        path = tmp_path / "run.ckpt"
        interrupt_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            CohortEngine(dataset, executor="serial").run(
                tasks, checkpoint=path
            )
        journal = CohortCheckpoint(path)
        journal.begin(work_list_digest(tasks), config_digest(
            CohortEngine(dataset, executor="serial").config
        ))
        journal.close()
        assert journal.auto_compactions == 0

    def test_failed_compaction_never_blocks_the_run(
        self, dataset, tasks, tmp_path, baseline, monkeypatch
    ):
        """Compaction is an optimization over derived data: if the
        rewrite fails (read-only tree, quota), the resume proceeds
        exactly as it would have without the cadence."""
        path = self.dirty_journal(
            dataset, tasks, tmp_path, dead=DEFAULT_COMPACT_DEAD_LINES
        )

        def failing_compact(self):
            raise CheckpointError("disk at quota")

        monkeypatch.setattr(CohortCheckpoint, "compact", failing_compact)
        journal = CohortCheckpoint(path)
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=journal
        )
        assert journal.auto_compactions == 0
        assert report.to_json() == baseline

    def test_dead_weight_resets_per_scan(self, dataset, tasks, tmp_path):
        path = self.dirty_journal(dataset, tasks, tmp_path, dead=2)
        journal = CohortCheckpoint(path)
        journal.outcome_count()
        journal.outcome_count()
        assert journal.dropped == 2  # repeated probes never inflate it


class TestMergeCheckpoints:
    """Shard journals of one plan combine, through ``merge_shards``, into
    a single journal the full run resumes from."""

    def plan(self, dataset, tasks, tmp_path, run=True):
        config = CohortEngine(dataset, executor="serial").config
        plan_dir = tmp_path / "plan"
        specs = plan_shards(tasks, config, 2)
        write_plan(plan_dir, specs)
        if run:
            for spec in specs:
                run_shard(
                    spec,
                    journal=journal_path(plan_dir, spec.shard_index),
                    dataset=dataset,
                    executor="serial",
                )
        return plan_dir, specs

    def test_merged_journal_resumes_the_full_work_list(
        self, dataset, tasks, tmp_path, baseline, counter
    ):
        plan_dir, specs = self.plan(dataset, tasks, tmp_path)
        merged = tmp_path / "merged.ckpt"
        result = merge_shards(plan_dir, merged, specs=specs)
        assert result == {"sources": 2, "outcomes": len(tasks), "dropped": 0}
        counter["n"] = 0
        report = CohortEngine(dataset, executor="serial").run(
            tasks, checkpoint=merged
        )
        assert counter["n"] == 0  # every shard outcome restored
        assert report.to_json() == baseline

    def test_each_shard_journal_is_scanned_once(
        self, dataset, tasks, tmp_path, monkeypatch
    ):
        plan_dir, specs = self.plan(dataset, tasks, tmp_path)
        scanned = []
        scan = CohortCheckpoint._scan

        def counting_scan(self):
            scanned.append(self.path.name)
            return scan(self)

        monkeypatch.setattr(CohortCheckpoint, "_scan", counting_scan)
        merge_shards(plan_dir, tmp_path / "merged.ckpt", specs=specs)
        assert sorted(scanned) == ["shard-000.ckpt", "shard-001.ckpt"]

    def test_config_mismatch_rejected(self, dataset, tasks, tmp_path):
        plan_dir, specs = self.plan(dataset, tasks, tmp_path, run=False)
        run_shard(
            specs[0],
            journal=journal_path(plan_dir, 0),
            dataset=dataset,
            executor="serial",
        )
        # Shard 1's slice, journaled under another engine configuration.
        CohortEngine(reseed(dataset), executor="serial").run(
            specs[1].tasks, checkpoint=journal_path(plan_dir, 1)
        )
        merged = tmp_path / "merged.ckpt"
        with pytest.raises(ShardError, match="shard 1.*different run"):
            merge_shards(plan_dir, merged, specs=specs)
        assert not merged.exists()

    def test_expected_config_pin_rejected_on_mismatch(
        self, dataset, tasks, tmp_path
    ):
        # The shards agree with each other, but not with the plan: the
        # plan's config digest is the pin.
        plan_dir, specs = self.plan(dataset, tasks, tmp_path, run=False)
        for spec in specs:
            CohortEngine(reseed(dataset), executor="serial").run(
                spec.tasks, checkpoint=journal_path(plan_dir, spec.shard_index)
            )
        merged = tmp_path / "merged.ckpt"
        with pytest.raises(ShardError, match="shard 0.*different run"):
            merge_shards(plan_dir, merged, specs=specs)
        assert not merged.exists()

    def test_existing_destination_refused(self, dataset, tasks, tmp_path):
        plan_dir, specs = self.plan(dataset, tasks, tmp_path)
        dest = tmp_path / "merged.ckpt"
        dest.write_text("precious\n")
        with pytest.raises(ShardError, match="already exists"):
            merge_shards(plan_dir, dest, specs=specs)
        assert dest.read_text() == "precious\n"

    def test_invalid_source_journal_refused(self, dataset, tasks, tmp_path):
        # An emptied shard journal restores nothing: the plan is no
        # longer complete, so no merged journal is written.
        plan_dir, specs = self.plan(dataset, tasks, tmp_path)
        journal_path(plan_dir, 1).write_text("")
        merged = tmp_path / "merged.ckpt"
        with pytest.raises(ShardError, match="incomplete.*shard 1"):
            merge_shards(plan_dir, merged, specs=specs)
        assert not merged.exists()

    def test_no_sources_refused(self, dataset, tmp_path):
        plan_dir, specs = self.plan(dataset, (), tmp_path)
        with pytest.raises(ShardError, match="nothing to merge"):
            merge_shards(plan_dir, tmp_path / "merged.ckpt", specs=specs)

    def test_outcomes_outside_the_work_list_never_leak(
        self, dataset, tasks, tmp_path
    ):
        # A full-run merged journal restamped with a SUBSET work digest
        # still carries every shard outcome; resuming the subset must
        # restore only its own records — the report is defined as
        # exactly the work list, never the journal superset.
        plan_dir, specs = self.plan(dataset, tasks, tmp_path)
        merged = tmp_path / "merged.ckpt"
        merge_shards(plan_dir, merged, specs=specs)
        subset = tasks[:3]
        lines = merged.read_text().splitlines(keepends=True)
        restamped = tmp_path / "subset.ckpt"
        restamped.write_text(
            "".join(
                [_header_line(work_list_digest(subset), specs[0].config)]
                + lines[1:]
            )
        )
        assert CohortCheckpoint(restamped).outcome_count() == len(tasks)
        report = CohortEngine(dataset, executor="serial").run(
            subset, checkpoint=restamped
        )
        direct = CohortEngine(dataset, executor="serial").run(subset)
        assert report.n_records == len(subset)
        assert report.to_json() == direct.to_json()
