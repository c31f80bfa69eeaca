"""Distributed shard orchestrator suite.

Pins the PR 5 contract:

* partitioning is deterministic, covers every task exactly once, and
  tolerates uneven splits and empty shards;
* a plan's manifest set is *proved* at load time — lost, duplicated,
  overlapping, or doctored manifests are rejected by digest, never
  silently merged;
* plan -> run -> collect -> merge reproduces the single-node report
  byte for byte, including when a shard is killed mid-run and resumed
  from its own journal;
* foreign journals are rejected at collect; incomplete fleets cannot
  merge;
* the subprocess launcher honors both failure policies (fail-fast
  terminates the fleet; keep-going runs every shard to its own end).
"""

import json

import pytest

from repro.engine import (
    CohortCheckpoint,
    CohortEngine,
    RecordTask,
    ShardLauncher,
    ShardSpec,
    cohort_tasks,
    collect_shards,
    load_plan,
    merge_shards,
    merged_report,
    orchestrate,
    partition_tasks,
    plan_shards,
    run_shard,
    work_list_digest,
    write_plan,
)
from repro.engine import executor as executor_module
from repro.engine.sharding import (
    journal_path,
    manifest_path,
    reconstruct_work_list,
)
from repro.exceptions import ShardError


@pytest.fixture(scope="module")
def tasks(dataset):
    """Patient 8's four records: small but shardable three ways."""
    return cohort_tasks(dataset, patient_ids=[8])


@pytest.fixture(scope="module")
def config(dataset):
    return CohortEngine(dataset, executor="serial").config


@pytest.fixture(scope="module")
def baseline(dataset, tasks):
    """Uninterrupted single-node serial run: the byte-level reference."""
    return CohortEngine(dataset, executor="serial").run(tasks).to_json()


def make_plan(tmp_path, tasks, config, n_shards=3, strategy="contiguous"):
    plan_dir = tmp_path / "plan"
    specs = plan_shards(tasks, config, n_shards, strategy=strategy)
    write_plan(plan_dir, specs)
    return plan_dir, specs


def run_all(plan_dir, specs, dataset):
    for spec in specs:
        run_shard(
            spec,
            journal=journal_path(plan_dir, spec.shard_index),
            dataset=dataset,
            executor="serial",
        )


def interrupt_after(monkeypatch, n):
    """Deterministic in-process SIGKILL stand-in (same idiom as the
    checkpoint suite): the pipeline dies after ``n`` completed records."""
    calls = {"n": 0}
    original = executor_module._WorkerContext.process

    def dying(self, task):
        if calls["n"] >= n:
            raise KeyboardInterrupt
        calls["n"] += 1
        return original(self, task)

    monkeypatch.setattr(executor_module._WorkerContext, "process", dying)
    return calls


class TestPartition:
    def test_uneven_contiguous_split(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(7))
        slices = partition_tasks(ts, 3)
        assert [len(s) for s in slices] == [3, 2, 2]
        assert tuple(t for s in slices for t in s) == ts

    def test_strided_split_is_round_robin(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(7))
        slices = partition_tasks(ts, 3, "strided")
        assert slices == (ts[0::3], ts[1::3], ts[2::3])

    def test_every_task_lands_exactly_once(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(11))
        for strategy in ("contiguous", "strided"):
            slices = partition_tasks(ts, 4, strategy)
            everything = [t for s in slices for t in s]
            assert sorted(everything, key=lambda t: t.key) == list(ts)

    def test_more_shards_than_tasks_yields_empty_shards(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(2))
        for strategy in ("contiguous", "strided"):
            slices = partition_tasks(ts, 5, strategy)
            assert len(slices) == 5
            assert sum(len(s) for s in slices) == 2
            assert [len(s) for s in slices].count(0) == 3

    def test_single_shard_is_the_whole_list(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(3))
        assert partition_tasks(ts, 1) == (ts,)

    def test_invalid_inputs_raise(self):
        ts = (RecordTask(1, 0, 0),)
        with pytest.raises(ShardError):
            partition_tasks(ts, 0)
        with pytest.raises(ShardError):
            partition_tasks(ts, 2, "zigzag")


class TestWeightedPartition:
    def test_skewed_weights_balance_better_than_contiguous(self):
        # One whale record and seven minnows: the naive contiguous split
        # puts the whale plus minnows on shard 0; LPT isolates it.
        ts = tuple(RecordTask(1, i, 0) for i in range(8))
        weights = [100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        slices = partition_tasks(ts, 2, weights=weights)
        by_task = {t: w for t, w in zip(ts, weights)}
        loads = [sum(by_task[t] for t in s) for s in slices]
        assert max(loads) == 100.0  # whale alone; minnows share the other
        landed = [t for s in slices for t in s]
        assert sorted(landed, key=lambda t: t.key) == list(ts)

    def test_every_task_lands_exactly_once(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(11))
        weights = [float((i * 7) % 5 + 1) for i in range(11)]
        slices = partition_tasks(ts, 4, weights=weights)
        everything = [t for s in slices for t in s]
        assert sorted(everything, key=lambda t: t.key) == list(ts)

    def test_shards_preserve_work_list_order_internally(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(9))
        weights = [5.0, 1.0, 4.0, 1.0, 3.0, 1.0, 2.0, 1.0, 1.0]
        for shard in partition_tasks(ts, 3, weights=weights):
            indices = [t.seizure_index for t in shard]
            assert indices == sorted(indices)

    def test_equal_weights_tie_break_is_round_robin(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(6))
        slices = partition_tasks(ts, 3, weights=[2.0] * 6)
        assert [len(s) for s in slices] == [2, 2, 2]
        # Deterministic: same inputs, same assignment, every time.
        assert partition_tasks(ts, 3, weights=[2.0] * 6) == slices

    def test_zero_weights_still_spread_by_count(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(6))
        slices = partition_tasks(ts, 3, weights=[0.0] * 6)
        assert [len(s) for s in slices] == [2, 2, 2]

    def test_more_shards_than_tasks_yields_empty_shards(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(2))
        slices = partition_tasks(ts, 5, weights=[3.0, 1.0])
        assert len(slices) == 5
        assert sum(len(s) for s in slices) == 2
        assert [len(s) for s in slices].count(0) == 3

    def test_invalid_weights_raise(self):
        ts = tuple(RecordTask(1, i, 0) for i in range(3))
        with pytest.raises(ShardError):
            partition_tasks(ts, 2, weights=[1.0, 2.0])  # length mismatch
        with pytest.raises(ShardError):
            partition_tasks(ts, 2, weights=[1.0, -1.0, 2.0])
        with pytest.raises(ShardError):
            partition_tasks(ts, 2, weights=[1.0, float("nan"), 2.0])
        with pytest.raises(ShardError):
            partition_tasks(ts, 2, weights=[1.0, float("inf"), 2.0])
        with pytest.raises(ShardError):
            partition_tasks(ts, 2, "strided", weights=[1.0, 1.0, 1.0])


class TestManifests:
    def test_write_load_roundtrip(self, tmp_path, tasks, config):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        for spec in specs:
            loaded = ShardSpec.load(manifest_path(plan_dir, spec.shard_index))
            assert loaded == spec
            assert loaded.shard_work == spec.shard_work

    def test_specs_share_run_identity_but_not_slice(self, tasks, config):
        specs = plan_shards(tasks, config, 3)
        assert len({s.work for s in specs}) == 1
        assert len({s.config for s in specs}) == 1
        assert len({s.shard_work for s in specs}) == 3
        assert specs[0].work == work_list_digest(tasks)

    def test_tampered_manifest_rejected(self, tmp_path, tasks, config):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        path = manifest_path(plan_dir, 1)
        payload = json.loads(path.read_text())
        payload["shard_index"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="checksum"):
            ShardSpec.load(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-manifest.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ShardError, match="not a shard manifest"):
            ShardSpec.load(path)

    def test_future_version_rejected(self, tmp_path, tasks, config):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        path = manifest_path(plan_dir, 0)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="version"):
            ShardSpec.load(path)


class TestLoadPlan:
    def test_roundtrip(self, tmp_path, tasks, config):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        assert load_plan(plan_dir) == specs

    def test_strided_plan_reconstructs(self, tmp_path, tasks, config):
        plan_dir, specs = make_plan(
            tmp_path, tasks, config, strategy="strided"
        )
        assert load_plan(plan_dir) == specs
        assert reconstruct_work_list(specs) == tuple(tasks)

    def test_missing_manifest_detected(self, tmp_path, tasks, config):
        plan_dir, _ = make_plan(tmp_path, tasks, config)
        manifest_path(plan_dir, 1).unlink()
        with pytest.raises(ShardError, match="exactly one manifest"):
            load_plan(plan_dir)

    def test_empty_directory_detected(self, tmp_path):
        with pytest.raises(ShardError, match="no shard manifests"):
            load_plan(tmp_path)

    def test_overlapping_specs_detected(self, tmp_path, tasks, config):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        # Shard 1 re-claims shard 0's first task: two machines would
        # process the same record.
        overlapping = ShardSpec(
            shard_index=1,
            n_shards=specs[1].n_shards,
            strategy=specs[1].strategy,
            work=specs[1].work,
            config=specs[1].config,
            duration_range_s=specs[1].duration_range_s,
            tasks=(specs[0].tasks[0],) + specs[1].tasks,
        )
        overlapping.write(manifest_path(plan_dir, 1))
        with pytest.raises(ShardError, match="claimed by shards 0 and 1"):
            load_plan(plan_dir)

    def test_extra_task_breaks_the_work_digest(self, tmp_path, tasks, config):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        doctored = ShardSpec(
            shard_index=2,
            n_shards=specs[2].n_shards,
            strategy=specs[2].strategy,
            work=specs[2].work,
            config=specs[2].config,
            duration_range_s=specs[2].duration_range_s,
            tasks=specs[2].tasks + (RecordTask(9, 0, 0),),
        )
        doctored.write(manifest_path(plan_dir, 2))
        with pytest.raises(ShardError, match="do not reassemble"):
            load_plan(plan_dir)

    def test_mixed_plans_detected(self, tmp_path, tasks, config):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        foreign = plan_shards(tuple(tasks)[:2], config, 3)
        foreign[1].write(manifest_path(plan_dir, 1))
        with pytest.raises(ShardError, match="different runs"):
            load_plan(plan_dir)


class TestRunCollectMergeParity:
    def test_sharded_report_is_byte_identical(
        self, tmp_path, dataset, tasks, config, baseline
    ):
        """The tentpole contract, in-process: 3 shards, run separately,
        collected, merged — one report, byte-identical to single-node."""
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        run_all(plan_dir, specs, dataset)
        statuses = collect_shards(plan_dir, specs=specs)
        assert all(s.complete for s in statuses)
        merged = plan_dir / "merged.ckpt"
        stats = merge_shards(plan_dir, merged, specs=specs)
        assert stats["outcomes"] == len(tasks)
        report = merged_report(plan_dir, merged, specs=specs)
        assert report.to_json() == baseline

    def test_strided_partition_same_bytes(
        self, tmp_path, dataset, tasks, config, baseline
    ):
        plan_dir, specs = make_plan(
            tmp_path, tasks, config, strategy="strided"
        )
        run_all(plan_dir, specs, dataset)
        merged = plan_dir / "merged.ckpt"
        merge_shards(plan_dir, merged, specs=specs)
        report = merged_report(plan_dir, merged, specs=specs)
        assert report.to_json() == baseline

    def test_empty_shards_are_complete_without_journals(
        self, tmp_path, dataset, tasks, config, baseline
    ):
        """More shards than tasks: the empty shards run as no-ops and
        never block collect or merge."""
        n = len(tasks) + 2
        plan_dir, specs = make_plan(tmp_path, tasks, config, n_shards=n)
        for spec in specs:
            report = run_shard(
                spec,
                journal=journal_path(plan_dir, spec.shard_index),
                dataset=dataset,
                executor="serial",
            )
            if not spec.tasks:
                assert report.n_records == 0
                assert not journal_path(plan_dir, spec.shard_index).exists()
        statuses = collect_shards(plan_dir, specs=specs)
        assert all(s.complete for s in statuses)
        merged = plan_dir / "merged.ckpt"
        merge_shards(plan_dir, merged, specs=specs)
        assert merged_report(plan_dir, merged, specs=specs).to_json() == baseline

    def test_killed_shard_resumes_from_its_journal(
        self, tmp_path, dataset, tasks, config, baseline, monkeypatch, counter
    ):
        """Kill shard 0 after one record; re-running the same manifest
        resumes (only the remainder executes) and the merged report is
        byte-identical to the uninterrupted single-node run."""
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        assert len(specs[0].tasks) == 2
        with pytest.MonkeyPatch.context() as interruption:
            interrupt_after(interruption, 1)
            with pytest.raises(KeyboardInterrupt):
                run_shard(
                    specs[0],
                    journal=journal_path(plan_dir, 0),
                    dataset=dataset,
                    executor="serial",
                )
        status = collect_shards(plan_dir, specs=specs)[0]
        assert status.done == 1 and not status.complete

        counter["n"] = 0
        run_all(plan_dir, specs, dataset)
        # Shard 0 re-ran only its missing record (1), not the journaled
        # one; shards 1 and 2 ran their single records.
        assert counter["n"] == len(tasks) - 1
        merged = plan_dir / "merged.ckpt"
        merge_shards(plan_dir, merged, specs=specs)
        assert merged_report(plan_dir, merged, specs=specs).to_json() == baseline


class TestCollectValidation:
    def test_foreign_journal_rejected_at_collect(
        self, tmp_path, dataset, tasks, config
    ):
        """A journal written by a different run (digest mismatch) must
        raise, not count as coverage."""
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        foreign = CohortCheckpoint(journal_path(plan_dir, 1))
        foreign.begin("0" * 32, "1" * 32)
        foreign.close()
        with pytest.raises(ShardError, match="shard 1"):
            collect_shards(plan_dir, specs=specs)

    def test_sibling_shard_journal_rejected(
        self, tmp_path, dataset, tasks, config
    ):
        """Even a journal of the *same plan's* other shard is foreign —
        its work digest names a different slice."""
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        run_shard(
            specs[2],
            journal=journal_path(plan_dir, 1),  # written to the wrong slot
            dataset=dataset,
            executor="serial",
        )
        with pytest.raises(ShardError, match="shard 1"):
            collect_shards(plan_dir, specs=specs)

    def test_config_drift_rejected_at_run(self, tmp_path, tasks, config):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        from repro.data import SyntheticEEGDataset

        drifted = SyntheticEEGDataset(duration_range_s=(240.0, 300.0))
        with pytest.raises(ShardError, match="config digest"):
            run_shard(
                specs[0],
                journal=journal_path(plan_dir, 0),
                dataset=drifted,
                executor="serial",
            )

    def test_merge_refuses_incomplete_plan(
        self, tmp_path, dataset, tasks, config
    ):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        run_shard(
            specs[0],
            journal=journal_path(plan_dir, 0),
            dataset=dataset,
            executor="serial",
        )
        with pytest.raises(ShardError, match="incomplete"):
            merge_shards(plan_dir, plan_dir / "merged.ckpt", specs=specs)
        assert not (plan_dir / "merged.ckpt").exists()


def poisoned_plan(tmp_path, tasks, config):
    """A 3-shard plan whose shard 0 holds a record that always fails
    (unknown patient id -> DataError in the worker -> strict shard)."""
    bad = (RecordTask(999, 0, 0),) + tuple(tasks)
    specs = plan_shards(bad, config, 3)
    assert specs[0].tasks[0].patient_id == 999
    plan_dir = tmp_path / "plan"
    write_plan(plan_dir, specs)
    return plan_dir, specs


class TestLauncherPolicies:
    def test_fail_fast_stops_the_fleet(self, tmp_path, tasks, config):
        plan_dir, specs = poisoned_plan(tmp_path, tasks, config)
        launcher = ShardLauncher(
            plan_dir, jobs=1, executor="serial", fail_fast=True
        )
        with pytest.raises(ShardError, match="1 shard"):
            launcher.run(specs)
        # Shards 1 and 2 were never launched: no journals, no logs.
        assert not journal_path(plan_dir, 1).exists()
        assert not journal_path(plan_dir, 2).exists()

    def test_keep_going_runs_every_shard(
        self, tmp_path, dataset, tasks, config
    ):
        plan_dir, specs = poisoned_plan(tmp_path, tasks, config)
        launcher = ShardLauncher(
            plan_dir, jobs=1, executor="serial", fail_fast=False
        )
        with pytest.raises(ShardError, match="shard"):
            launcher.run(specs)
        # The healthy shards completed despite shard 0's failure.
        statuses = collect_shards(plan_dir, specs=specs)
        assert not statuses[0].complete
        assert statuses[1].complete and statuses[2].complete

    def test_orchestrate_policies_match_launcher(
        self, tmp_path, dataset, tasks, config
    ):
        plan_dir, specs = poisoned_plan(tmp_path, tasks, config)
        with pytest.raises(ShardError):
            orchestrate(
                plan_dir, specs=specs, jobs=1, executor="serial",
                fail_fast=False,
            )
        # The failure left every healthy shard's journal complete, so a
        # fixed plan (or retried poisoned shard) resumes instead of
        # re-running; merged.ckpt must not exist after a failed fleet.
        assert not (plan_dir / "merged.ckpt").exists()

    def test_launcher_validates_knobs(self, tmp_path):
        with pytest.raises(ShardError, match="jobs"):
            ShardLauncher(tmp_path, jobs=0)
        with pytest.raises(ShardError, match="shard_workers"):
            ShardLauncher(tmp_path, shard_workers=0)
        for chunk_s in (0.0, float("nan")):
            with pytest.raises(ShardError, match="chunk_s"):
                ShardLauncher(tmp_path, chunk_s=chunk_s)


class TestOrchestrateEndToEnd:
    def test_three_shards_one_killed_and_resumed_byte_identical(
        self, tmp_path, dataset, tasks, config, baseline
    ):
        """The acceptance criterion: orchestrate >= 3 shards, one of
        them pre-killed mid-run, and the merged report equals the
        single-node run byte for byte."""
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        # Kill shard 0 after one record (in-process interruption, same
        # contract as a SIGKILL: a partial journal is left behind).
        with pytest.MonkeyPatch.context() as interruption:
            interrupt_after(interruption, 1)
            with pytest.raises(KeyboardInterrupt):
                run_shard(
                    specs[0],
                    journal=journal_path(plan_dir, 0),
                    dataset=dataset,
                    executor="serial",
                )
        report, summary = orchestrate(
            plan_dir, specs=specs, jobs=2, executor="serial"
        )
        assert report.to_json() == baseline
        assert summary["shards"] == 3
        # The partially-complete shard was re-launched (resumed), the
        # others ran fresh.
        assert summary["launched"] == [0, 1, 2]
        assert summary["resumed"] == [0]
        assert (plan_dir / "merged.ckpt").exists()

    def test_all_empty_plan_yields_the_empty_report(
        self, tmp_path, config
    ):
        """Parity stays total: an empty work list orchestrates to the
        same empty report a single node returns, never an error."""
        plan_dir = tmp_path / "plan"
        specs = plan_shards((), config, 3)
        write_plan(plan_dir, specs)
        report, summary = orchestrate(plan_dir, specs=specs)
        assert report.n_records == 0
        assert summary["merged"] is None
        # The CLI consumes these unconditionally: both summary shapes
        # must carry them.
        assert summary["launched"] == [] and summary["resumed"] == []
        assert summary["sources"] == 0 and summary["shards"] == 3

    def test_second_orchestrate_launches_nothing(
        self, tmp_path, dataset, tasks, config, baseline
    ):
        plan_dir, specs = make_plan(tmp_path, tasks, config)
        orchestrate(plan_dir, specs=specs, jobs=2, executor="serial")
        report, summary = orchestrate(
            plan_dir, specs=specs, jobs=2, executor="serial"
        )
        assert summary["launched"] == []
        assert report.to_json() == baseline
