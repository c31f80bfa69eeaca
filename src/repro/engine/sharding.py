"""Distributed shard orchestration: partition -> launch -> collect -> merge.

The front-end that turns the single-node :class:`~repro.engine.executor
.CohortEngine` into a fleet.  Everything below builds on invariants the
engine already guarantees — :class:`~repro.engine.tasks.RecordTask`
work lists are pure coordinates, every outcome is a pure function of its
task, and a :class:`~repro.engine.checkpoint.CohortCheckpoint` journal
restores a run's completed outcomes — so the whole distributed story
reduces to four small verbs:

``plan``
    :func:`plan_shards` deterministically partitions a work list into N
    :class:`ShardSpec` manifests (contiguous slices or strided
    round-robin), each a self-contained JSON file carrying the *full*
    run's work/config digests plus the shard's own task coordinates.  A
    manifest is everything a machine needs to run its slice — no shared
    state, no coordinator connection.
``run``
    :func:`run_shard` executes one manifest as an independent
    checkpointed engine run.  The shard's journal is keyed by the
    shard's own work digest, so a killed shard resumes from exactly
    where it died, and a journal from any *other* shard or
    configuration is rejected, never merged.
``collect``
    :func:`collect_shards` gathers the shard journals back: digests
    validated, per-shard completion counted, missing coverage reported.
    :func:`load_plan` separately proves the manifest set itself is
    sound — no duplicate or missing shard, no overlapping task, and the
    shards reassemble into *exactly* the planned work list (checked by
    digest, so a lost or doctored manifest cannot hide).
``merge``
    :func:`merge_shards` writes the outcomes collect restored from
    complete shard journals into one full-run checkpoint (each journal
    is scanned once), and :func:`merged_report` aggregates it into a
    :class:`~repro.engine.report.CohortReport` byte-identical to an
    uninterrupted single-node run — the same parity contract the
    engine's own resume path honors.  This is the only way shard
    journals combine.

:class:`ShardLauncher` drives the loop with a *local subprocess*
backend: each shard runs as ``python -m repro shard run <manifest>`` —
its own OS process, journal, and log file, up to ``jobs`` at a time,
with fail-fast or continue-on-shard-failure semantics.  Because the
unit of distribution is "a manifest file in, a journal file out", a
remote backend (ssh, k8s, batch queue) only has to move two small files
per shard; nothing in plan/collect/merge would change.

:func:`orchestrate` is the one-call front door: given a planned
directory it launches every incomplete shard (already-complete shards
are skipped — re-orchestrating after a crash resumes for free),
re-collects, merges, and returns the verified report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..data.dataset import SyntheticEEGDataset, check_duration_range
from ..exceptions import CheckpointError, ShardError, at_least, integer, positive
from ..settings import SHARD_STRATEGIES
from .checkpoint import (
    CohortCheckpoint,
    _line_checksum,
    _write_journal,
    config_digest,
    work_list_digest,
)
from .executor import CohortEngine
from .report import CohortReport
from .tasks import RecordTask

__all__ = [
    "SHARD_STRATEGIES",
    "ShardLauncher",
    "ShardSpec",
    "ShardStatus",
    "collect_shards",
    "journal_path",
    "load_plan",
    "log_path",
    "manifest_path",
    "merge_shards",
    "merged_report",
    "orchestrate",
    "partition_tasks",
    "plan_shards",
    "reconstruct_work_list",
    "run_shard",
    "write_plan",
]

#: Manifest kind tag + format version; a manifest of a different kind
#: or version is refused outright — manifests are small operator-written
#: configuration, so unlike journals they fail loud, never degrade.
_MANIFEST_KIND = "repro-shard-spec"
_MANIFEST_VERSION = 1

#: Default name of the merged checkpoint ``orchestrate`` writes.
MERGED_NAME = "merged.ckpt"


def partition_tasks(
    tasks,
    n_shards: int,
    strategy: str = "contiguous",
    weights=None,
) -> tuple[tuple[RecordTask, ...], ...]:
    """Split a work list into ``n_shards`` deterministic slices.

    Every task lands in exactly one shard; shards may legitimately be
    empty when ``n_shards`` exceeds the task count (a fixed fleet
    pointed at a small cohort).  ``contiguous`` spreads the remainder
    over the leading shards so sizes differ by at most one; ``strided``
    is ``tasks[i::n_shards]``.

    ``weights`` — one non-negative finite cost per task (e.g. record
    duration in seconds) — switches ``contiguous`` to a greedy
    longest-processing-time assignment: tasks are placed heaviest-first
    onto the currently lightest shard, which bounds the makespan at
    4/3 of optimal even under heavy skew.  The assignment is fully
    deterministic (ties break by shard fill count, then shard index,
    and equal-weight tasks place in work-list order) and each shard
    preserves original work-list order internally.  Weighted
    partitioning is a launch-time balancing aid only: shards no longer
    interleave by a closed form, so weighted plans cannot be rebuilt by
    :func:`reconstruct_work_list` and ``weights`` cannot combine with
    ``"strided"``.
    """
    tasks = tuple(tasks)
    integer(n_shards, "n_shards", ShardError, 1)
    if strategy not in SHARD_STRATEGIES:
        raise ShardError(
            f"strategy must be one of {SHARD_STRATEGIES}, got {strategy!r}"
        )
    if weights is not None:
        if strategy == "strided":
            raise ShardError(
                "weights require the contiguous strategy; strided is a "
                "fixed round-robin and cannot honor per-task costs"
            )
        weights = [
            float(at_least(weight, f"weights[{index}]", ShardError, 0))
            for index, weight in enumerate(weights)
        ]
        if len(weights) != len(tasks):
            raise ShardError(
                f"weights length {len(weights)} != task count {len(tasks)}"
            )
        # Greedy LPT: heaviest task first, onto the lightest shard.
        order = sorted(range(len(tasks)), key=lambda i: (-weights[i], i))
        loads = [0.0] * n_shards
        assigned: list[list[int]] = [[] for _ in range(n_shards)]
        for index in order:
            shard = min(
                range(n_shards),
                key=lambda s: (loads[s], len(assigned[s]), s),
            )
            loads[shard] += weights[index]
            assigned[shard].append(index)
        return tuple(
            tuple(tasks[i] for i in sorted(bucket)) for bucket in assigned
        )
    if strategy == "strided":
        return tuple(tasks[i::n_shards] for i in range(n_shards))
    base, rem = divmod(len(tasks), n_shards)
    slices = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < rem else 0)
        slices.append(tasks[start:start + size])
        start += size
    return tuple(slices)


@dataclass(frozen=True)
class ShardSpec:
    """One shard's manifest: a self-contained slice of a planned run.

    ``work``/``config`` name the *full* run (every spec of one plan
    shares them); ``tasks`` is this shard's slice, carried as explicit
    coordinates so ``shard run`` never has to re-enumerate the cohort —
    and so a manifest can be shipped to a machine that has nothing but
    the package installed.
    """

    shard_index: int
    n_shards: int
    strategy: str
    #: Digest of the full planned work list (all shards share it).
    work: str
    #: Digest of the engine configuration the plan was built under.
    config: str
    #: Dataset duration range (seconds) — the one dataset knob the
    #: manifest must carry to rebuild the engine; everything else in the
    #: config digest is the package default (a custom dataset can still
    #: be injected via :func:`run_shard`'s ``dataset`` parameter).
    duration_range_s: tuple[float, float]
    tasks: tuple[RecordTask, ...]

    def __post_init__(self) -> None:
        check_duration_range(self.duration_range_s)
        integer(self.n_shards, "n_shards", ShardError, 1)
        if integer(self.shard_index, "shard_index", ShardError) >= self.n_shards:
            raise ShardError(
                f"shard_index must be in [0, {self.n_shards}), got "
                f"{self.shard_index}"
            )
        if self.strategy not in SHARD_STRATEGIES:
            raise ShardError(
                f"strategy must be one of {SHARD_STRATEGIES}, got "
                f"{self.strategy!r}"
            )

    @property
    def shard_work(self) -> str:
        """Work digest of this shard's own slice — what the shard's
        journal header carries (the shard *is* an independent run of
        exactly these tasks)."""
        return work_list_digest(self.tasks)

    @property
    def task_keys(self) -> set[tuple[int, int, int]]:
        return {t.key for t in self.tasks}

    # -- serialization -------------------------------------------------
    def to_manifest(self) -> dict:
        payload = {
            "kind": _MANIFEST_KIND,
            "version": _MANIFEST_VERSION,
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "strategy": self.strategy,
            "work": self.work,
            "config": self.config,
            "duration_range_s": list(self.duration_range_s),
            "tasks": [
                {
                    "patient_id": t.patient_id,
                    "seizure_index": t.seizure_index,
                    "sample_index": t.sample_index,
                    "duration_range_s": (
                        list(t.duration_range_s)
                        if t.duration_range_s is not None
                        else None
                    ),
                }
                for t in self.tasks
            ],
        }
        payload["checksum"] = _line_checksum(payload)
        return payload

    def write(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(self.to_manifest(), sort_keys=True, indent=2) + "\n"
            )
        except OSError as exc:
            # An unwritable plan directory (read-only tree, a *file*
            # where the directory should be) is a configuration error,
            # reported like every other shard failure.
            raise ShardError(f"cannot write shard manifest {path}: {exc}")
        return path

    @classmethod
    def from_manifest(cls, payload, *, origin: str = "<manifest>") -> "ShardSpec":
        if not isinstance(payload, dict) or payload.get("kind") != _MANIFEST_KIND:
            raise ShardError(f"{origin} is not a shard manifest")
        if payload.get("version") != _MANIFEST_VERSION:
            raise ShardError(
                f"{origin} has manifest version {payload.get('version')!r}; "
                f"this build reads version {_MANIFEST_VERSION} — re-plan the "
                f"run with matching tooling"
            )
        if payload.get("checksum") != _line_checksum(payload):
            raise ShardError(
                f"{origin} fails its checksum; the manifest was truncated "
                f"or edited — re-plan the run instead of repairing it"
            )
        try:
            tasks = tuple(
                RecordTask(
                    patient_id=t["patient_id"],
                    seizure_index=t["seizure_index"],
                    sample_index=t["sample_index"],
                    duration_range_s=(
                        tuple(t["duration_range_s"])
                        if t["duration_range_s"] is not None
                        else None
                    ),
                )
                for t in payload["tasks"]
            )
            lo, hi = payload["duration_range_s"]
            return cls(
                shard_index=payload["shard_index"],
                n_shards=payload["n_shards"],
                strategy=payload["strategy"],
                work=payload["work"],
                config=payload["config"],
                duration_range_s=(float(lo), float(hi)),
                tasks=tasks,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardError(f"{origin} is malformed: {exc}")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ShardSpec":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ShardError(f"cannot read shard manifest {path}: {exc}")
        except ValueError as exc:
            raise ShardError(f"{path} is not a shard manifest: {exc}")
        return cls.from_manifest(payload, origin=str(path))


# ---------------------------------------------------------------------------
# Plan layout: one directory holds the manifests plus the per-shard
# journals and logs the launcher produces.  Names are positional so a
# plan directory is self-describing without an index file.
def manifest_path(plan_dir: str | os.PathLike, shard_index: int) -> Path:
    return Path(plan_dir) / f"shard-{shard_index:03d}.json"


def journal_path(plan_dir: str | os.PathLike, shard_index: int) -> Path:
    return Path(plan_dir) / f"shard-{shard_index:03d}.ckpt"


def log_path(plan_dir: str | os.PathLike, shard_index: int) -> Path:
    return Path(plan_dir) / f"shard-{shard_index:03d}.log"


def plan_shards(
    tasks,
    config,
    n_shards: int,
    *,
    strategy: str = "contiguous",
) -> tuple[ShardSpec, ...]:
    """Partition a work list under an engine configuration into specs.

    ``config`` is the :class:`~repro.engine.executor.EngineConfig` the
    shards must run under (only digest-relevant fields matter — worker
    counts and chunk sizes remain free per shard, the equivalence
    contract guarantees they cannot change a byte).
    """
    tasks = tuple(tasks)
    slices = partition_tasks(tasks, n_shards, strategy)
    work = work_list_digest(tasks)
    cfg = config_digest(config)
    return tuple(
        ShardSpec(
            shard_index=index,
            n_shards=n_shards,
            strategy=strategy,
            work=work,
            config=cfg,
            duration_range_s=config.dataset.duration_range_s,
            tasks=piece,
        )
        for index, piece in enumerate(slices)
    )


def write_plan(plan_dir: str | os.PathLike, specs) -> tuple[Path, ...]:
    """Write every spec's manifest under ``plan_dir`` (created on demand)."""
    specs = tuple(specs)
    if not specs:
        raise ShardError("refusing to write an empty shard plan")
    paths = []
    for spec in specs:
        paths.append(spec.write(manifest_path(plan_dir, spec.shard_index)))
    return tuple(paths)


def load_plan(plan_dir: str | os.PathLike) -> tuple[ShardSpec, ...]:
    """Load and *prove* a plan directory's manifest set.

    Beyond per-file checksums, the set as a whole must be coherent:

    * every spec agrees on (n_shards, strategy, work, config, duration
      range) — shards of one run, not a mixture of plans;
    * shard indices are exactly ``0..n_shards-1``, each once — a lost
      or duplicated manifest cannot pass;
    * no task key appears in two shards — overlapping specs would make
      two machines claim the same record (and the merge would silently
      prefer one, hiding the planning bug);
    * re-assembling the slices per the strategy reproduces a work list
      whose digest equals the plan's ``work`` — so missing *or* extra
      tasks are caught even though the full list is never stored.
    """
    plan_dir = Path(plan_dir)
    paths = sorted(plan_dir.glob("shard-*.json"))
    if not paths:
        raise ShardError(f"no shard manifests (shard-*.json) under {plan_dir}")
    specs = tuple(ShardSpec.load(p) for p in paths)

    identities = {
        (s.n_shards, s.strategy, s.work, s.config, s.duration_range_s)
        for s in specs
    }
    if len(identities) != 1:
        raise ShardError(
            f"manifests under {plan_dir} disagree on their plan identity "
            f"(n_shards/strategy/work/config); they belong to different "
            f"runs — re-plan into a fresh directory"
        )
    n_shards = specs[0].n_shards
    indices = sorted(s.shard_index for s in specs)
    if indices != list(range(n_shards)):
        raise ShardError(
            f"plan {plan_dir} names {n_shards} shard(s) but manifests for "
            f"indices {indices} are present; every shard of the plan must "
            f"have exactly one manifest"
        )
    specs = tuple(sorted(specs, key=lambda s: s.shard_index))

    claimed: dict[tuple[int, int, int], int] = {}
    for spec in specs:
        for task in spec.tasks:
            owner = claimed.setdefault(task.key, spec.shard_index)
            if owner != spec.shard_index:
                raise ShardError(
                    f"task {task.key} is claimed by shards {owner} and "
                    f"{spec.shard_index}; overlapping shard specs would "
                    f"process (and bill) the same record twice"
                )

    rebuilt = reconstruct_work_list(specs)
    if work_list_digest(rebuilt) != specs[0].work:
        raise ShardError(
            f"shards under {plan_dir} do not reassemble into the planned "
            f"work list (digest mismatch); at least one manifest carries "
            f"missing or extra tasks — re-plan the run"
        )
    return specs


def reconstruct_work_list(specs) -> tuple[RecordTask, ...]:
    """Invert :func:`partition_tasks` over a validated spec set."""
    ordered = sorted(specs, key=lambda s: s.shard_index)
    if not ordered:
        return ()
    if ordered[0].strategy == "contiguous":
        return tuple(t for spec in ordered for t in spec.tasks)
    slices = [spec.tasks for spec in ordered]
    n = len(slices)
    total = sum(len(s) for s in slices)
    try:
        return tuple(slices[i % n][i // n] for i in range(total))
    except IndexError:
        raise ShardError(
            "shard sizes are inconsistent with a strided partition; the "
            "manifest set is not a partition of one work list"
        )


# ---------------------------------------------------------------------------
def run_shard(
    spec: ShardSpec,
    *,
    journal: str | os.PathLike | CohortCheckpoint,
    dataset: SyntheticEEGDataset | None = None,
    executor: str | None = None,
    max_workers: int | None = None,
    chunk_s: float | None = None,
    store_dir: str | None = None,
    max_failures: int | None = 0,
) -> CohortReport:
    """Execute one shard as an independent checkpointed engine run.

    Rebuilds the engine from the manifest (or an injected ``dataset``
    for library callers with non-default datasets) and *verifies* the
    rebuilt configuration digests to the manifest's ``config`` before
    any record work — a shard silently running the wrong configuration
    would poison the merge, so drift fails here, loudly.

    The run journals to ``journal`` keyed by the shard's own work
    digest: re-invoking a killed shard resumes it; pointing it at
    another shard's journal (or any foreign file) is rejected by the
    checkpoint layer.  Scheduling knobs (executor kind, worker count,
    chunk size, store) stay per-shard because the equivalence contract
    keeps them out of the result bytes.  ``max_failures`` defaults to
    strict: one poisoned record fails the shard (its journal keeps every
    completed record, so the retry is cheap).
    """
    if dataset is None:
        dataset = SyntheticEEGDataset(duration_range_s=spec.duration_range_s)
    engine = CohortEngine(
        dataset,
        executor=executor,
        max_workers=max_workers,
        store_dir=store_dir,
        **({"chunk_s": chunk_s} if chunk_s is not None else {}),
    )
    rebuilt = config_digest(engine.config)
    if rebuilt != spec.config:
        raise ShardError(
            f"shard {spec.shard_index} was planned under engine config "
            f"digest {spec.config!r} but this host rebuilds "
            f"{rebuilt!r}; the dataset or pipeline defaults differ — "
            f"re-plan the run on matching code"
        )
    if not spec.tasks:
        # An empty shard is a complete shard: nothing to run, nothing to
        # journal (collect counts it 0/0).
        return CohortReport.from_outcomes(())
    return engine.run(spec.tasks, checkpoint=journal, max_failures=max_failures)


@dataclass(frozen=True)
class ShardStatus:
    """One shard's collect-time state: journal coverage of its slice."""

    spec: ShardSpec
    journal: Path
    #: Restorable outcomes in the journal that belong to this shard's
    #: task list, keyed by task (a missing journal restores none — the
    #: shard never started).  :func:`merge_shards` writes these.
    outcomes: dict = field(repr=False)
    #: Dead journal lines observed while scanning (compaction candidates).
    dropped: int

    @property
    def done(self) -> int:
        return len(self.outcomes)

    @property
    def total(self) -> int:
        return len(self.spec.tasks)

    @property
    def missing(self) -> int:
        return self.total - self.done

    @property
    def complete(self) -> bool:
        return self.done == self.total


def collect_shards(
    plan_dir: str | os.PathLike,
    *,
    specs=None,
) -> tuple[ShardStatus, ...]:
    """Gather shard journals: validate digests, measure coverage.

    A journal written under a different work list or engine
    configuration — any foreign digest — raises :class:`ShardError`
    naming the shard; silently counting foreign outcomes as coverage
    would let a mis-wired fleet "complete" a run it never executed.  A
    *missing* journal is not an error, just zero coverage: collect
    reports progress, the caller decides whether incomplete is fatal.
    """
    specs = tuple(specs) if specs is not None else load_plan(plan_dir)
    statuses = []
    for spec in specs:
        path = journal_path(plan_dir, spec.shard_index)
        journal = CohortCheckpoint(path)
        try:
            done = journal.load(spec.shard_work, spec.config)
        except CheckpointError as exc:
            raise ShardError(f"shard {spec.shard_index}: {exc}")
        keys = spec.task_keys
        statuses.append(
            ShardStatus(
                spec=spec,
                journal=path,
                outcomes={k: o for k, o in done.items() if k in keys},
                dropped=journal.dropped,
            )
        )
    return tuple(statuses)


def _incomplete_detail(statuses) -> str:
    """One coverage clause per incomplete shard, for error messages."""
    return ", ".join(
        f"shard {s.spec.shard_index} ({s.done}/{s.total})" for s in statuses
    )


def merge_shards(
    plan_dir: str | os.PathLike,
    out: str | os.PathLike,
    *,
    specs=None,
    statuses=None,
) -> dict[str, int]:
    """Fold complete shard journals into one full-run checkpoint.

    Requires every shard complete (merge of a partial fleet would write
    a checkpoint that *looks* resumable but silently re-runs the holes
    on a machine that expected a finished run — collect first, merge
    once).  Empty shards contribute no journal and are skipped.  The
    outcomes written are the ones :func:`collect_shards` restored, so
    each shard journal is scanned once; ``statuses`` lets a caller that
    just collected (``orchestrate``) pass its result in instead of
    paying a second scan.  The merged journal carries the plan's work
    and config digests, so the full work list resumes from it.  ``out``
    must not exist (a merge is a create, never an overwrite) and is
    written atomically.

    Returns ``{"sources", "outcomes", "dropped"}``.
    """
    specs = tuple(specs) if specs is not None else load_plan(plan_dir)
    if statuses is None:
        statuses = collect_shards(plan_dir, specs=specs)
    incomplete = [s for s in statuses if not s.complete]
    if incomplete:
        raise ShardError(
            f"cannot merge an incomplete plan: "
            f"{_incomplete_detail(incomplete)}; run the missing shards "
            f"(`repro shard run` / `repro shard orchestrate`) first"
        )
    sources = [s for s in statuses if s.spec.tasks]
    if not sources:
        raise ShardError("plan contains no tasks; nothing to merge")
    out = Path(out)
    if out.exists():
        raise ShardError(
            f"merge destination {out} already exists; refusing to "
            f"overwrite it — delete the file or pick a fresh path"
        )
    # A plan's slices are disjoint (load_plan proves it), so no key
    # repeats across shards.
    merged = {key: o for s in sources for key, o in s.outcomes.items()}
    _write_journal(
        out, specs[0].work, specs[0].config, merged,
        f"cannot write merged checkpoint {out}",
    )
    return {
        "sources": len(sources),
        "outcomes": len(merged),
        "dropped": sum(s.dropped for s in sources),
    }


def merged_report(
    plan_dir: str | os.PathLike,
    merged: str | os.PathLike,
    *,
    specs=None,
) -> CohortReport:
    """Aggregate a merged checkpoint into the full-run report.

    Byte-identical to the report an uninterrupted single-node run over
    the same work list produces: the restored outcomes are the same
    pure-function-of-task values, and aggregation is deterministic over
    the sorted set.
    """
    specs = tuple(specs) if specs is not None else load_plan(plan_dir)
    full = reconstruct_work_list(specs)
    journal = CohortCheckpoint(merged)
    try:
        done = journal.load(specs[0].work, specs[0].config)
    except CheckpointError as exc:
        raise ShardError(f"merged checkpoint {merged}: {exc}")
    missing = [t.key for t in full if t.key not in done]
    if missing:
        raise ShardError(
            f"merged checkpoint {merged} is missing {len(missing)} of "
            f"{len(full)} record(s) (first: {missing[0]}); merge only "
            f"after every shard is complete"
        )
    return CohortReport.from_outcomes([done[t.key] for t in full])


# ---------------------------------------------------------------------------
class ShardLauncher:
    """Local subprocess backend: run planned shards as isolated processes.

    Each shard is launched as ``python -m repro shard run <manifest>
    --journal <plan_dir>/shard-NNN.ckpt`` with stdout+stderr appended to
    ``shard-NNN.log`` — the exact command a remote backend would run on
    another host, which is the point: "machines" are local processes
    today, and the orchestration layer never peeks inside them, only at
    the journal files they leave behind.

    ``jobs`` bounds concurrent shards (default: shard count capped by
    CPU count).  ``fail_fast=True`` stops launching and terminates
    in-flight shards on the first failure; ``False`` lets every shard
    run to its own conclusion and reports all failures at the end —
    either way the surviving journals resume on the next attempt.
    """

    #: Poll cadence for child processes (s).
    POLL_S = 0.05

    def __init__(
        self,
        plan_dir: str | os.PathLike,
        *,
        jobs: int | None = None,
        shard_workers: int | None = 1,
        executor: str | None = None,
        store_dir: str | None = None,
        chunk_s: float | None = None,
        fail_fast: bool = True,
    ) -> None:
        if jobs is not None:
            integer(jobs, "jobs (--jobs)", ShardError, 1)
        if shard_workers is not None:
            integer(shard_workers, "shard_workers", ShardError, 1)
        if chunk_s is not None:
            positive(chunk_s, "chunk_s (--chunk-s)", ShardError)
        self.plan_dir = Path(plan_dir)
        self.jobs = jobs
        #: Worker-pool size *inside* each shard (default 1: concurrency
        #: comes from running shards side by side; a remote fleet would
        #: raise this to each host's core count).
        self.shard_workers = shard_workers
        self.executor = executor
        self.store_dir = store_dir
        self.chunk_s = chunk_s
        self.fail_fast = fail_fast

    def command(self, spec: ShardSpec) -> list[str]:
        """The exact subprocess invocation for one shard (also what a
        remote backend would ship)."""
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "shard",
            "run",
            str(manifest_path(self.plan_dir, spec.shard_index)),
            "--journal",
            str(journal_path(self.plan_dir, spec.shard_index)),
        ]
        if self.executor:
            cmd += ["--executor", self.executor]
        if self.shard_workers is not None:
            cmd += ["--workers", str(self.shard_workers)]
        if self.store_dir:
            cmd += ["--store", str(self.store_dir)]
        if self.chunk_s is not None:
            cmd += ["--chunk-s", str(self.chunk_s)]
        return cmd

    def _environment(self) -> dict[str, str]:
        """Child environment: ensure the running package is importable
        even when the parent was launched from a source tree without an
        installed ``repro`` (tests, CI)."""
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        return env

    def run(self, specs) -> dict[int, int]:
        """Run every spec to completion; returns shard_index -> exit code.

        Raises :class:`ShardError` naming every failed shard (and its
        log) once the policy says stop — immediately under fail-fast,
        after the full fleet under continue-on-failure.
        """
        pending = sorted(specs, key=lambda s: s.shard_index)
        if not pending:
            return {}
        jobs = self.jobs or max(1, min(len(pending), os.cpu_count() or 1))
        env = self._environment()
        running: dict[int, tuple[subprocess.Popen, object]] = {}
        returncodes: dict[int, int] = {}
        failed: list[int] = []
        try:
            while pending or running:
                if failed and self.fail_fast:
                    break
                while pending and len(running) < jobs:
                    spec = pending.pop(0)
                    try:
                        log = open(
                            log_path(self.plan_dir, spec.shard_index), "ab"
                        )
                    except OSError as exc:
                        raise ShardError(
                            f"cannot open shard {spec.shard_index} log: {exc}"
                        )
                    try:
                        proc = subprocess.Popen(
                            self.command(spec),
                            stdout=log,
                            stderr=subprocess.STDOUT,
                            env=env,
                        )
                    except OSError as exc:
                        # ENOMEM, EAGAIN: a launch failure is a shard
                        # failure, reported cleanly.
                        log.close()
                        raise ShardError(
                            f"cannot launch shard {spec.shard_index}: {exc}"
                        )
                    running[spec.shard_index] = (proc, log)
                finished = [
                    index
                    for index, (proc, _) in running.items()
                    if proc.poll() is not None
                ]
                if not finished:
                    time.sleep(self.POLL_S)
                    continue
                for index in finished:
                    proc, log = running.pop(index)
                    log.close()
                    returncodes[index] = proc.returncode
                    if proc.returncode != 0:
                        failed.append(index)
        finally:
            # Fail-fast termination and exception cleanup: no orphaned
            # shard keeps writing after the launcher gave up (their
            # journals survive — a terminated shard resumes next run).
            for proc, _ in running.values():
                proc.terminate()
            for index, (proc, log) in running.items():
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                log.close()
                returncodes.setdefault(index, proc.returncode)
        if failed:
            logs = ", ".join(
                str(log_path(self.plan_dir, index)) for index in sorted(failed)
            )
            raise ShardError(
                f"{len(failed)} shard(s) failed "
                f"({sorted(failed)}); completed records are journaled — "
                f"re-run `repro shard orchestrate` to resume; logs: {logs}"
            )
        return returncodes


def orchestrate(
    plan_dir: str | os.PathLike,
    *,
    specs=None,
    jobs: int | None = None,
    shard_workers: int | None = 1,
    executor: str | None = None,
    store_dir: str | None = None,
    chunk_s: float | None = None,
    fail_fast: bool = True,
) -> tuple[CohortReport, dict]:
    """The whole plan -> run -> collect -> merge loop, one call.

    Launches only *incomplete* shards (a previously killed or failed
    fleet resumes: complete shards are never re-run, partial shards
    resume from their journals), re-collects to verify full coverage,
    merges into ``plan_dir/merged.ckpt`` (an existing merged checkpoint
    is regenerated — it is derived data), and returns ``(report,
    summary)`` where the report is byte-identical to a single-node run.
    """
    plan_dir = Path(plan_dir)
    specs = tuple(specs) if specs is not None else load_plan(plan_dir)
    before = collect_shards(plan_dir, specs=specs)
    todo = [s.spec for s in before if not s.complete]
    launcher = ShardLauncher(
        plan_dir,
        jobs=jobs,
        shard_workers=shard_workers,
        executor=executor,
        store_dir=store_dir,
        chunk_s=chunk_s,
        fail_fast=fail_fast,
    )
    returncodes = launcher.run(todo)
    # Nothing launched means nothing changed: the pre-launch collection
    # is still current, and a large plan's journals are not re-scanned
    # just to regenerate the report.
    statuses = collect_shards(plan_dir, specs=specs) if todo else before
    incomplete = [s for s in statuses if not s.complete]
    if incomplete:
        raise ShardError(
            f"shard run(s) exited cleanly but coverage is incomplete "
            f"({_incomplete_detail(incomplete)}); inspect the shard logs "
            f"under {plan_dir}"
        )
    if not any(spec.tasks for spec in specs):
        # An all-empty plan mirrors the engine's empty-work-list
        # contract: an empty report, not an error — the parity with a
        # single-node run must stay total.
        return CohortReport.from_outcomes(()), {
            "merged": None,
            "launched": [],
            "resumed": [],
            "shards": len(specs),
            "sources": 0,
            "outcomes": 0,
            "dropped": 0,
        }
    merged = plan_dir / MERGED_NAME
    if merged.exists():
        merged.unlink()
    stats = merge_shards(plan_dir, merged, specs=specs, statuses=statuses)
    report = merged_report(plan_dir, merged, specs=specs)
    summary = {
        "merged": str(merged),
        "launched": sorted(returncodes),
        "resumed": [
            s.spec.shard_index for s in before if 0 < s.done < s.total
        ],
        "shards": len(specs),
        **stats,
    }
    return report, summary
