"""Cohort-scale parallel execution engine.

:class:`CohortEngine` fans the full per-record pipeline — resolve the
task's deterministic coordinates to a streaming
:class:`~repro.data.sources.RecordSource`, extract features chunk-by-
chunk (via the in-process cache), run Algorithm 1, score against the
expert annotation — out across a process pool, or runs it task by task
in the calling process (``serial``).
Workers never materialize a record: signal flows source -> chunks ->
streaming extractor, so per-worker signal memory is O(chunk) whatever
the record duration.

Equivalence contract
--------------------
Every task is a pure function of (dataset seed, task coordinates): the
record is re-streamed inside the worker, chunked extraction is
bit-identical to batch extraction at any chunk size, and Algorithm 1 is
deterministic.
Results are re-sorted into canonical task order before aggregation, so
the produced :class:`~repro.engine.report.CohortReport` is identical —
byte-for-byte in its JSON form — for any worker count, executor kind, or
scheduling interleaving.  The parity/determinism test suites enforce
this against the sequential per-record pipeline.

Fault tolerance
---------------
A task whose pipeline raises is captured as a failure outcome (the
exception text is itself deterministic), so one poisoned record costs
one row in :attr:`CohortReport.failures` instead of the whole run; the
``max_failures`` policy restores strictness where wanted.  Outcomes
stream back through :func:`concurrent.futures.as_completed`, so when the
failure tolerance is crossed the engine cancels every not-yet-started
task and raises immediately — strict mode never pays for the remainder
of a poisoned work list, and the error still names every failure
observed before cancellation.

Durability is two-tier.  With a ``store_dir`` configured, extracted
feature matrices persist in a
:class:`~repro.engine.store.DiskFeatureStore`, so a re-run skips
*extraction* for every unchanged record.  With a ``checkpoint``
configured on :meth:`CohortEngine.run`, every completed outcome is
journaled incrementally to a :class:`~repro.engine.checkpoint
.CohortCheckpoint`, so a killed run skips completed *records* entirely
on resume — and the merged report stays byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ..core.deviation import deviation, normalized_deviation
from ..core.labeling import APosterioriLabeler
from ..data.dataset import SyntheticEEGDataset
from ..data.records import SeizureAnnotation, interval_window_labels
from ..data.sources import RecordSource
from ..exceptions import EngineError
from ..ml.metrics import classification_report
from ..settings import EXECUTORS
from .cache import FeatureCache
from .checkpoint import CohortCheckpoint, config_digest, work_list_digest
from .chunked import DEFAULT_CHUNK_S
from .report import CohortReport, RecordOutcome
from .store import DiskFeatureStore
from .tasks import RecordTask, cohort_tasks

__all__ = ["EngineConfig", "CohortEngine", "EXECUTORS"]

#: Window/annotation overlap fraction for the sensitivity/specificity
#: scoring (same convention as :meth:`EEGRecord.window_labels`).
SCORING_OVERLAP = 0.5


@dataclass(frozen=True)
class EngineConfig:
    """Everything a worker needs to process tasks independently.

    Shipped once per worker (pickled for process pools), so it must stay
    small: the dataset is a few kB of profile parameters, never signal.
    The pipeline itself is fixed — the paper's 10 features on 4 s / 1 s
    windows, Algorithm 1 with grid step 4, scored at
    :data:`SCORING_OVERLAP` — so every field here is the dataset or a
    scheduling/resource knob that never changes a report byte.
    """

    dataset: SyntheticEEGDataset
    chunk_s: float = DEFAULT_CHUNK_S
    cache_capacity: int = 8
    #: Directory of the shared disk feature store (``None``: memory-only
    #: caching).  A path, not a store object, so the config stays small
    #: and picklable; each worker opens its own handle onto the same
    #: atomically-written entries.
    store_dir: str | None = None
    #: Size bound (bytes) for the disk store: each worker's writes evict
    #: least-recently-used entries past the bound.  ``None``: unbounded.
    store_max_bytes: int | None = None


class _WorkerContext:
    """Per-worker state: labeler + feature cache, built once per process."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.labeler = APosterioriLabeler()
        store = (
            DiskFeatureStore(config.store_dir, max_bytes=config.store_max_bytes)
            if config.store_dir
            else None
        )
        self.cache = FeatureCache(config.cache_capacity, store=store)

    def process_safe(self, task: RecordTask) -> RecordOutcome:
        """Run one task, capturing any pipeline exception as a failure
        outcome instead of letting it tear down the whole pool ``map``.

        The captured message is a pure function of the task (the
        pipeline is deterministic), so reports containing failures stay
        byte-identical across executor kinds and worker counts.
        """
        try:
            return self.process(task)
        except Exception as exc:  # noqa: BLE001 — the poisoned record
            # may raise anything; KeyboardInterrupt/SystemExit still
            # propagate and cancel the run.
            return _failure_outcome(task, exc)

    def process(self, task: RecordTask) -> RecordOutcome:
        """Run the full pipeline for one record task.

        The task resolves to a :class:`~repro.data.sources
        .SyntheticRecordSource`, not a record: the worker only ever
        touches the signal in bounded chunks (the cache keys it by
        recipe, so only a miss streams it, once, through the
        extractor), and scoring consumes source *metadata* — the full
        waveform is never materialized anywhere in the engine data
        plane.
        """
        cfg = self.config
        source = cfg.dataset.sample_source(
            task.patient_id,
            task.seizure_index,
            task.sample_index,
            duration_range_s=task.duration_range_s,
        )
        feats = self.cache.get_or_extract_source(
            source, self.labeler.extractor, self.labeler.spec, cfg.chunk_s
        )
        # The exact code path of the sequential pipeline, fed the
        # chunked/cached matrix — the equivalence contract by sharing,
        # not by re-implementation.
        result = self.labeler.label_matrix(
            feats,
            cfg.dataset.mean_seizure_duration(task.patient_id),
            source.duration_s,
        )
        return self._score(task, source, feats.n_windows, result.annotation)

    def _score(
        self,
        task: RecordTask,
        source: RecordSource,
        n_windows: int,
        ann: SeizureAnnotation,
    ) -> RecordOutcome:
        spec = self.labeler.spec
        truth = source.annotations[0]
        truth_labels = source.window_labels(
            spec.length_s, spec.step_s, SCORING_OVERLAP
        )
        pred_labels = interval_window_labels(
            [ann], n_windows, spec.length_s, spec.step_s, SCORING_OVERLAP
        )
        n = min(truth_labels.size, pred_labels.size)
        scores = classification_report(truth_labels[:n], pred_labels[:n])
        return RecordOutcome(
            patient_id=task.patient_id,
            seizure_index=task.seizure_index,
            sample_index=task.sample_index,
            record_id=source.record_id,
            duration_s=source.duration_s,
            n_windows=n_windows,
            truth_onset_s=truth.onset_s,
            truth_offset_s=truth.offset_s,
            onset_s=ann.onset_s,
            offset_s=ann.offset_s,
            delta_s=deviation(truth, ann),
            delta_norm=normalized_deviation(truth, ann, source.duration_s),
            sensitivity=scores.sensitivity,
            specificity=scores.specificity,
            geometric_mean=scores.geometric_mean,
        )


def _failure_outcome(task: RecordTask, exc: Exception) -> RecordOutcome:
    """A deterministic placeholder outcome for a task whose pipeline
    raised.  Metrics are zeroed (they never enter aggregation); the
    coordinates identify the record to retry."""
    return RecordOutcome(
        patient_id=task.patient_id,
        seizure_index=task.seizure_index,
        sample_index=task.sample_index,
        record_id="",
        duration_s=0.0,
        n_windows=0,
        truth_onset_s=0.0,
        truth_offset_s=0.0,
        onset_s=0.0,
        offset_s=0.0,
        delta_s=0.0,
        delta_norm=0.0,
        sensitivity=0.0,
        specificity=0.0,
        geometric_mean=0.0,
        error=f"{type(exc).__name__}: {exc}",
    )


# Per-process worker state, installed by the pool initializer.  Module
# globals (not closures) because process pools can only ship module-level
# callables.
_WORKER: _WorkerContext | None = None


def _init_worker(config: EngineConfig) -> None:
    global _WORKER
    _WORKER = _WorkerContext(config)


def _run_task(task: RecordTask) -> RecordOutcome:
    assert _WORKER is not None, "worker pool initializer did not run"
    return _WORKER.process_safe(task)


class CohortEngine:
    """Batch executor for cohort-scale evaluation workloads.

    Parameters
    ----------
    dataset:
        The deterministic record source; workers regenerate records from
        its seed, so only task coordinates cross process boundaries.
    max_workers:
        Pool size (default: the machine's CPU count).
    executor:
        ``"process"`` (the default when ``None``: true parallelism for
        the numpy/Python mix of the feature extractors) or ``"serial"``
        (no pool — the reference path the parity tests compare against).
    chunk_s / cache_capacity:
        See :class:`EngineConfig`.  ``chunk_s`` must be finite and
        positive, ``cache_capacity`` at least 1; a bad value raises
        :class:`EngineError` here, before any worker starts.
    store_dir:
        Directory of the persistent feature store.  When set, workers
        read/write feature matrices there (write-temp-then-rename, so a
        crashed or concurrent run never corrupts it), and a re-run over
        unchanged records skips extraction entirely — the resumability
        half of fault tolerance.
    store_max_bytes:
        Size bound for the disk store; least-recently-used entries are
        evicted past it (``None``: unbounded).  See
        :meth:`DiskFeatureStore.gc` / the ``repro store`` CLI for
        offline lifecycle management.

    The pipeline is not configurable: the engine runs the paper's Sec.
    VI-A protocol (see :class:`EngineConfig`).
    """

    def __init__(
        self,
        dataset: SyntheticEEGDataset,
        *,
        max_workers: int | None = None,
        executor: str | None = None,
        chunk_s: float = DEFAULT_CHUNK_S,
        cache_capacity: int = 8,
        store_dir: str | None = None,
        store_max_bytes: int | None = None,
    ) -> None:
        if executor is None:
            executor = EXECUTORS[0]
        if executor not in EXECUTORS:
            raise EngineError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        if store_max_bytes is not None and store_max_bytes < 1:
            raise EngineError(
                f"store_max_bytes must be >= 1 or None, got {store_max_bytes}"
            )
        if not (math.isfinite(chunk_s) and chunk_s > 0):
            raise EngineError(
                f"chunk_s (--chunk-s) must be finite and > 0, got {chunk_s}"
            )
        if cache_capacity < 1:
            raise EngineError(
                f"cache_capacity must be >= 1, got {cache_capacity}"
            )
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.executor = executor
        self.config = EngineConfig(
            dataset=dataset,
            chunk_s=chunk_s,
            cache_capacity=cache_capacity,
            store_dir=str(store_dir) if store_dir else None,
            store_max_bytes=store_max_bytes,
        )
        #: In-process context (serial and single-worker runs), built
        #: lazily and reused across runs so the feature cache persists.
        self._context: _WorkerContext | None = None

    # ------------------------------------------------------------------
    def _local_context(self) -> _WorkerContext:
        if self._context is None:
            self._context = _WorkerContext(self.config)
        return self._context

    def cache_stats(self) -> dict[str, int]:
        """Feature-cache counters of the in-process context (serial and
        single-worker runs; process workers keep their own caches)."""
        return self._local_context().cache.stats()

    # ------------------------------------------------------------------
    def effective_workers(self, n_tasks: int) -> int:
        """Workers a run of ``n_tasks`` will actually use (pool size is
        capped by the task count; the serial path uses exactly one)."""
        if self.executor == "serial":
            return 1
        return max(1, min(self.max_workers, n_tasks))

    def run(
        self,
        tasks: tuple[RecordTask, ...] | list[RecordTask] | None = None,
        *,
        samples_per_seizure: int = 1,
        patient_ids: list[int] | tuple[int, ...] | None = None,
        duration_range_s: tuple[float, float] | None = None,
        max_failures: int | None = None,
        checkpoint: str | os.PathLike | CohortCheckpoint | None = None,
    ) -> CohortReport:
        """Process a work list (or the enumerated cohort) and aggregate.

        With no explicit ``tasks``, the Sec. VI-A work list is built via
        :func:`~repro.engine.tasks.cohort_tasks` from the keyword knobs.

        A task whose pipeline raises no longer aborts the run: the
        exception is captured into a failure outcome and reported under
        :attr:`CohortReport.failures`.  ``max_failures`` bounds the
        tolerance — ``None`` (default) accepts any number of *partial*
        failures, ``0`` restores strictness.  Outcomes stream back as
        they complete, so the moment the tolerance is crossed the engine
        cancels every not-yet-started task and raises
        :class:`EngineError` naming every failure observed up to that
        point — it never pays for the remainder of a poisoned work
        list.  A run where every record failed always raises, whatever
        the tolerance — a zeroed report must never pass for a measured
        result.  An empty work list yields an empty report.

        ``checkpoint`` (a path or a
        :class:`~repro.engine.checkpoint.CohortCheckpoint`) enables
        record-level run durability: every completed outcome is
        journaled as it streams back, tasks already journaled by a
        previous (killed) run are skipped outright, and the merged
        report is byte-identical to an uninterrupted run.  A journal
        written by a different work list or engine configuration raises
        :class:`~repro.exceptions.CheckpointError`; a corrupt or
        stale-version journal silently resets (everything re-runs).
        Failed tasks are never journaled and therefore always retried
        on resume.  A journal opened from a path gets
        :class:`CohortCheckpoint`'s default compaction cadence; pass a
        :class:`CohortCheckpoint` object to choose another.
        """
        if max_failures is not None and max_failures < 0:
            raise EngineError(
                f"max_failures must be >= 0 or None, got {max_failures}"
            )
        if tasks is None:
            tasks = cohort_tasks(
                self.config.dataset,
                samples_per_seizure=samples_per_seizure,
                patient_ids=patient_ids,
                duration_range_s=duration_range_s,
            )
        tasks = tuple(tasks)
        if not tasks:
            return CohortReport.from_outcomes(())

        journal: CohortCheckpoint | None = None
        completed: dict[tuple[int, int, int], RecordOutcome] = {}
        if checkpoint is not None:
            journal = (
                checkpoint
                if isinstance(checkpoint, CohortCheckpoint)
                else CohortCheckpoint(checkpoint)
            )
            completed = journal.begin(
                work_list_digest(tasks), config_digest(self.config)
            )
            # Restore only outcomes this work list actually names.  The
            # digest check already rejects foreign journals, but a
            # merged journal stamped for this run (checkpoint merge with
            # an explicit work digest) may still carry shard outcomes
            # outside the list — those must never leak into the report,
            # which is defined as exactly the work list's records.
            task_keys = {t.key for t in tasks}
            completed = {
                key: outcome
                for key, outcome in completed.items()
                if key in task_keys
            }
        pending = tuple(t for t in tasks if t.key not in completed)

        outcomes = list(completed.values())
        try:
            outcomes += self._collect(
                pending, max_failures, journal, n_total=len(tasks)
            )
        finally:
            if journal is not None:
                journal.close()

        report = CohortReport.from_outcomes(outcomes)
        if report.n_records == 0 and report.n_failures:
            # Tolerance is for partial failure; a run where *every*
            # record failed must never surface as a zeroed report that a
            # caller could mistake for a measured result.
            detail = "; ".join(
                f"task {f.key}: {f.error}" for f in report.failures[:3]
            )
            raise EngineError(
                f"every record failed ({report.n_failures} of "
                f"{len(tasks)}): {detail}"
            )
        return report

    # ------------------------------------------------------------------
    def _collect(
        self,
        pending: tuple[RecordTask, ...],
        max_failures: int | None,
        journal: CohortCheckpoint | None,
        n_total: int,
    ) -> list[RecordOutcome]:
        """Execute ``pending`` and stream outcomes back as they finish.

        Each completed outcome is journaled (checkpoint flushes are
        incremental, so a kill between any two results loses at most the
        in-flight tasks); the failure tolerance is enforced *during*
        collection — crossing it cancels every not-yet-started future
        and raises immediately.
        """
        if not pending:
            return []
        n_workers = self.effective_workers(len(pending))
        outcomes: list[RecordOutcome] = []
        failures: list[RecordOutcome] = []

        def admit(outcome: RecordOutcome) -> bool:
            """Account one streamed outcome; False to stop collecting."""
            outcomes.append(outcome)
            if journal is not None:
                journal.record(outcome)
            if outcome.failed:
                failures.append(outcome)
                if max_failures is not None and len(failures) > max_failures:
                    return False
            return True

        def strict_error() -> EngineError:
            detail = "; ".join(
                f"task {f.key}: {f.error}" for f in failures
            )
            return EngineError(
                f"{len(failures)} record(s) failed (max_failures="
                f"{max_failures}); aborted after {len(outcomes)} of "
                f"{n_total} tasks, cancelling the rest: {detail}"
            )

        if n_workers == 1:
            context = self._local_context()
            for task in pending:
                if not admit(context.process_safe(task)):
                    raise strict_error()
            return outcomes

        # Only a pool run loads the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_worker,
            initargs=(self.config,),
        )
        try:
            futures = [pool.submit(_run_task, task) for task in pending]
            for future in as_completed(futures):
                if not admit(future.result()):
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise strict_error()
        finally:
            pool.shutdown(wait=True)
        return outcomes
