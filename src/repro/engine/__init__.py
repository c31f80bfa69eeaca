"""Cohort-scale parallel execution engine.

Fans the full per-record pipeline (synthesize -> extract -> label ->
score) out across a process pool with chunked, memory-bounded feature
extraction and a two-tier (memory + disk) feature cache, while
guaranteeing results identical to the sequential pipeline for any
worker count (the equivalence contract the parity tests enforce).
Runs are fault-tolerant — per-task exceptions become report rows, not
pool aborts — and resumable via the persistent feature store.

* :class:`CohortEngine` — the executor (process pool or serial);
* :class:`RecordTask` / :func:`cohort_tasks` — the shardable work list;
* :class:`CohortReport` — deterministic Table I/II-style aggregation,
  including the per-task failures section;
* :func:`extract_features_from_source` — the engine's bounded-memory
  record path, bit-identical to batch extraction (in-memory records go
  through :func:`repro.api.extract`);
* :class:`FeatureCache` — LRU memo keyed by (record, extractor, spec);
* :class:`DiskFeatureStore` — its persistent second tier (atomic writes,
  versioned header, load-or-recompute, size-bounded LRU eviction and
  stale-entry GC);
* :class:`CohortCheckpoint` — record-level run journal: a killed run
  resumes by skipping completed records, byte-identical to an
  uninterrupted run (dead journal weight auto-compacts past a cadence
  threshold);
* :mod:`sharding <repro.engine.sharding>` — the distributed front-end:
  :func:`plan_shards` partitions a work list into :class:`ShardSpec`
  manifests, :func:`run_shard` executes one as an independent
  checkpointed run, :func:`collect_shards` / :func:`merge_shards` /
  :func:`merged_report` validate and fold the shard journals back, and
  :class:`ShardLauncher` / :func:`orchestrate` drive the whole loop over
  local subprocess "machines".

The Fig. 1 self-learning loop is not here: each record must see the
detector its predecessors trained, so it runs record by record through
:meth:`~repro.selflearning.pipeline.SelfLearningPipeline.observe_record`.
"""

from .. import _lazy_exports

__all__ = [
    "DEFAULT_CHUNK_S",
    "DEFAULT_COMPACT_DEAD_LINES",
    "EXECUTORS",
    "CohortCheckpoint",
    "CohortEngine",
    "CohortReport",
    "DiskFeatureStore",
    "EngineConfig",
    "FeatureCache",
    "PatientSummary",
    "RecordOutcome",
    "RecordTask",
    "ShardLauncher",
    "ShardSpec",
    "ShardStatus",
    "cohort_tasks",
    "collect_shards",
    "config_digest",
    "extract_features_from_source",
    "load_plan",
    "merge_shards",
    "merged_report",
    "orchestrate",
    "partition_tasks",
    "plan_shards",
    "run_shard",
    "source_cache_key",
    "store_key_digest",
    "work_list_digest",
    "write_plan",
]

_EXPORTS = {
    ".cache": ("FeatureCache", "source_cache_key"),
    ".checkpoint": (
        "DEFAULT_COMPACT_DEAD_LINES", "CohortCheckpoint", "config_digest", "work_list_digest",
    ),
    ".chunked": ("DEFAULT_CHUNK_S", "extract_features_from_source"),
    ".executor": ("EXECUTORS", "CohortEngine", "EngineConfig"),
    ".report": ("CohortReport", "PatientSummary", "RecordOutcome"),
    ".sharding": (
        "ShardLauncher", "ShardSpec", "ShardStatus", "collect_shards",
        "load_plan", "merge_shards", "merged_report", "orchestrate", "partition_tasks",
        "plan_shards", "run_shard", "write_plan",
    ),
    ".store": ("DiskFeatureStore", "store_key_digest"),
    ".tasks": ("RecordTask", "cohort_tasks"),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
