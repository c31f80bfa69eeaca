"""Command-line interface: ``python -m repro <command>``.

Eight commands cover the library's main entry points without writing any
code:

* ``label``    — run the a-posteriori labeling algorithm on an EDF record
  (written by :func:`repro.data.save_record` or any compatible 16-bit
  EDF) and print/append the detected seizure annotation;
* ``simulate`` — generate a synthetic cohort record and demonstrate the
  labeling end to end (no files needed);
* ``cohort``   — fan the full evaluation out across a worker pool (the
  :mod:`repro.engine` executor) and print the Table I/II-style rollup;
  ``--checkpoint``/``--resume`` journal per-record outcomes so a killed
  run resumes without repeating completed records; ``--chunk-s`` tunes
  the streaming data plane's chunk size (results are identical at any
  value — only the memory/IO granularity changes); ``--compact``
  rewrites a long-lived journal from its parsed outcomes;
* ``shard``    — the distributed front-end: ``plan`` partitions a cohort
  into self-contained shard manifests, ``run`` executes one manifest as
  an independent checkpointed run (the unit a remote machine would
  execute), ``collect`` validates shard journals and reports coverage,
  ``merge`` folds them into one checkpoint (+ optional report) — the
  one way shard journals combine — and
  ``orchestrate`` drives the whole plan -> launch -> collect -> merge
  loop over local subprocesses in one command;
* ``store``    — lifecycle management for a persistent feature store
  directory (``stats`` / ``verify`` / ``gc`` / ``clear``);
* ``lifetime`` — evaluate the wearable battery model at a given seizure
  frequency (the Table III arithmetic);
* ``replay``   — stream a synthetic cohort record through the real-time
  detection service at wall-clock speed (or unpaced) and print the
  decision/telemetry rollup; ``--json`` emits a canonical, byte-stable
  report for scripting;
* ``serve``    — run the real-time detection service's length-prefixed
  socket front-end (:mod:`repro.service`) until interrupted or
  ``--max-seconds`` elapses.

Exit codes:

* 0 — success;
* 1 — ``store verify`` found a corrupt or stale entry, or ``shard
  collect`` found the plan incomplete;
* 2 — bad input: a one-line ``error: <message>`` on stderr (argparse's
  own usage errors exit 2 as well).

The handlers only parse and print.  Each value is checked once, by the
library call that owns it, and the handlers let its error propagate:
:func:`main` is the one place that reports a
:class:`~repro.exceptions.ReproError`, ``ValueError`` or ``OSError``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

from .exceptions import ReproError
from .settings import (
    BACKPRESSURE_POLICIES,
    DEFAULT_CHUNK_S,
    EXECUTORS,
    SHARD_STRATEGIES,
    ReproSettings,
)

__all__ = ["build_parser", "main", "resolve_cohort_scale"]

#: The CLI's own cohort defaults (minutes), kept small enough for a
#: laptop; ``--paper-scale`` / the env knobs switch to Sec. VI-A scale.
_CLI_DURATION_MIN = 8.0
_CLI_DURATION_MAX = 15.0
#: Sec. VI-A: 100 samples for each of the 45 seizures.
_PAPER_SAMPLES_PER_SEIZURE = 100


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    """The cohort scale/filter knobs, shared by ``repro cohort`` and the
    ``shard plan``/``shard orchestrate`` subcommands (same semantics and
    precedence everywhere)."""
    parser.add_argument(
        "--patients",
        default="",
        help="comma-separated patient ids (default: the full cohort)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="samples per seizure (default: $REPRO_SAMPLES_PER_SEIZURE, "
        "else 1; --paper-scale switches the fallback to 100)",
    )
    parser.add_argument(
        "--duration-min",
        type=float,
        default=None,
        help="minimum record duration in minutes (default 8)",
    )
    parser.add_argument(
        "--duration-max",
        type=float,
        default=None,
        help="maximum record duration in minutes (default 15; with no "
        "explicit durations, $REPRO_PAPER_DURATIONS=1 or --paper-scale "
        "selects the paper's 30-60 min)",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run the Sec. VI-A protocol at paper scale: 100 samples "
        "per seizure, 30-60 min records (explicit flags still win)",
    )


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    """The service queue knobs, shared by ``serve`` and ``replay``.

    Defaults come from the environment-resolved
    :class:`~repro.settings.ReproSettings` snapshot
    (:envvar:`REPRO_SERVICE_QUEUE_DEPTH` /
    :envvar:`REPRO_SERVICE_BACKPRESSURE`); explicit flags win.
    """
    parser.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="per-session ingest queue bound in chunks (default: "
        "$REPRO_SERVICE_QUEUE_DEPTH, else 64)",
    )
    parser.add_argument(
        "--backpressure", choices=BACKPRESSURE_POLICIES, default=None,
        help="full-queue policy (default: $REPRO_SERVICE_BACKPRESSURE, "
        "else reject)",
    )


def _service_config(args: argparse.Namespace):
    """Resolve a :class:`~repro.service.config.ServiceConfig` from the
    shared service flags over the settings snapshot."""
    from .service.config import ServiceConfig

    overrides = {}
    if args.queue_depth is not None:
        overrides["queue_depth"] = args.queue_depth
    if args.backpressure is not None:
        overrides["backpressure"] = args.backpressure
    # Only `serve` exposes --workers and the hardening flags; replay
    # stays single-process and unauthenticated.
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if getattr(args, "auth_token", None):
        overrides["auth_tokens"] = tuple(args.auth_token)
    if getattr(args, "max_sessions_per_client", None) is not None:
        overrides["max_sessions_per_client"] = args.max_sessions_per_client
    if getattr(args, "chunk_rate", None) is not None:
        overrides["chunk_rate"] = args.chunk_rate
    if getattr(args, "replay_buffer", None) is not None:
        overrides["replay_buffer"] = args.replay_buffer
    return ServiceConfig.from_settings(**overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-learning seizure detection (DATE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_label = sub.add_parser("label", help="label a seizure in an EDF record")
    p_label.add_argument(
        "basepath",
        help="record base path (reads <basepath>.edf and optional "
        "<basepath>.seizures.txt)",
    )
    p_label.add_argument(
        "--avg-duration",
        type=float,
        required=True,
        help="expert prior: the patient's average seizure duration (s)",
    )

    p_sim = sub.add_parser("simulate", help="label a synthetic cohort record")
    p_sim.add_argument("--patient", type=int, default=1, help="cohort patient id (1-9)")
    p_sim.add_argument("--seizure", type=int, default=0, help="seizure index")
    p_sim.add_argument("--sample", type=int, default=0, help="sample index")
    p_sim.add_argument(
        "--duration-min",
        type=float,
        default=8.0,
        help="minimum record duration in minutes (default 8)",
    )
    p_sim.add_argument(
        "--duration-max",
        type=float,
        default=12.0,
        help="maximum record duration in minutes (default 12)",
    )

    p_cohort = sub.add_parser(
        "cohort", help="parallel cohort evaluation (Table I/II rollup)"
    )
    _add_scale_args(p_cohort)
    p_cohort.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool size (default: CPU count)",
    )
    p_cohort.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="pool kind (default: process)",
    )
    p_cohort.add_argument(
        "--store",
        default="",
        metavar="DIR",
        help="persistent feature store directory; re-runs against the "
        "same store skip extraction for unchanged records",
    )
    p_cohort.add_argument(
        "--checkpoint",
        default="",
        metavar="PATH",
        help="journal every completed record to this file as the run "
        "progresses; a killed run restarted with --resume skips the "
        "journaled records and produces a byte-identical report",
    )
    p_cohort.add_argument(
        "--resume",
        action="store_true",
        help="allow --checkpoint to continue from an existing journal "
        "(without it, an existing checkpoint file is an error)",
    )
    p_cohort.add_argument(
        "--max-failures",
        type=int,
        default=0,
        metavar="N",
        help="tolerate up to N failed records, reporting them instead "
        "of erroring (default 0: any failure errors after the full "
        "work list was attempted; -1: unlimited)",
    )
    p_cohort.add_argument(
        "--chunk-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="streaming chunk size of the engine data plane (default "
        f"{DEFAULT_CHUNK_S:g}); any positive value produces a "
        "byte-identical report — smaller chunks only lower the "
        "per-worker signal memory bound",
    )
    p_cohort.add_argument(
        "--compact",
        action="store_true",
        help="rewrite the --checkpoint journal from its parsed outcomes "
        "(drops partial/duplicate/corrupt lines, preserves the "
        "work/config digests) and exit without running",
    )
    p_cohort.add_argument(
        "--json",
        default="",
        metavar="PATH",
        help="also write the canonical CohortReport JSON to this file",
    )

    p_shard = sub.add_parser(
        "shard",
        help="distributed shard orchestration: partition, launch, "
        "collect, merge cohort runs",
    )
    shard_sub = p_shard.add_subparsers(dest="shard_command", required=True)

    p_splan = shard_sub.add_parser(
        "plan",
        help="partition a cohort work list into N self-contained shard "
        "manifests",
    )
    p_splan.add_argument(
        "--out-dir", required=True, metavar="DIR",
        help="plan directory (manifests, journals, and logs live here)",
    )
    p_splan.add_argument(
        "--shards", type=int, required=True, metavar="N",
        help="number of shards to partition the work list into",
    )
    p_splan.add_argument(
        "--strategy", choices=SHARD_STRATEGIES, default="contiguous",
        help="partition strategy (default: contiguous)",
    )
    _add_scale_args(p_splan)

    p_srun = shard_sub.add_parser(
        "run",
        help="execute one shard manifest as an independent checkpointed "
        "run (resumes from its own journal automatically)",
    )
    p_srun.add_argument("manifest", help="shard manifest (shard-NNN.json)")
    p_srun.add_argument(
        "--journal", default="", metavar="PATH",
        help="shard checkpoint journal (default: the manifest path with "
        "a .ckpt suffix)",
    )
    p_srun.add_argument(
        "--executor", choices=EXECUTORS, default=None,
        help="pool kind inside this shard (default: process)",
    )
    p_srun.add_argument(
        "--workers", type=int, default=None,
        help="worker pool size inside this shard (default: CPU count)",
    )
    p_srun.add_argument(
        "--store", default="", metavar="DIR",
        help="persistent feature store directory shared across shards",
    )
    p_srun.add_argument(
        "--chunk-s", type=float, default=None, metavar="SECONDS",
        help="streaming chunk size (as for cohort; never changes bytes)",
    )

    p_scollect = shard_sub.add_parser(
        "collect",
        help="validate shard journals against the plan and report "
        "per-shard coverage (exit 1 while incomplete)",
    )
    p_scollect.add_argument("plan_dir", help="plan directory")

    p_smerge = shard_sub.add_parser(
        "merge",
        help="fold complete shard journals into one checkpoint and "
        "optionally emit the cohort report",
    )
    p_smerge.add_argument("plan_dir", help="plan directory")
    p_smerge.add_argument(
        "--out", required=True, metavar="PATH",
        help="merged checkpoint destination (must not exist)",
    )
    p_smerge.add_argument(
        "--report", default="", metavar="PATH",
        help="also aggregate the merged outcomes and write the "
        "canonical CohortReport JSON here (byte-identical to a "
        "single-node run)",
    )

    p_sorch = shard_sub.add_parser(
        "orchestrate",
        help="plan (or reuse a plan), launch every incomplete shard as "
        "a local subprocess, collect, merge, and report — one command",
    )
    p_sorch.add_argument(
        "--out-dir", required=True, metavar="DIR",
        help="plan directory; an existing plan for the same cohort is "
        "reused (completed shards skipped, partial shards resumed)",
    )
    p_sorch.add_argument(
        "--shards", type=int, required=True, metavar="N",
        help="number of shards",
    )
    p_sorch.add_argument(
        "--strategy", choices=SHARD_STRATEGIES, default="contiguous",
        help="partition strategy (default: contiguous)",
    )
    _add_scale_args(p_sorch)
    p_sorch.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="concurrent shard subprocesses (default: shard count "
        "capped by CPU count)",
    )
    p_sorch.add_argument(
        "--shard-workers", type=int, default=1, metavar="N",
        help="worker pool size inside each shard (default 1: "
        "parallelism comes from concurrent shards)",
    )
    p_sorch.add_argument(
        "--executor", choices=EXECUTORS, default=None,
        help="pool kind inside each shard (default: process)",
    )
    p_sorch.add_argument(
        "--store", default="", metavar="DIR",
        help="feature store directory shared by every shard",
    )
    p_sorch.add_argument(
        "--chunk-s", type=float, default=None, metavar="SECONDS",
        help="streaming chunk size inside each shard",
    )
    p_sorch.add_argument(
        "--keep-going", action="store_true",
        help="continue-on-shard-failure: run every shard to its own "
        "conclusion before reporting failures (default: fail fast, "
        "terminating in-flight shards on the first failure)",
    )
    p_sorch.add_argument(
        "--json", default="", metavar="PATH",
        help="write the canonical CohortReport JSON to this file",
    )

    p_store = sub.add_parser(
        "store", help="manage a persistent feature store directory"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_stats = store_sub.add_parser(
        "stats", help="entry count and total size of a store"
    )
    p_verify = store_sub.add_parser(
        "verify",
        help="scan every entry (ok / corrupt / stale); exits 1 if any "
        "entry fails verification",
    )
    p_gc = store_sub.add_parser(
        "gc",
        help="delete corrupt and stale-version entries, then evict "
        "least-recently-used entries down to --max-bytes",
    )
    p_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="after GC, evict LRU entries until the store is <= N bytes",
    )
    p_clear = store_sub.add_parser("clear", help="delete every entry")
    for sp in (p_stats, p_verify, p_gc, p_clear):
        sp.add_argument("dir", help="feature store directory")

    p_life = sub.add_parser("lifetime", help="battery lifetime of the wearable")
    p_life.add_argument(
        "--seizures-per-day",
        type=float,
        default=1.0,
        help="seizure frequency driving the labeling duty cycle (default 1)",
    )
    p_life.add_argument(
        "--labeling-only",
        action="store_true",
        help="exclude the real-time detector (Sec. VI-C first experiment)",
    )

    p_replay = sub.add_parser(
        "replay",
        help="replay a synthetic record through the real-time service",
    )
    p_replay.add_argument(
        "--patient", type=int, default=1, help="cohort patient id (1-9)"
    )
    p_replay.add_argument(
        "--seizure", type=int, default=0, help="seizure index"
    )
    p_replay.add_argument("--sample", type=int, default=0, help="sample index")
    p_replay.add_argument(
        "--duration-min", type=float, default=5.0,
        help="minimum record duration in minutes (default 5)",
    )
    p_replay.add_argument(
        "--duration-max", type=float, default=6.0,
        help="maximum record duration in minutes (default 6)",
    )
    p_replay.add_argument(
        "--speed", type=float, default=0.0,
        help="wall-clock pacing: media seconds per wall second "
        "(1 = live speed; default 0 = unpaced, run flat out)",
    )
    p_replay.add_argument(
        "--chunk-s", type=float, default=1.0, metavar="SECONDS",
        help="media seconds per ingested chunk (default 1; decisions "
        "are byte-identical at any value)",
    )
    _add_service_args(p_replay)
    p_replay.add_argument(
        "--json", action="store_true",
        help="print the canonical replay report as byte-stable JSON "
        "(wall-clock fields excluded) instead of the human rollup",
    )

    p_serve = sub.add_parser(
        "serve", help="run the real-time detection service socket listener"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0: OS-assigned, printed on startup)",
    )
    _add_service_args(p_serve)
    p_serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker shard processes hosting the sessions (default: "
        "$REPRO_SERVICE_WORKERS, else 1 = single-process); sessions "
        "are routed to shards by a stable hash of their id, so "
        "per-session decisions are byte-identical at any N",
    )
    p_serve.add_argument(
        "--auth-token", action="append", default=None, metavar="TOKEN",
        help="accepted client auth token (repeatable; default: "
        "$REPRO_SERVICE_AUTH_TOKENS, comma-separated).  With any token "
        "configured, clients must hello with one before other ops",
    )
    p_serve.add_argument(
        "--max-sessions-per-client", type=int, default=None, metavar="N",
        help="per-client cap on concurrently open sessions (default: "
        "$REPRO_SERVICE_MAX_SESSIONS, else 0 = unlimited)",
    )
    p_serve.add_argument(
        "--chunk-rate", type=float, default=None, metavar="R",
        help="per-client sustained chunk admission rate per second, "
        "with one second of burst (default: $REPRO_SERVICE_CHUNK_RATE, "
        "else 0 = unlimited)",
    )
    p_serve.add_argument(
        "--replay-buffer", type=int, default=None, metavar="N",
        help="per-session journal bound (admitted chunks) for re-homing "
        "sessions after a worker shard dies (default: "
        "$REPRO_SERVICE_REPLAY_BUFFER, else 256; 0 disables restart "
        "and re-homing)",
    )
    p_serve.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="exit after S seconds (default: run until interrupted; "
        "SIGTERM/SIGINT drain admitted chunks before exiting)",
    )
    p_serve.add_argument(
        "--json", action="store_true",
        help="print the final telemetry snapshot as canonical JSON on exit",
    )
    return parser


def _cmd_label(args: argparse.Namespace) -> int:
    from .core.deviation import deviation, normalized_deviation
    from .core.diagnostics import label_confidence
    from .core.labeling import APosterioriLabeler
    from .data.edf import load_record

    record = load_record(args.basepath)
    labeler = APosterioriLabeler()
    result = labeler.label(record, args.avg_duration)
    ann = result.annotation
    diag = label_confidence(result.detection)
    print(f"record: {record}")
    print(f"detected seizure: [{ann.onset_s:.1f}, {ann.offset_s:.1f}] s "
          f"(confidence {diag.confidence:.2f}, snr {diag.snr:.1f})")
    for truth in record.annotations:
        print(
            f"vs expert [{truth.onset_s:.1f}, {truth.offset_s:.1f}] s: "
            f"delta = {deviation(truth, ann):.1f} s, "
            f"delta_norm = {normalized_deviation(truth, ann, record.duration_s):.4f}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.deviation import deviation, normalized_deviation
    from .core.labeling import APosterioriLabeler
    from .data.dataset import SyntheticEEGDataset

    dataset = SyntheticEEGDataset(
        duration_range_s=(args.duration_min * 60.0, args.duration_max * 60.0)
    )
    record = dataset.generate_sample(args.patient, args.seizure, args.sample)
    labeler = APosterioriLabeler()
    result = labeler.label(record, dataset.mean_seizure_duration(args.patient))
    truth = record.annotations[0]
    ann = result.annotation
    print(f"record: {record}")
    print(f"ground truth: [{truth.onset_s:.1f}, {truth.offset_s:.1f}] s")
    print(f"algorithm:    [{ann.onset_s:.1f}, {ann.offset_s:.1f}] s")
    print(f"delta = {deviation(truth, ann):.1f} s, delta_norm = "
          f"{normalized_deviation(truth, ann, record.duration_s):.4f}")
    return 0


def resolve_cohort_scale(
    args: argparse.Namespace, settings: ReproSettings | None = None
) -> tuple[int, tuple[float, float]]:
    """Resolve (samples_per_seizure, duration_range_s) for ``cohort``.

    Precedence, per knob: explicit CLI flag > the ``settings`` snapshot
    (:envvar:`REPRO_SAMPLES_PER_SEIZURE` / :envvar:`REPRO_PAPER_DURATIONS`;
    default: :meth:`ReproSettings.from_env`) > ``--paper-scale``'s
    Sec. VI-A values > the CLI's laptop defaults.  Raises ``ValueError``
    on a malformed env value; the range and the sample count are checked
    by the dataset and the work list built from them.
    """
    from .data.sampling import PAPER_DURATION_RANGE_S

    settings = settings or ReproSettings.from_env()
    samples = args.samples
    if samples is None:
        samples = settings.resolve_samples(
            _PAPER_SAMPLES_PER_SEIZURE if args.paper_scale else 1
        )
    fallback = settings.resolve_duration_range(
        PAPER_DURATION_RANGE_S
        if args.paper_scale
        else (_CLI_DURATION_MIN * 60.0, _CLI_DURATION_MAX * 60.0)
    )
    # A single explicit bound keeps the resolved (paper or laptop) value
    # for the other one, so `--paper-scale --duration-max 45` means
    # 30-45 min, not 8-45.
    lo = args.duration_min * 60.0 if args.duration_min is not None else fallback[0]
    hi = args.duration_max * 60.0 if args.duration_max is not None else fallback[1]
    return samples, (lo, hi)


def _parse_patient_ids(text: str) -> list[int] | None:
    """Parse a ``--patients`` filter; ``None`` means the full cohort.

    Raises ``ValueError`` for unparseable ids *and* for lists that parse
    to nothing ("," / ", ,"): a typo'd filter must not run an empty
    cohort successfully.
    """
    if not text.strip():
        return None
    try:
        patient_ids = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        patient_ids = []
    if not patient_ids:
        raise ValueError(f"bad --patients list {text!r}")
    return patient_ids


def _print_report_table(report) -> None:
    """Render the Table I/II-style rollup (shared by cohort and shard)."""
    print(f"{'patient':>7}  {'records':>7}  {'delta_s':>8}  {'d_norm':>7}  "
          f"{'sens':>6}  {'spec':>6}  {'gmean':>6}")
    for row in report.table_rows():
        print(
            f"{row['patient']:>7d}  {row['records']:>7d}  "
            f"{row['median_delta_s']:>8.1f}  {row['median_delta_norm']:>7.4f}  "
            f"{row['sensitivity']:>6.3f}  {row['specificity']:>6.3f}  "
            f"{row['geometric_mean']:>6.3f}"
        )
    print(
        f"cohort: {report.n_records} records, median delta = "
        f"{report.median_delta_s:.1f} s, median delta_norm = "
        f"{report.median_delta_norm:.4f}, gmean = {report.geometric_mean:.3f}"
    )


def _cohort_scale(
    args: argparse.Namespace,
) -> tuple[int, tuple[float, float], list[int] | None]:
    """Resolve the shared cohort scale/filter flags over the environment.

    The single source of truth for every command that must agree with
    ``repro cohort`` on what a set of scale flags means (``cohort`` and
    ``shard plan``/``shard orchestrate`` — byte parity between them
    depends on identical resolution).
    """
    samples, duration_range_s = resolve_cohort_scale(
        args, ReproSettings.from_env()
    )
    return samples, duration_range_s, _parse_patient_ids(args.patients)


def _write_report_json(path: str, report) -> None:
    """Write the canonical report JSON (shared by cohort / shard merge /
    shard orchestrate, whose outputs must stay byte-compatible)."""
    with open(path, "w") as fh:
        fh.write(report.to_json())
    print(f"report JSON written to {path}")


def _cmd_cohort(args: argparse.Namespace) -> int:
    from .data.dataset import SyntheticEEGDataset
    from .engine.checkpoint import DEFAULT_COMPACT_DEAD_LINES, CohortCheckpoint
    from .engine.executor import CohortEngine

    samples, duration_range_s, patient_ids = _cohort_scale(args)
    if args.resume and not args.checkpoint:
        raise ValueError("--resume requires --checkpoint")
    if args.compact and not args.checkpoint:
        raise ValueError("--compact requires --checkpoint")
    checkpoint = None
    if args.checkpoint:
        checkpoint = CohortCheckpoint(args.checkpoint)
        if args.compact:
            result = checkpoint.compact()
            print(
                f"checkpoint {args.checkpoint}: kept {result['kept']} "
                f"outcome(s), dropped {result['dropped']} dead line(s), "
                f"{result['bytes']} bytes"
            )
            return 0
        if checkpoint.path.exists() and not args.resume:
            raise ValueError(
                f"checkpoint {args.checkpoint} already exists; "
                f"pass --resume to continue that run or delete the file "
                f"to start over"
            )
    dataset = SyntheticEEGDataset(duration_range_s=duration_range_s)
    engine = CohortEngine(
        dataset,
        max_workers=args.workers,
        executor=args.executor,
        chunk_s=args.chunk_s if args.chunk_s is not None else DEFAULT_CHUNK_S,
        store_dir=args.store or None,
    )
    resumed_records = checkpoint.outcome_count() if checkpoint else 0
    start = time.perf_counter()
    report = engine.run(
        samples_per_seizure=samples,
        patient_ids=patient_ids,
        max_failures=None if args.max_failures < 0 else args.max_failures,
        checkpoint=checkpoint,
    )
    elapsed = time.perf_counter() - start

    _print_report_table(report)
    if report.n_failures:
        print(
            f"failures: {report.n_failures} record(s) tolerated "
            f"(--max-failures {args.max_failures})",
            file=sys.stderr,
        )
        for failure in report.failures[:10]:
            print(
                f"  task {failure.key}: {failure.error}",
                file=sys.stderr,
            )
    fresh = report.n_records + report.n_failures - resumed_records
    if checkpoint:
        print(
            f"checkpoint: {resumed_records} record(s) restored from "
            f"{args.checkpoint}, {fresh} processed this run"
        )
        if checkpoint.auto_compactions:
            print(
                f"checkpoint: journal auto-compacted (dead-line weight "
                f"reached {DEFAULT_COMPACT_DEAD_LINES})"
            )
    print(
        f"executed in {elapsed:.1f} s ({engine.executor}, "
        f"{engine.effective_workers(fresh)} worker(s))"
    )
    if args.json:
        _write_report_json(args.json, report)
    return 0


def _resolve_shard_cohort(
    args: argparse.Namespace, chunk_s: float | None = None
):
    """Resolve the scale/filter flags into ``(tasks, engine_config)``
    exactly the way ``repro cohort`` would — the planned shards must add
    up to the run a single node would execute.  ``chunk_s`` never
    changes the configuration digest; passing it here only refuses a bad
    value before any plan is written.
    """
    from .data.dataset import SyntheticEEGDataset
    from .engine.executor import CohortEngine
    from .engine.tasks import cohort_tasks

    samples, duration_range_s, patient_ids = _cohort_scale(args)
    dataset = SyntheticEEGDataset(duration_range_s=duration_range_s)
    engine = CohortEngine(
        dataset,
        executor="serial",
        chunk_s=chunk_s if chunk_s is not None else DEFAULT_CHUNK_S,
    )
    tasks = cohort_tasks(
        dataset, samples_per_seizure=samples, patient_ids=patient_ids
    )
    return tasks, engine.config


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    from .engine.sharding import plan_shards, write_plan

    tasks, config = _resolve_shard_cohort(args)
    out_dir = Path(args.out_dir)
    if sorted(out_dir.glob("shard-*.json")):
        raise ValueError(
            f"{out_dir} already contains a shard plan; point "
            f"--out-dir at a fresh directory or delete the old plan"
        )
    specs = plan_shards(tasks, config, args.shards, strategy=args.strategy)
    write_plan(out_dir, specs)
    sizes = ", ".join(str(len(s.tasks)) for s in specs)
    print(
        f"planned {len(specs)} shard(s) ({args.strategy}) over "
        f"{len(tasks)} task(s) -> {out_dir}"
    )
    print(f"shard sizes: {sizes}")
    print(f"work digest: {specs[0].work}")
    print(f"config digest: {specs[0].config}")
    return 0


def _cmd_shard_run(args: argparse.Namespace) -> int:
    from .engine.checkpoint import CohortCheckpoint
    from .engine.sharding import ShardSpec, run_shard

    journal = args.journal or str(Path(args.manifest).with_suffix(".ckpt"))
    spec = ShardSpec.load(args.manifest)
    ckpt = CohortCheckpoint(journal)
    restored = ckpt.outcome_count()
    start = time.perf_counter()
    # Even an empty shard goes through run_shard, which checks the
    # scheduling knobs and the manifest's config digest.
    report = run_shard(
        spec,
        journal=ckpt,
        executor=args.executor,
        max_workers=args.workers,
        chunk_s=args.chunk_s,
        store_dir=args.store or None,
    )
    elapsed = time.perf_counter() - start
    if not spec.tasks:
        print(
            f"shard {spec.shard_index}/{spec.n_shards}: 0 task(s), "
            f"nothing to run"
        )
        return 0
    print(
        f"shard {spec.shard_index}/{spec.n_shards}: {report.n_records} "
        f"record(s) complete ({restored} restored, "
        f"{report.n_records - restored} processed in {elapsed:.1f} s), "
        f"journal {journal}"
    )
    return 0


def _cmd_shard_collect(args: argparse.Namespace) -> int:
    from .engine.sharding import collect_shards, load_plan

    specs = load_plan(args.plan_dir)
    statuses = collect_shards(args.plan_dir, specs=specs)
    print(f"{'shard':>5}  {'tasks':>5}  {'done':>5}  {'missing':>7}  state")
    for status in statuses:
        if status.complete:
            state = "complete"
        elif status.journal.exists():
            state = "partial"
        else:
            state = "not started"
        print(
            f"{status.spec.shard_index:>5d}  {status.total:>5d}  "
            f"{status.done:>5d}  {status.missing:>7d}  {state}"
        )
    done = sum(s.done for s in statuses)
    total = sum(s.total for s in statuses)
    complete = all(s.complete for s in statuses)
    print(
        f"coverage: {done}/{total} record(s) across {len(statuses)} "
        f"shard(s) ({'complete' if complete else 'incomplete'})"
    )
    return 0 if complete else 1


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    from .engine.sharding import load_plan, merge_shards, merged_report

    specs = load_plan(args.plan_dir)
    stats = merge_shards(args.plan_dir, args.out, specs=specs)
    print(
        f"merged {stats['sources']} shard journal(s) into {args.out}: "
        f"{stats['outcomes']} outcome(s), {stats['dropped']} dead line(s) "
        f"dropped"
    )
    if args.report:
        report = merged_report(args.plan_dir, args.out, specs=specs)
        _print_report_table(report)
        _write_report_json(args.report, report)
    return 0


def _cmd_shard_orchestrate(args: argparse.Namespace) -> int:
    from .engine.sharding import (
        ShardLauncher,
        load_plan,
        orchestrate,
        plan_shards,
        write_plan,
    )

    tasks, config = _resolve_shard_cohort(args, chunk_s=args.chunk_s)
    out_dir = Path(args.out_dir)
    launch = {
        "jobs": args.jobs,
        "shard_workers": args.shard_workers,
        "executor": args.executor,
        "store_dir": args.store or None,
        "chunk_s": args.chunk_s,
        "fail_fast": not args.keep_going,
    }
    # The launcher refuses bad knobs on construction: do it before a
    # plan is written, so a bad value leaves no manifest behind.
    ShardLauncher(out_dir, **launch)
    specs = plan_shards(tasks, config, args.shards, strategy=args.strategy)
    if sorted(out_dir.glob("shard-*.json")):
        # Resume semantics: an existing plan is reused so completed
        # shards are skipped and partial ones continue — but only if
        # it describes exactly this cohort, scale, and partition; a
        # mismatched directory must never be silently overwritten.
        existing = load_plan(out_dir)
        if existing != specs:
            raise ValueError(
                f"{out_dir} holds a plan for a different "
                f"run (cohort, scale, shard count, or strategy "
                f"differ); point --out-dir elsewhere or delete it"
            )
        specs = existing
    else:
        write_plan(out_dir, specs)
    start = time.perf_counter()
    report, summary = orchestrate(out_dir, specs=specs, **launch)
    elapsed = time.perf_counter() - start
    launched = summary["launched"]
    print(
        f"orchestrated {summary['shards']} shard(s) in {elapsed:.1f} s: "
        f"launched {len(launched)} ({launched}), resumed "
        f"{summary['resumed']}, merged {summary['sources']} journal(s) "
        f"-> {summary['merged']}"
    )
    _print_report_table(report)
    if args.json:
        _write_report_json(args.json, report)
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    handlers = {
        "plan": _cmd_shard_plan,
        "run": _cmd_shard_run,
        "collect": _cmd_shard_collect,
        "merge": _cmd_shard_merge,
        "orchestrate": _cmd_shard_orchestrate,
    }
    return handlers[args.shard_command](args)


def _cmd_store(args: argparse.Namespace) -> int:
    from .engine.store import DiskFeatureStore

    if not os.path.isdir(args.dir):
        raise ValueError(f"no feature store directory at {args.dir}")
    store = DiskFeatureStore(args.dir)
    if args.store_command == "stats":
        print(f"store: {args.dir}")
        print(f"entries: {len(store)}")
        print(f"bytes: {store.total_bytes()}")
    elif args.store_command == "verify":
        counts = store.verify()
        print(
            f"{counts['entries']} entries ({counts['bytes']} bytes): "
            f"{counts['ok']} ok, {counts['corrupt']} corrupt, "
            f"{counts['stale']} stale"
        )
        if counts["corrupt"] or counts["stale"]:
            print(
                "verification failed: run `repro store gc` to remove "
                "broken entries",
                file=sys.stderr,
            )
            return 1
    elif args.store_command == "gc":
        result = store.gc(max_bytes=args.max_bytes)
        print(
            f"removed {result['removed_corrupt']} corrupt and "
            f"{result['removed_stale']} stale entries, evicted "
            f"{result['evicted']} over the size bound; "
            f"{result['entries']} entries ({result['bytes']} bytes) kept"
        )
    else:  # clear
        removed = store.clear()
        print(f"removed {removed} entries from {args.dir}")
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    from .platform.battery import WearablePlatform

    platform = WearablePlatform()
    if args.labeling_only:
        budget = platform.labeling_only_budget(args.seizures_per_day)
    else:
        budget = platform.full_system_budget(args.seizures_per_day)
    est = platform.lifetime(budget)
    for row in budget.table_rows():
        print(f"{row['task']:22s} {row['current_ma']:8.3f} mA  "
              f"{row['duty_cycle_pct']:6.2f} %  -> {row['avg_current_ma']:7.4f} mA "
              f"({row['energy_pct']:5.2f} % of energy)")
    print(f"battery lifetime: {est.hours:.2f} h = {est.days:.2f} days")
    return 0


def _stable_telemetry(snapshot: dict) -> dict:
    """The deterministic slice of a telemetry snapshot — counters only,
    wall-clock latency measurements excluded — so ``--json`` output is
    byte-stable run to run for the same seeded input.  Applies at every
    level: a merged fleet snapshot's per-shard breakdowns are stripped
    the same way."""
    body = {k: v for k, v in snapshot.items() if k != "latency"}
    if "shards" in body:
        body["shards"] = [_stable_telemetry(s) for s in body["shards"]]
    return body


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from .data.dataset import SyntheticEEGDataset
    from .service.manager import SessionManager
    from .service.replayer import Replayer

    manager = SessionManager(_service_config(args))
    replayer = Replayer(manager, speed=args.speed, chunk_s=args.chunk_s)
    dataset = SyntheticEEGDataset(
        duration_range_s=(args.duration_min * 60.0, args.duration_max * 60.0)
    )
    source = dataset.sample_source(args.patient, args.seizure, args.sample)
    report = replayer.replay(source)
    if args.json:
        body = {
            "replay": report.to_dict(),
            "telemetry": _stable_telemetry(manager.snapshot()),
        }
        print(json.dumps(body, sort_keys=True, separators=(",", ":")))
        return 0
    positives = sum(d.positive for d in report.decisions)
    latency = manager.telemetry.latency()
    print(f"record: {report.record_id} ({report.media_s:.0f} s media)")
    pace = (
        f"{report.speed:g}x pacing, max lag {report.max_lag_s * 1e3:.1f} ms"
        if report.speed
        else "unpaced"
    )
    print(
        f"replayed {report.chunks} chunk(s) in {report.wall_s:.1f} s "
        f"({pace})"
    )
    print(
        f"decisions: {report.windows} window(s), {positives} positive, "
        f"{report.shed} shed"
    )
    print(
        f"ingest->decision latency: p50 {latency.p50_ms:.3f} ms, "
        f"p95 {latency.p95_ms:.3f} ms, p99 {latency.p99_ms:.3f} ms"
    )
    if report.error:
        print(f"finalize: {report.error}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal as signal_module

    from .api import start_service
    from .service.fleet import ServiceShardPool

    # The one numeric flag no library call owns.  Written so that NaN
    # fails too: it would otherwise time out at once and exit 0.
    if args.max_seconds is not None and not (
        math.isfinite(args.max_seconds) and args.max_seconds > 0
    ):
        raise ValueError("--max-seconds must be positive")
    config = _service_config(args)

    async def wait_for_exit(stop_requested: asyncio.Event) -> None:
        """Block until the deadline or a termination signal — whichever
        comes first — so both paths funnel through the graceful drain."""
        if args.max_seconds is None:  # pragma: no cover - interactive mode
            await stop_requested.wait()
            return
        try:
            await asyncio.wait_for(
                stop_requested.wait(), timeout=args.max_seconds
            )
        except TimeoutError:
            pass

    async def run() -> dict:
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()

        def request_stop(signame: str) -> None:
            print(
                f"received {signame}, draining sessions before exit",
                file=sys.stderr,
                flush=True,
            )
            stop_requested.set()

        installed = []
        for sig in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(sig, request_stop, sig.name)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix loop: fall back to KeyboardInterrupt
        try:
            server = start_service(config)
            shards = (
                f"{server.n_workers} worker shards, "
                if isinstance(server, ServiceShardPool)
                else ""
            )
            host, port = await server.serve(args.host, args.port)
            print(
                f"repro service listening on {host}:{port} "
                f"({shards}queue depth {config.queue_depth}, "
                f"backpressure {config.backpressure})",
                flush=True,
            )
            try:
                await wait_for_exit(stop_requested)
            finally:
                # stop() drains admitted chunks before shutdown, so a
                # SIGTERM mid-stream still decides them; its final
                # snapshot is the exit report.
                snapshot = await server.stop()
            return snapshot
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    try:
        snapshot = asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - non-unix fallback
        print("interrupted", file=sys.stderr)
        return 0
    if args.json:
        print(
            json.dumps(
                _stable_telemetry(snapshot),
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    else:
        sessions = snapshot["sessions"]
        chunks = snapshot["chunks"]
        print(
            f"served {sessions['opened']} session(s), "
            f"{chunks['ingested']} chunk(s) ingested, "
            f"{chunks['rejected']} rejected, {chunks['shed']} shed"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code (see the module docstring)."""
    args = build_parser().parse_args(argv)
    handlers = {
        "label": _cmd_label,
        "simulate": _cmd_simulate,
        "cohort": _cmd_cohort,
        "shard": _cmd_shard,
        "store": _cmd_store,
        "lifetime": _cmd_lifetime,
        "replay": _cmd_replay,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
