"""Record-level run checkpointing: an append-only outcome journal.

The PR 2 disk feature store makes a killed run cheap to *re-extract*;
this module makes it cheap to *re-run*.  :class:`CohortCheckpoint`
journals every successfully processed :class:`RecordOutcome` to an
append-only JSONL file as the executor streams results back, so a run
killed after N records resumes by skipping those N tasks outright — the
merged report is byte-identical to an uninterrupted run because every
outcome is a pure function of its task coordinates and the engine sorts
on them at merge time.

File format
-----------
Line 1 is a header naming the journal format version plus two digests:
the *work digest* (over the exact task list) and the *config digest*
(over the dataset and pipeline that fix every outcome).  A
journal written by a different work list or configuration is rejected
with :class:`~repro.exceptions.CheckpointError` — silently merging it
could fabricate a report no single run ever produced.  Each following
line carries one outcome dict; every line (header included) embeds a
checksum over its own canonical JSON.

Durability rules (mirroring :mod:`repro.engine.store`):

* **Atomic line appends** — each outcome is one ``write()`` of a
  complete ``\\n``-terminated line, flushed to the OS before the next
  task's result is awaited.  A crash mid-write leaves at most one
  partial trailing line.
* **Load-or-recompute** — a truncated, corrupted, or checksum-failing
  outcome line is dropped (that task just re-runs); a damaged or
  stale-version *header* that still names our kind resets the whole
  journal (everything re-runs).  A broken checkpoint can cost time,
  never correctness.  A non-empty file that is *not* a cohort
  checkpoint is refused outright — resetting it would destroy someone
  else's data.
* **Failures are never journaled** — a failure outcome is deterministic
  for a poisoned record but transient for an exhausted machine, so
  resumed runs always retry failed tasks.  Deterministic failures
  reproduce identically (keeping the parity contract); transient ones
  heal for free.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import asdict, fields
from pathlib import Path

from ..exceptions import CheckpointError
from .report import RecordOutcome

__all__ = [
    "DEFAULT_COMPACT_DEAD_LINES",
    "CohortCheckpoint",
    "config_digest",
    "work_list_digest",
]

#: Dead-line weight (corrupt / duplicate / superseded journal lines seen
#: at load time) past which :meth:`CohortCheckpoint.begin` compacts the
#: journal before appending.  High enough that a normally-killed run
#: (at most one partial trailing line) never pays a rewrite; low enough
#: that a journal shared or re-killed dozens of times cannot grow
#: unboundedly dead.
DEFAULT_COMPACT_DEAD_LINES = 64

#: Journal kind tag: a non-empty ``--checkpoint`` file whose first line
#: does not carry it is treated as foreign data and refused (never
#: truncated), while damage to a file that *does* carry it degrades to
#: recompute.
_KIND = "repro-cohort-checkpoint"


def _line_checksum(payload: dict) -> str:
    """Checksum over the canonical (sorted, checksum-less) line JSON."""
    canonical = json.dumps(
        {k: v for k, v in payload.items() if k != "checksum"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def _emit_line(payload: dict) -> str:
    payload = dict(payload)
    payload["checksum"] = _line_checksum(payload)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _header_line(work_digest: str | None, config_digest: str | None) -> str:
    """A journal's first line: its kind, format version and run digests."""
    return _emit_line(
        {
            "kind": _KIND,
            "version": CohortCheckpoint.VERSION,
            "work": work_digest,
            "config": config_digest,
        }
    )


def _write_journal(
    path: Path,
    work_digest: str | None,
    config_digest: str | None,
    outcomes: dict[tuple[int, int, int], RecordOutcome],
    failure: str,
) -> int:
    """Write a whole journal atomically: the header, then one line per
    outcome in task order, to a temp file renamed over ``path`` (a crash
    mid-write leaves any old file intact).  Returns the size in bytes;
    an OS error removes the temp file and raises
    ``CheckpointError(f"{failure}: {exc}")``."""
    lines = [_header_line(work_digest, config_digest)]
    lines += [
        _emit_line({"outcome": asdict(outcomes[key])}) for key in sorted(outcomes)
    ]
    blob = "".join(lines).encode()
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise CheckpointError(f"{failure}: {exc}")
    return len(blob)


def _is_checkpoint_header(raw: str) -> bool:
    """Lenient kind probe: does this line even *claim* to be a cohort
    checkpoint header?  Deliberately ignores the checksum — a bit-flipped
    header of our own journal must still read as ours (reset), while a
    user's unrelated JSONL/CSV/prose file must not (refused).
    """
    try:
        payload = json.loads(raw)
    except ValueError:
        return False
    return isinstance(payload, dict) and payload.get("kind") == _KIND


def _parse_line(raw: str) -> dict | None:
    """Decode one journal line, or ``None`` for anything unverifiable."""
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("checksum") != _line_checksum(payload):
        return None
    return payload


def work_list_digest(tasks) -> str:
    """Stable digest of the exact work list.

    :class:`~repro.engine.tasks.RecordTask` is a frozen dataclass of
    primitives, so its ``repr`` is stable across processes and sessions;
    the digest pins task identity *and* order (order never changes the
    report, but a reordered list is a different run request and deserves
    a fresh journal).
    """
    return hashlib.blake2b(
        repr(tuple(tasks)).encode(), digest_size=16
    ).hexdigest()


def config_digest(config) -> str:
    """Digest of everything in an :class:`EngineConfig` run that can
    change an outcome: the dataset, plus the fixed pipeline.

    Scheduling knobs (executor kind, worker count, ``chunk_s``, cache
    capacity, store paths) are deliberately excluded: the equivalence
    contract guarantees they cannot change a byte of the report, so a
    checkpoint taken under one of them is valid under any other.
    """
    dataset = config.dataset
    material = repr(
        (
            dataset.patients,
            dataset.fs,
            dataset.seed,
            dataset.duration_range_s,
            # The pipeline the engine always runs (the paper's 10
            # features, 4 s / 1 s windows, the fast Algorithm 1 at grid
            # step 4, 50 % scoring overlap).  These literals were once
            # configuration fields; they stay in the tuple so existing
            # journals and shard manifests keep their config digest.
            "default",
            4.0,
            1.0,
            "fast",
            4,
            0.5,
        )
    )
    return hashlib.blake2b(material.encode(), digest_size=16).hexdigest()


def _outcome_from_dict(data) -> RecordOutcome | None:
    """Rebuild a :class:`RecordOutcome` from a journal line's dict.

    Strict about shape: a journal written by a future field layout (or a
    hand-edited one) must fall back to recompute, never construct a
    half-initialized outcome.
    """
    if not isinstance(data, dict):
        return None
    expected = {f.name for f in fields(RecordOutcome)}
    if set(data) != expected:
        return None
    try:
        return RecordOutcome(**data)
    except TypeError:
        return None


class CohortCheckpoint:
    """Append-only journal of one run's completed record outcomes.

    Parameters
    ----------
    path:
        Journal file location (parent directories created on demand).

    When :meth:`begin` observes at least :data:`DEFAULT_COMPACT_DEAD_LINES`
    dead lines (tracked under :attr:`dropped` — the journal's dead-line
    weight), it runs :meth:`compact` before opening for appends, so
    long-lived journals shed kill debris and duplicate appends without an
    operator remembering to.  Shard journals of one plan combine into a
    full-run journal through :func:`repro.engine.sharding.merge_shards`.

    Usage (what :meth:`CohortEngine.run` does internally)::

        journal = CohortCheckpoint(path)
        done = journal.begin(work_list_digest(tasks), config_digest(cfg))
        try:
            for outcome in stream_of_results:
                journal.record(outcome)
        finally:
            journal.close()
    """

    #: Journal format version.  Bump on any layout change: old journals
    #: then reset (every task re-runs) rather than being misread.
    VERSION = 1

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._handle: io.TextIOBase | None = None
        #: Dead-line weight of the most recent scan: outcome lines a
        #: resume would not restore (truncated/corrupt/duplicate).
        self.dropped = 0
        #: Outcomes the last :meth:`begin` restored (what a resume's
        #: "N record(s) restored" reports, without a second scan).
        self.restored = 0
        #: Automatic compactions triggered by :meth:`begin`.
        self.auto_compactions = 0
        #: Failed appends (disk full, mount lost mid-run): the run kept
        #: going, only that outcome's durability was lost.
        self.write_errors = 0

    # ------------------------------------------------------------------
    def _scan(
        self,
    ) -> tuple[dict | None, dict[tuple[int, int, int], RecordOutcome]]:
        """Parse the whole journal: ``(header, restorable outcomes)``.

        The single source of truth for what a resume restores —
        :meth:`load` and :meth:`outcome_count` both build on it, so the
        CLI's "N record(s) restored" can never disagree with the engine.

        ``header`` is ``None`` for a missing/empty file or a damaged/
        stale-version header *of our own kind* (the journal resets).  A
        non-empty file that is not a cohort checkpoint at all — wrong
        kind, or bytes that do not even decode — raises
        :class:`CheckpointError`: overwriting a user's unrelated file
        would be data loss, not recovery.  Outcome lines that a resume
        would not restore (corrupt, foreign shape, journaled failures,
        duplicate task keys) are counted under :attr:`dropped` — the
        journal's current dead-line weight (reset per scan, so repeated
        probes never inflate it).
        """
        self.dropped = 0
        try:
            blob = self.path.read_bytes()
        except (FileNotFoundError, OSError):
            return None, {}
        lines = blob.splitlines()
        if not lines:
            return None, {}
        try:
            first = lines[0].decode()
        except UnicodeDecodeError:
            raise self._foreign_file_error()
        if not _is_checkpoint_header(first):
            raise self._foreign_file_error()
        header = _parse_line(first)
        if header is None or header.get("version") != type(self).VERSION:
            # Our kind, but a damaged or stale-version header: the whole
            # journal resets (every task re-runs).
            return None, {}
        done: dict[tuple[int, int, int], RecordOutcome] = {}
        for raw_line in lines[1:]:
            try:
                payload = _parse_line(raw_line.decode())
            except UnicodeDecodeError:
                payload = None
            outcome = (
                _outcome_from_dict(payload.get("outcome"))
                if payload is not None
                else None
            )
            if outcome is None or outcome.failed or outcome.key in done:
                # Corrupt line, foreign shape, journaled failure (older
                # tooling), or a duplicate append (two runs sharing one
                # journal): none of these restore — the task re-runs.
                self.dropped += 1
                continue
            done[outcome.key] = outcome
        return header, done

    def _foreign_file_error(self) -> CheckpointError:
        return CheckpointError(
            f"{self.path} exists but is not a cohort checkpoint; "
            f"refusing to overwrite it — delete the file or point "
            f"the checkpoint at a fresh path"
        )

    def load(
        self, work_digest: str, config_digest: str
    ) -> dict[tuple[int, int, int], RecordOutcome]:
        """Read the journal and return completed outcomes keyed by task.

        Raises
        ------
        CheckpointError
            If the journal is healthy but was written for a different
            work list or engine configuration — or if the path holds a
            non-empty file that is not a cohort checkpoint at all.

        A missing file or a damaged/stale-version header *of our own
        kind* loads as ``{}`` (full recompute); individually broken
        outcome lines are dropped (those tasks re-run).
        """
        header, done = self._scan()
        if header is None:
            return {}
        if (
            header.get("work") != work_digest
            or header.get("config") != config_digest
        ):
            raise CheckpointError(
                f"checkpoint {self.path} was written by a different run "
                f"(work digest {header.get('work')!r} vs {work_digest!r}, "
                f"config digest {header.get('config')!r} vs "
                f"{config_digest!r}); delete it or point --checkpoint at "
                f"a fresh path"
            )
        return done

    def begin(
        self, work_digest: str, config_digest: str
    ) -> dict[tuple[int, int, int], RecordOutcome]:
        """Load prior outcomes, then open the journal for appending.

        When the existing journal is valid for this run, new outcomes
        append after it; otherwise (missing/corrupt/stale) the file is
        rewritten with a fresh header.  Digest mismatches raise before
        anything is touched on disk.

        When the load observes at least :data:`DEFAULT_COMPACT_DEAD_LINES`
        dead lines, the journal is compacted first (the engine's automatic
        cadence): the dead weight a kill or duplicate append left behind
        is rewritten away exactly when it is next used, never while
        *this* journal holds the file open.  Like every journal write,
        this assumes the single-writer contract — one live run per
        journal file (runs sharing a journal *sequentially* is fine and
        is where duplicate appends come from; a concurrently-live
        second writer would keep appending to the pre-compaction inode
        after the atomic replace, losing those appends' durability).
        The engine's own callers honor this: each run and each shard
        journals to its own file.
        """
        done = self.load(work_digest, config_digest)
        self.restored = len(done)
        if self.dropped >= DEFAULT_COMPACT_DEAD_LINES:
            # dropped > 0 implies a valid same-digest header (a reset or
            # foreign journal never counts dead lines), so compaction is
            # safe and preserves exactly what the load restored.  It is
            # also only an optimization over derived data: if the
            # rewrite itself fails (read-only tree, disk at quota), the
            # run must still proceed exactly as it would have without
            # the cadence — appends are best-effort, never the run.
            try:
                self.compact()
                self.auto_compactions += 1
            except CheckpointError:
                pass
        header = _header_line(work_digest, config_digest)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if done or self._has_valid_header(header):
                self._handle = open(self.path, "a")
                # A crash mid-write can leave a partial trailing line;
                # give it its own newline so the next append starts a
                # fresh line (the partial one fails its checksum at
                # load and is dropped).
                if not self._ends_with_newline():
                    self._handle.write("\n")
                    self._handle.flush()
            else:
                self._handle = open(self.path, "w")
                self._handle.write(header)
                self._handle.flush()
        except OSError as exc:
            # Unopenable journal (read-only tree, path is a directory,
            # disk full at header time) is a configuration error: fail
            # fast and clean *before* any record work is spent.
            raise CheckpointError(
                f"cannot open checkpoint {self.path} for journaling: {exc}"
            )
        return done

    def _ends_with_newline(self) -> bool:
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    return True
                fh.seek(-1, os.SEEK_END)
                return fh.read(1) == b"\n"
        except OSError:
            return True

    def _has_valid_header(self, header_line: str) -> bool:
        """True when the on-disk file already starts with this header
        (an empty-but-started journal must not be rewritten mid-run by a
        concurrent resume probe).  Binary read: a text-mode readline
        decodes a whole buffer chunk, which can trip over unrelated
        bytes further into the file."""
        try:
            with open(self.path, "rb") as fh:
                return fh.readline() == header_line.encode()
        except OSError:
            return False

    def record(self, outcome: RecordOutcome) -> None:
        """Append one completed outcome (failures are skipped, so they
        retry on resume) and flush it to the OS immediately.

        Appends are best-effort once the run is under way: losing the
        disk mid-run (ENOSPC, yanked mount) costs durability — counted
        under :attr:`write_errors` — never the run itself, mirroring
        :meth:`DiskFeatureStore.save`.
        """
        if self._handle is None:
            raise CheckpointError(
                f"checkpoint {self.path} is not open for journaling; "
                f"call begin() first"
            )
        if outcome.failed:
            return
        try:
            self._handle.write(_emit_line({"outcome": asdict(outcome)}))
            self._handle.flush()
        except OSError:
            self.write_errors += 1

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                self.write_errors += 1
            self._handle = None

    def __enter__(self) -> "CohortCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def compact(self) -> dict[str, int]:
        """Rewrite the journal from its parsed outcomes.

        A long-lived journal accretes dead weight: the partial trailing
        line a kill leaves behind, duplicate appends from runs sharing
        one file, outcome lines of superseded shapes.  Compaction
        re-emits exactly what a resume would restore — the valid header
        (work/config digests preserved verbatim) plus one line per
        restorable outcome in canonical task order — via an atomic
        temp-write-then-rename, so a crash mid-compact leaves the old
        journal intact.

        Returns ``{"kept", "dropped", "bytes"}``.  Raises
        :class:`CheckpointError` for a journal that is currently open
        for appending, a missing/reset journal (nothing trustworthy to
        rewrite), or a file that is not a cohort checkpoint at all.
        """
        if self._handle is not None:
            raise CheckpointError(
                f"cannot compact {self.path} while it is open for journaling"
            )
        self.dropped = 0
        header, done = self._scan()
        if header is None:
            raise CheckpointError(
                f"{self.path} has no valid checkpoint header to compact; "
                f"a missing or reset journal re-runs everything anyway"
            )
        size = _write_journal(
            self.path, header.get("work"), header.get("config"), done,
            f"cannot compact checkpoint {self.path}",
        )
        return {"kept": len(done), "dropped": self.dropped, "bytes": size}

    # ------------------------------------------------------------------
    def outcome_count(self) -> int:
        """Completed outcomes a resume would actually restore
        (diagnostics/CLI).

        Shares :meth:`_scan` with :meth:`load`, so the count honors the
        same gates — header validity, failed outcomes, duplicate task
        keys — and can never disagree with an actual resume.  Like
        :meth:`load`, raises :class:`CheckpointError` for a file that
        is not a cohort checkpoint.
        """
        _, done = self._scan()
        return len(done)
