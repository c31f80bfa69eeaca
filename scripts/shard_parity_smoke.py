"""Shard-parity smoke test: 1 node vs 3 orchestrated shards, one killed.

Run by the ``shard-parity`` CI job (and runnable locally):

1. baseline:    an uninterrupted single-node ``repro cohort`` run,
   report JSON saved;
2. plan:        the same cohort partitioned into 3 shard manifests via
   ``repro shard plan``;
3. kill:        shard 0 launched alone (``repro shard run``) in its own
   session and SIGKILLed — a real ``kill -9`` of the whole process
   group, workers included — as soon as its journal holds at least one
   completed record;
4. orchestrate: ``repro shard orchestrate`` over the same plan
   directory, which resumes the killed shard from its journal, runs the
   untouched shards, collects, merges, and writes the report;
5. collect:     ``repro shard collect`` must report full coverage;
6. assert:      the orchestrated report is byte-identical to the
   single-node baseline;
7. merge:       ``repro shard merge`` over the same plan writes a second
   merged journal and report; the report must equal the baseline and
   the journal orchestrate's ``merged.ckpt``, byte for byte;
8. resume:      ``repro cohort --checkpoint <merged> --resume`` must
   restore every record and process none.

Exercises the real distributed process tree end to end — manifest
plumbing, per-shard subprocess launch, journal resume across a hard
kill, digest-validated collect, and the merge/report path — which the
in-process suite (tests/test_engine_sharding.py) covers with
deterministic interruption instead.

The baseline and the killed shard run on the engine's default process
pool (2 workers); the orchestrated shards run one worker each.

Usage::

    PYTHONPATH=src python scripts/shard_parity_smoke.py [workdir]
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.engine import CohortCheckpoint
from repro.exceptions import ReproError

#: The cohort under test: patient 8 x 2 samples = 8 records, enough
#: that shard 0 (3 records, contiguous) cannot finish before the kill
#: lands (~0.5 s/record), small enough to keep the smoke under a couple
#: of minutes.
SCALE_ARGS = [
    "--patients", "8",
    "--samples", "2",
    "--duration-min", "5",
    "--duration-max", "6",
]
N_SHARDS = "3"
#: Give up on the shard journal appearing after this long (s).
KILL_DEADLINE_S = 120.0
#: Overall per-subprocess timeout (s).
RUN_TIMEOUT_S = 600.0


def run_cli(*args: str, capture: bool = False) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repro", *args]
    print(f"$ {' '.join(cmd)}")
    proc = subprocess.run(
        cmd, timeout=RUN_TIMEOUT_S, capture_output=capture, text=capture
    )
    if capture:
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
    return proc


def journaled_records(checkpoint: Path) -> int:
    """Outcomes a resume would actually *restore* from the journal.

    Counting via the checkpoint parser (not raw lines) keeps the kill
    gate honest: a partially-flushed trailing line is not a restorable
    record, and killing on it would silently stop exercising the
    resume-with-restored-records path this smoke exists to prove.
    """
    try:
        return CohortCheckpoint(checkpoint).outcome_count()
    except (ReproError, OSError):
        # Mid-write header or unreadable file: nothing restorable yet.
        return 0


def main() -> int:
    workdir = Path(
        sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="shard-")
    )
    workdir.mkdir(parents=True, exist_ok=True)
    baseline = workdir / "baseline.json"
    sharded = workdir / "sharded.json"
    plan_dir = workdir / "plan"
    shard0_journal = plan_dir / "shard-000.ckpt"
    merged = workdir / "merged.ckpt"
    merged_json = workdir / "merged.json"

    print("--- 1. uninterrupted single-node baseline")
    proc = run_cli(
        "cohort", *SCALE_ARGS, "--workers", "2", "--json", str(baseline)
    )
    if proc.returncode != 0:
        print(f"FAIL: baseline run exited {proc.returncode}")
        return 1

    print("--- 2. partition into 3 shard manifests")
    proc = run_cli(
        "shard", "plan", "--out-dir", str(plan_dir),
        "--shards", N_SHARDS, *SCALE_ARGS,
    )
    if proc.returncode != 0:
        print(f"FAIL: shard plan exited {proc.returncode}")
        return 1

    print("--- 3. run shard 0 alone, SIGKILL it mid-flight")
    cmd = [
        sys.executable, "-m", "repro", "shard", "run",
        str(plan_dir / "shard-000.json"), "--workers", "2",
    ]
    print(f"$ {' '.join(cmd)}  (to be killed)")
    # Own session/process group: the SIGKILL takes out any pool workers
    # with the shard, exactly like an OOM-killed or lost machine.
    victim = subprocess.Popen(cmd, start_new_session=True)
    deadline = time.monotonic() + KILL_DEADLINE_S
    while (
        victim.poll() is None
        and journaled_records(shard0_journal) < 1
        and time.monotonic() < deadline
    ):
        time.sleep(0.05)
    if victim.poll() is None:
        os.killpg(victim.pid, signal.SIGKILL)
        victim.wait(timeout=60)
        n = journaled_records(shard0_journal)
        print(f"killed shard 0 with {n} record(s) journaled")
        if n < 1:
            print("FAIL: kill landed before any record was journaled")
            return 1
    else:
        # A very fast machine can finish the shard first; orchestrate
        # below then proves the skip-completed-shard path instead, so
        # warn rather than fail.
        print(
            f"WARNING: shard 0 finished (rc={victim.returncode}) before "
            f"the kill; orchestrate still verified against its journal"
        )

    print("--- 4. orchestrate the whole plan (resumes the killed shard)")
    proc = run_cli(
        "shard", "orchestrate", "--out-dir", str(plan_dir),
        "--shards", N_SHARDS, *SCALE_ARGS,
        "--jobs", "2", "--shard-workers", "1",
        "--json", str(sharded),
    )
    if proc.returncode != 0:
        print(f"FAIL: orchestrate exited {proc.returncode}")
        return 1

    print("--- 5. collect must report full coverage")
    proc = run_cli("shard", "collect", str(plan_dir))
    if proc.returncode != 0:
        print(f"FAIL: collect exited {proc.returncode} after orchestrate")
        return 1

    print("--- 6. compare reports")
    if baseline.read_bytes() != sharded.read_bytes():
        print("FAIL: orchestrated report differs from the single-node run")
        return 1
    print(
        f"OK: orchestrated report is byte-identical to the single-node "
        f"baseline ({len(baseline.read_bytes())} bytes)"
    )

    print("--- 7. shard merge the same plan, compare journal and report")
    proc = run_cli(
        "shard", "merge", str(plan_dir),
        "--out", str(merged), "--report", str(merged_json),
    )
    if proc.returncode != 0:
        print(f"FAIL: shard merge exited {proc.returncode}")
        return 1
    if merged_json.read_bytes() != baseline.read_bytes():
        print("FAIL: shard merge report differs from the single-node run")
        return 1
    if merged.read_bytes() != (plan_dir / "merged.ckpt").read_bytes():
        print("FAIL: shard merge journal differs from orchestrate's")
        return 1
    print("OK: shard merge report and journal match baseline and orchestrate")

    print("--- 8. resume the full cohort from the merged journal")
    n = CohortCheckpoint(merged).outcome_count()
    proc = run_cli(
        "cohort", *SCALE_ARGS, "--workers", "2",
        "--checkpoint", str(merged), "--resume", capture=True,
    )
    if proc.returncode != 0:
        print(f"FAIL: resumed cohort exited {proc.returncode}")
        return 1
    expected = f"{n} record(s) restored from {merged}, 0 processed this run"
    if n != 8 or expected not in proc.stdout:
        print(f"FAIL: expected {expected!r} with 8 records restored")
        return 1
    print(f"OK: the merged journal resumes all {n} records, none processed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
