"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``cohort-cold``     serial ``CohortEngine`` on the baseline cohort, no store
``cohort-warm``     the same cohort read back from a prefilled ``DiskFeatureStore``
``service-live``    ``repro serve``, live-paced open-loop sessions, capacity ramp
``service-replay``  ``repro serve``, bulk backfill of 8 records (2 workers traced)

Every run checks its outputs against the repository's parity contracts
before it reports; a run that breaks parity prints ``"correct": false``
with no metrics and exits 1.  The last stdout line is the result object;
the line before it holds the details (environment, per-step ramp,
sample counts), which are also written under ``.perfbench/results``.
With ``--trace 1`` the run measures the same work untraced and traced
and reports the per-layer metrics instead.

The system under test runs pinned to one core next to the host-speed
probe (``hostspeed.py``), the load generator on the other cores; CPU
times and set-up times are rescaled to the probe's nominal core.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import gates
import hostspeed
import layers
import stats
import sut

UNITS = {name: unit for name, unit, _ in layers.PER_LAYER}

DEFAULT_SEED = 2019
#: Set-ups timed per run (the last one is measured): three where set-up
#: is an import, two where it is a cohort prefill or a service start.
SETUPS = {"cold": 3, "warm": 2, "live": 2, "replay": 2}
SERVE_READY = "repro service listening on"

# service-live shape: a base hold for the run's seconds, then a geometric
# ramp with steps of a sixth of them.
LIVE_BASE_SESSIONS = 30
LIVE_FACTOR = 1.3
LIVE_MAX_STEPS = 8
# service-replay shards: two would contend with the load generator for
# a 2-core host's cores, and the pool's start (timed twice per run) does
# not fit the run budget, so the measured runs use the single-process
# service; the traced run uses a 2-worker pool to cover service.fleet.
REPLAY_WORKERS = 1
REPLAY_TRACED_WORKERS = 2


def environment(kernel_backend: str, nproc: int) -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    sha = "unknown"  # an exported checkout carries no history
    if os.path.isdir(os.path.join(sut.ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=sut.ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(sut.SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, sut.SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": sha,
        "src_digest": digest.hexdigest()[:16],
        "src_lines": lines,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend,
    }


def _slowdown(traced: list[dict], untraced: list[dict]) -> float:
    """Median traced pass time over median untraced pass time, minus one."""
    return (
        stats.median([p["wall_s"] for p in traced])
        / stats.median([p["wall_s"] for p in untraced]) - 1.0
    )


# ---------------------------------------------------------------------------
# cohort workloads
# ---------------------------------------------------------------------------
def _trace_dir(name: str, on: bool) -> str | None:
    """An emptied span directory for a traced run."""
    if not on:
        return None
    path = sut.work_dir("trace", name)
    shutil.rmtree(path)
    os.makedirs(path)
    return path


def setup_detail(setups: list[tuple[float, float]], probe) -> tuple[float, dict]:
    """Median set-up time at nominal core speed, from ``(started,
    seconds)`` pairs, and the raw figures for the details line."""
    nominal = [s * probe.speed(t, t + s) for t, s in setups]
    return stats.median(nominal), {
        "setup_s_each": [s for _, s in setups], "setup_nominal_s_each": nominal,
    }


def run_cohort(mode: str, args, probe) -> dict:
    trace_dir = _trace_dir(f"cohort-{mode}", args.trace)
    setups = []
    child = None
    for k in range(SETUPS[mode]):
        last = k == SETUPS[mode] - 1
        store = sut.work_dir("store", f"{mode}-{k}")
        shutil.rmtree(store)
        cmd = [
            os.path.join(sut.HERE, "cohort_sut.py"), "--mode", mode,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--store", store,
        ]
        if not last:
            cmd.append("--setup-only")
        elif trace_dir:
            cmd = ["-X", "importtime", *cmd, "--trace", trace_dir, "--min-passes", "4"]
        child = sut.Process(cmd, sut.sut_env(), f"cohort-{mode}-{k}.log", args.sut_cores)
        _, seconds = child.wait_for("READY", timeout=170)
        setups.append((child.started, seconds))
        if not last:
            child.stop(timeout=60)
    out = json.loads(child.finish(timeout=170))

    passes = out["passes"]
    records = passes[0]["records"]
    problems = gates.cohort_gate(passes, out["reports"], out["reference"], mode == "warm")
    attempted = sum(p["records"] + p["failures"] for p in passes)
    failed = sum(p["failures"] for p in passes)

    untraced = [p for p in passes if not p["traced"]]
    per_record = [r for p in untraced for r in p["per_record"]]
    speeds = [probe.speed(r["t0"], r["t1"]) for r in per_record]
    per_cpu_s = [r["media_s"] / (r["cpu_s"] * s) for r, s in zip(per_record, speeds)]
    setup_s, setup_each = setup_detail(setups, probe)
    detail = {
        "passes": len(passes),
        "records_per_pass": records,
        "media_min_per_pass": passes[0]["media_s"] / 60.0,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "cohort_media_min_per_s": stats.median(
            [r["media_s"] / r["wall_s"] for r in per_record]
        ) / 60.0,
        "pass_p50_ms": stats.median([p["wall_s"] for p in untraced]) * 1e3,
        "host_speed_p50": stats.median(speeds),
        **setup_each,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "media_s_per_cpu_s": (stats.median(per_cpu_s), "media-s/cpu-s"),
    }
    if trace_dir:
        traced = [p for p in passes if p["traced"]]
        spans = layers.Spans(trace_dir)
        per_layer = layers.layer_metrics(spans, len(traced), records)
        per_layer.update(
            {f"startup.{k}": v for k, v in sut.import_times(child.stderr_lines()).items()}
        )
        per_layer["loadgen.lag_p99_ms"] = 0.0
        per_layer["loadgen.lag_max_ms"] = 0.0
        per_layer["trace.overhead_frac"] = _slowdown(traced, untraced)
        metrics = per_layer
    return {
        "problems": problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "detail": detail, "kernel_backend": out["kernel_backend"],
    }


# ---------------------------------------------------------------------------
# service workloads
# ---------------------------------------------------------------------------
class Served:
    """A ``repro serve`` process started through the benchmark launcher."""

    def __init__(self, workers: int, tag: str, cores: set[int],
                 trace_dir: str | None = None) -> None:
        cmd = [os.path.join(sut.HERE, "serve_sut.py")]
        if trace_dir:
            cmd = ["-X", "importtime", *cmd]
        cmd += ["serve", "--port", "0", "--workers", str(workers)]
        self.proc = sut.Process(cmd, sut.sut_env(trace_dir), f"serve-{tag}.log", cores)
        line, seconds = self.proc.wait_for(SERVE_READY, timeout=170)
        self.setup = (self.proc.started, seconds)
        address = line[len(SERVE_READY):].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def shards(self) -> list[int]:
        pids = []
        for pid in sut.child_pids(self.proc.pid):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    if b"spawn_main" in fh.read():
                        pids.append(pid)
            except OSError:
                continue
        return pids

    def signal_all(self, sig: int) -> None:
        for pid in [self.proc.pid, *self.shards()]:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass

    def peak_rss_mb(self) -> float:
        return sut.peak_rss_mb([self.proc.pid, *sut.child_pids(self.proc.pid)])

    def cpu_s(self) -> float:
        return sut.cpu_seconds([self.proc.pid, *sut.child_pids(self.proc.pid)])

    def stop(self) -> None:
        code = self.proc.stop(signal.SIGTERM, timeout=60)
        if code != 0:
            raise RuntimeError(f"repro serve exited {code}; see {self.proc.log_path}")


def serve_setups(workers: int, name: str, cores: set[int],
                 trace_dir: str | None) -> tuple[Served, list[tuple[float, float]]]:
    """Start the service ``SETUPS[name]`` times (the last one stays up)."""
    setups = []
    for k in range(SETUPS[name] - 1):
        served = Served(workers, f"{name}-{k}", cores)
        setups.append(served.setup)
        served.stop()
    served = Served(workers, f"{name}-{SETUPS[name] - 1}", cores, trace_dir)
    setups.append(served.setup)
    return served, setups


def run_live(args, probe) -> dict:
    import loadgen
    from repro.service.client import ServiceClient

    bank = loadgen.bank_records(args.seed)
    # One window costs one walk of the forest, whose shape follows its
    # training data; like a deployment's, the model is the same in every
    # run (trained on the default seed's bank) and the seed varies the
    # streams, so the figure does not move with the forest's depth.
    detector = loadgen.train_detector(loadgen.bank_records(DEFAULT_SEED), DEFAULT_SEED)
    # Steps of at least 1 s: every new session's first chunk is due in it.
    base_s, step_s = args.seconds, max(1.0, args.seconds / 6)
    trace_dir = _trace_dir("service-live", args.trace)
    signals = loadgen.LiveSignals(
        bank, args.seed, max_s=base_s + LIVE_MAX_STEPS * step_s + 2
    )

    served, setups = serve_setups(1, "live", args.sut_cores, trace_dir)
    try:
        if trace_dir:
            served.signal_all(signal.SIGUSR2)
        with ServiceClient(served.host, served.port) as client:
            client.swap_detector(detector)
        phases = []
        if trace_dir:
            # Same hold twice: untraced, then traced (no ramp).
            for traced in (False, True):
                served.signal_all(signal.SIGUSR1 if traced else signal.SIGUSR2)
                t0 = time.perf_counter()
                phases.append((loadgen.run_live(
                    served.host, served.port, signals, LIVE_BASE_SESSIONS, base_s,
                    LIVE_FACTOR, step_s, 0, served.cpu_s,
                    first_index=len(phases) * LIVE_BASE_SESSIONS,
                ), (t0, time.perf_counter())))
        else:
            phases.append((loadgen.run_live(
                served.host, served.port, signals, LIVE_BASE_SESSIONS, base_s,
                LIVE_FACTOR, step_s, LIVE_MAX_STEPS, served.cpu_s,
            ), None))
        rss = served.peak_rss_mb()
    finally:
        served.stop()

    problems, attempted, failed = [], 0, 0
    for result, _ in phases:
        attempted += result["attempted"]
        failed += result["failed"]
        for index, data in result["streamed"].items():
            problems += gates.decision_gate(
                f"session {index}", result["events"].get(index, []),
                loadgen.reference_decisions(data, detector),
            )
    result = phases[0][0]
    base = result["base_latency_ms"]
    steps = result["steps"]
    cap = LIVE_BASE_SESSIONS * LIVE_FACTOR ** LIVE_MAX_STEPS
    capacity = stats.capacity(
        [(s["sessions"], s["tail_ms"], s["passed"]) for s in steps],
        loadgen.SLO_MS, cap,
    )
    p99 = stats.tail_percentile(base, 99.0)
    # CPU cost per media second of every metered second of the base hold.
    hold = [m for m in result["meter"] if m[0] <= steps[0]["end"]]
    speeds = [probe.speed(a[0], b[0]) for a, b in zip(hold, hold[1:])]
    per_cpu_s = [
        (b[2] - a[2]) / ((b[1] - a[1]) * s) for a, b, s in zip(hold, hold[1:], speeds)
    ]
    setup_s, setup_each = setup_detail(setups, probe)
    detail = {
        "live_capacity_sessions": None if trace_dir else capacity,
        "live_p50_ms": stats.median(base),
        "live_p99_ms": p99[1] if p99 else None,
        "live_p99_percentile": p99[0] if p99 else None,
        "base_samples": len(base),
        "base_sessions": LIVE_BASE_SESSIONS,
        "ramp": steps,
        "loadgen_lag_p99_ms": stats.tail_percentile(result["lag_ms"], 99.0),
        "hold_media_s_per_cpu_s": per_cpu_s,
        "host_speed_p50": stats.median(speeds),
        **setup_each,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "media_s_per_cpu_s": (stats.median(per_cpu_s), "media-s/cpu-s"),
    }
    if trace_dir:
        traced, window = phases[1]
        spans = layers.Spans(trace_dir, windows=[window])
        per_layer = layers.layer_metrics(spans, 1)
        per_layer.update({
            f"startup.{k}": v for k, v in sut.import_times(served.proc.stderr_lines()).items()
        })
        lag = traced["lag_ms"]
        per_layer["loadgen.lag_p99_ms"] = layers.tail(lag, 99.0)
        per_layer["loadgen.lag_max_ms"] = max(lag)
        per_layer["trace.overhead_frac"] = (
            stats.median(traced["base_latency_ms"]) / stats.median(base) - 1.0
        )
        metrics = per_layer
    return {
        "problems": problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "detail": detail, "kernel_backend": loadgen.kernel_backend(),
    }


def run_replay(args, probe) -> dict:
    import loadgen
    from repro.exceptions import ServiceError
    from repro.service.client import ServiceClient

    records = loadgen.replay_records(args.seed)
    detector = loadgen.train_detector(records[:2], args.seed)
    references = [loadgen.reference_decisions(r.data, detector) for r in records]
    media_s = sum(r.data.shape[1] for r in records) / loadgen.FS
    trace_dir = _trace_dir("service-replay", args.trace)
    workers = REPLAY_TRACED_WORKERS if trace_dir else REPLAY_WORKERS
    # The traced fleet's shards get every core, as a user's would.
    cores = args.sut_cores | args.load_cores if workers > 1 else args.sut_cores

    served, setups = serve_setups(workers, "replay", cores, trace_dir)
    passes, problems, attempted, failed = [], [], 0, 0
    windows = []
    try:
        if trace_dir:
            served.signal_all(signal.SIGUSR2)
        with ServiceClient(served.host, served.port) as client:
            client.swap_detector(detector)
            if trace_dir and workers > 1:
                # Restart-to-ready: SIGKILL one shard while the parent
                # traces, then reach it again through a session routed there.
                os.kill(served.proc.pid, signal.SIGUSR1)
                victim = served.shards()[0]
                os.kill(victim, signal.SIGKILL)
                for shard in range(workers):
                    session = loadgen.balanced_id("probe", shard, workers)
                    client.open(session)
                    client.close(session)
                served.signal_all(signal.SIGUSR2)
        started = time.perf_counter()
        while (
            time.perf_counter() - started < args.seconds
            or len(passes) < (4 if trace_dir else 2)
        ):
            traced = bool(trace_dir) and len(passes) % 2 == 1
            if trace_dir:
                served.signal_all(signal.SIGUSR1 if traced else signal.SIGUSR2)
            ids = [
                loadgen.balanced_id(f"replay-{args.seed}-p{len(passes)}-r{i}", i % workers, workers)
                for i in range(len(records))
            ]
            t0, cpu0 = time.perf_counter(), served.cpu_s()
            try:
                out = loadgen.run_replay(served.host, served.port, records, ids)
            except (RuntimeError, ServiceError) as exc:
                problems.append(f"pass {len(passes)}: {exc}")
                failed += 1
                break
            t1, cpu_s = time.perf_counter(), served.cpu_s() - cpu0
            if traced:
                windows.append((t0, t1))
            attempted += out["attempted"]
            for i, ref in enumerate(references):
                problems += gates.decision_gate(
                    f"pass {len(passes)} record {i}", out["events"][i], ref
                )
            passes.append({
                "t0": t0, "t1": t1, "wall_s": out["wall_s"], "cpu_s": cpu_s,
                "traced": traced, "latency_ms": out["latency_ms"],
            })
        rss = served.peak_rss_mb()
    finally:
        served.stop()

    untraced = [p for p in passes if not p["traced"]]
    throughput = [media_s / p["wall_s"] for p in untraced]
    speeds = [probe.speed(p["t0"], p["t1"]) for p in untraced]
    per_cpu_s = [media_s / (p["cpu_s"] * s) for p, s in zip(untraced, speeds)]
    latency = [x for p in untraced for x in p["latency_ms"]]
    setup_s, setup_each = setup_detail(setups, probe)
    detail = {
        "workers": workers,
        "passes": len(passes),
        "media_min_per_pass": media_s / 60.0,
        "replay_media_s_per_s": stats.median(throughput),
        "pass_media_s_per_s": throughput,
        "pass_media_s_per_cpu_s": per_cpu_s,
        "chunk_latency_p50_ms": stats.median(latency),
        "chunk_latency_samples": len(latency),
        "host_speed_p50": stats.median(speeds),
        **setup_each,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "media_s_per_cpu_s": (stats.median(per_cpu_s), "media-s/cpu-s"),
    }
    if trace_dir:
        traced = [p for p in passes if p["traced"]]
        spans = layers.Spans(trace_dir, windows=windows)
        per_layer = layers.layer_metrics(spans, len(traced))
        per_layer.update({
            f"startup.{k}": v for k, v in sut.import_times(served.proc.stderr_lines()).items()
        })
        per_layer["loadgen.lag_p99_ms"] = 0.0
        per_layer["loadgen.lag_max_ms"] = 0.0
        per_layer["trace.overhead_frac"] = _slowdown(traced, untraced)
        metrics = per_layer
    return {
        "problems": problems, "attempted": max(attempted, 1), "failed": failed,
        "metrics": metrics, "detail": detail, "kernel_backend": loadgen.kernel_backend(),
    }


WORKLOADS = {
    "cohort-cold": lambda args, probe: run_cohort("cold", args, probe),
    "cohort-warm": lambda args, probe: run_cohort("warm", args, probe),
    "service-live": run_live,
    "service-replay": run_replay,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(sut.SRC, "repro", "__init__.py")):
        print(f"error: no program to measure under {sut.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, sut.SRC)
    args.sut_cores, args.load_cores = sut.placement()
    os.sched_setaffinity(0, args.load_cores)

    try:
        probe = hostspeed.Probe(args.sut_cores)
        result = WORKLOADS[args.workload](args, probe)
    finally:
        sut.stop_all()
    correct = not result["problems"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(
            result["kernel_backend"], len(args.sut_cores | args.load_cores)
        ),
        "problems": result["problems"][:20], **result["detail"],
        "failed_frac": result["failed"] / max(result["attempted"], 1),
    }
    metrics = {}
    if correct:
        for name, value in result["metrics"].items():
            if isinstance(value, tuple):
                metrics[name] = {"value": value[0], "unit": value[1]}
            else:
                metrics[name] = {"value": value, "unit": UNITS[name]}
    line = {
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }
    path = os.path.join(
        sut.work_dir("results"),
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json",
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": line}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
