"""Load generation for the service workloads (the benchmark's own layer).

Everything the service sees is made here from the workload seed: the
signal every session streams, the forest detector installed into the
service, and the chunk schedule.  Load comes from this one process, on
at most two threads and two connections.

* :func:`run_live` — open loop, live pace: every session sends one 1 s
  chunk per second on a fixed schedule, whatever the service does.  One
  thread pushes on connection A without waiting for replies; the other
  reads A's replies in order and polls each pushed chunk's session once
  on connection B.  A window's latency runs from the moment its
  completing chunk was *due* to the poll reply that returned it.
* :func:`run_replay` — closed loop, bulk backfill: each of two threads
  streams its sessions' records as 4 s chunks through a
  :class:`~repro.service.client.ServiceClient` and polls each session
  every 16 chunks.
"""

from __future__ import annotations

import heapq
import queue
import socket
import threading
import time

import numpy as np

from repro.data.dataset import SyntheticEEGDataset
from repro.data.records import EEGRecord
from repro.features.extraction import extract_features
from repro.features.paper10 import Paper10FeatureExtractor
from repro.ml.validation import TrainingSet
from repro.selflearning.detector import RealTimeDetector
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.fleet import shard_index_of
from repro.service.framing import (
    PROTOCOL_VERSION,
    chunk_message,
    encode_frame,
    read_frame_sync,
)
from repro.service.session import ForestWindowDetector, batch_window_decisions
from repro.signals.windowing import WindowSpec

import stats

FS = 256.0
SPEC = WindowSpec(4.0, 1.0)
#: Live sessions open with this much signal, so their first live chunk
#: (due within a second of the open) already completes a window.
PREROLL_S = 3
#: Seconds between telemetry scrapes (an operator's dashboard).
SCRAPE_EVERY_S = 5.0
#: The latency limit the live ramp holds (ROADMAP SLO).
SLO_MS = 250.0
#: Seconds between two readings of the live service's CPU time.
METER_S = 1.0
_GOLDEN = 0.6180339887498949


def kernel_backend() -> str:
    """The feature-kernel backend ``repro`` resolves in this environment."""
    from repro.kernels import get_kernel

    return get_kernel("sample_entropy").__module__.rsplit(".", 1)[-1]


def bank_records(seed: int) -> list[EEGRecord]:
    """Two 10-minute seizure records of the seeded cohort: the signal
    bank the live sessions are cut from, and the detector's training set."""
    dataset = SyntheticEEGDataset(seed=seed)
    return [
        dataset.sample_source(p, 0, 0, duration_range_s=(600.0, 600.0)).materialize()
        for p in (1, 8)
    ]


def train_detector(records: list[EEGRecord], seed: int) -> RealTimeDetector:
    """A 50-tree Paper10 forest fitted on the records' expert labels."""
    extractor = Paper10FeatureExtractor()
    values, labels = [], []
    for record in records:
        feats = extract_features(record, extractor, SPEC)
        values.append(feats.values)
        labels.append(
            record.window_labels(SPEC.length_s, SPEC.step_s)[: feats.n_windows]
        )
    training = TrainingSet(
        np.vstack(values),
        np.concatenate(labels).astype(np.int64),
        extractor.feature_names,
    )
    detector = RealTimeDetector(extractor=extractor, n_estimators=50, seed=seed)
    return detector.fit(training)


def reference_decisions(data: np.ndarray, detector: RealTimeDetector) -> list:
    """The batch side of the parity contract over exactly ``data`` (no
    decisions for a stream shorter than one window)."""
    if data.shape[1] < SPEC.length_s * FS:
        return []
    return batch_window_decisions(
        EEGRecord(data=data, fs=FS), ForestWindowDetector(detector), ServiceConfig()
    )


def balanced_id(prefix: str, shard: int, n_shards: int) -> str:
    """The first ``prefix-j`` id that routes to ``shard``."""
    j = 0
    while shard_index_of(f"{prefix}-{j}", n_shards) != shard:
        j += 1
    return f"{prefix}-{j}"


class LiveSignals:
    """Distinct seeded signal per live session: a bank slice at a
    session-specific offset plus session-specific noise, so no two
    chunks the service sees are identical."""

    def __init__(self, bank: list[EEGRecord], seed: int, max_s: float) -> None:
        self.bank = np.concatenate([r.data for r in bank], axis=1)
        self.seed = seed
        self.n = int((PREROLL_S + max_s) * FS)
        self.rms = float(np.sqrt(np.mean(self.bank[:, : int(60 * FS)] ** 2)))

    def session(self, index: int) -> np.ndarray:
        span = self.bank.shape[1] - self.n
        offset = (index * 7919 * int(FS)) % span
        noise = np.random.default_rng([self.seed, index]).normal(
            scale=0.05 * self.rms, size=(self.bank.shape[0], self.n)
        )
        return self.bank[:, offset : offset + self.n] + noise


class _Live:
    """Shared state of one live run (pusher thread + poller thread)."""

    def __init__(self, host, port, signals: LiveSignals) -> None:
        self.signals = signals
        self.push_sock = socket.create_connection((host, port), timeout=60)
        self.push_r = self.push_sock.makefile("rb")
        self.push_sock.sendall(encode_frame({"op": "hello", "version": PROTOCOL_VERSION}))
        if not read_frame_sync(self.push_r).get("ok"):
            raise RuntimeError("hello refused on the push connection")
        self.client = ServiceClient(host, port, timeout=60)
        self.inflight: queue.Queue = queue.Queue()
        self.lock = threading.Lock()
        self.pending: dict[tuple[int, int], tuple[float, int]] = {}
        self.latency_ms: list[list[float]] = []  # per step
        self.events: dict[int, list] = {}
        self.admitted: dict[int, int] = {}  # session -> samples admitted
        self.data: dict[int, np.ndarray] = {}
        self.attempted = 0
        self.failed = 0
        self.refused_steps: set[int] = set()
        self.lag_ms: list[float] = []
        self.error: BaseException | None = None

    def sid(self, index: int) -> str:
        return f"live-{self.signals.seed}-{index}"

    # -- poller thread ---------------------------------------------------
    def poller(self) -> None:
        last_scrape = time.perf_counter()
        try:
            while True:
                entry = self.inflight.get()
                if entry is None:
                    return
                reply = read_frame_sync(self.push_r)
                kind, index = entry[0], entry[1]
                self.attempted += 1
                if reply is None or not reply.get("ok"):
                    self.failed += 1
                    continue
                if kind == "open":
                    continue
                _, _, seq, due, step, n = entry
                if not reply["accepted"]:
                    self.failed += 1
                    self.refused_steps.add(step)
                else:
                    self.admitted[index] = self.admitted.get(index, 0) + n
                events = self.client.poll(self.sid(index))
                done = time.perf_counter()
                self.attempted += 1
                self.events.setdefault(index, []).extend(events)
                with self.lock:
                    self.pending.pop((index, seq), None)
                    if step >= 0:
                        for _ in events:
                            self.latency_ms[step].append((done - due) * 1e3)
                if done - last_scrape >= SCRAPE_EVERY_S:
                    self.client.telemetry()
                    last_scrape = done
        except BaseException as exc:  # noqa: BLE001 - reported by the pusher
            self.error = exc

    # -- pusher (calling thread) ----------------------------------------
    def send(self, frame: dict, entry: tuple) -> None:
        self.inflight.put(entry)
        self.push_sock.sendall(encode_frame(frame))

    def open(self, index: int) -> None:
        data = self.signals.session(index)
        self.data[index] = data
        self.send({"op": "open", "session": self.sid(index)}, ("open", index))
        n = int(PREROLL_S * FS)
        self.send(
            chunk_message(self.sid(index), 0, data[:, :n]),
            ("chunk", index, 0, time.perf_counter(), -1, n),
        )


def run_live(host, port, signals: LiveSignals, base: int, base_s: float,
             factor: float, step_s: float, max_steps: int, cpu,
             first_index: int = 0) -> dict:
    """Hold ``base`` sessions for ``base_s`` seconds, then ramp the session
    count by ``factor`` every ``step_s`` seconds until a step fails (p99
    over the limit, a growing backlog or a refused chunk) or
    ``max_steps`` ramp steps passed.

    ``cpu()`` reads the service's CPU seconds; about every
    :data:`METER_S` the pusher records ``(time, cpu(), media seconds
    sent)`` in the result's ``meter``, so the service's CPU cost per
    media second can be read over any stretch of the run."""
    live = _Live(host, port, signals)
    poller = threading.Thread(target=live.poller, name="live-poller")
    poller.start()
    plan = [(base, base_s)]
    for k in range(1, max_steps + 1):
        plan.append((int(round(base * factor ** k)), step_s))
    heap: list[tuple[float, int, int]] = []
    steps = []
    meter, media_s = [], 0.0
    opened = first_index
    try:
        t_step = next_meter = time.perf_counter()
        for step, (n_sessions, hold_s) in enumerate(plan):
            live.latency_ms.append([])
            while opened < first_index + n_sessions:
                live.open(opened)
                phase = (opened * _GOLDEN) % 1.0
                heapq.heappush(heap, (t_step + phase, opened, 1))
                opened += 1
            t_end = t_step + hold_s
            while heap[0][0] < t_end:
                due, index, seq = heapq.heappop(heap)
                lo = int((PREROLL_S + seq - 1) * FS)
                frame = chunk_message(
                    live.sid(index), seq, live.data[index][:, lo : lo + int(FS)]
                )
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                live.lag_ms.append((sent - due) * 1e3)
                with live.lock:
                    live.pending[(index, seq)] = (due, step)
                live.send(frame, ("chunk", index, seq, due, step, int(FS)))
                media_s += 1.0
                if sent >= next_meter:
                    meter.append((sent, cpu(), media_s))
                    next_meter = sent + METER_S
                heapq.heappush(heap, (due + 1.0, index, seq + 1))
                if live.error is not None:
                    raise live.error
            # Judge the step: chunks still in flight count at their age.
            now = time.perf_counter()
            with live.lock:
                samples = list(live.latency_ms[step])
                backlog = [
                    (now - due) * 1e3 for due, s in live.pending.values() if s == step
                ]
            samples += backlog
            tail = stats.tail_percentile(samples, 99.0)
            p_tail = tail[1] if tail else max(samples, default=0.0)
            passed = (
                p_tail <= SLO_MS
                and len(backlog) <= n_sessions / 2
                and step not in live.refused_steps
            )
            steps.append({
                "sessions": n_sessions, "samples": len(samples),
                "tail_pct": tail[0] if tail else None, "tail_ms": p_tail,
                "backlog": len(backlog), "passed": passed, "end": now,
            })
            t_step = t_end
            if not passed:
                break
    finally:
        live.inflight.put(None)
        poller.join()
    if live.error is not None:
        raise live.error
    # Close every session: trailing decisions complete each stream.
    for index in range(first_index, opened):
        summary = live.client.close(live.sid(index))
        live.attempted += 1
        if summary.error:
            live.failed += 1
        live.events.setdefault(index, []).extend(summary.trailing_events)
    live.client.disconnect()
    live.push_sock.close()
    return {
        "steps": steps,
        "meter": meter,
        "base_latency_ms": live.latency_ms[0],
        "lag_ms": live.lag_ms,
        "events": live.events,
        "streamed": {
            i: live.data[i][:, : live.admitted.get(i, 0)] for i in range(first_index, opened)
        },
        "attempted": live.attempted,
        "failed": live.failed,
    }


def run_replay(host, port, records: list[EEGRecord], ids: list[str],
               chunk_s: float = 4.0, poll_every: int = 16) -> dict:
    """One bulk pass: every record streamed as one session, half of them
    on each of two connections; returns wall time, per-chunk latency
    (push sent -> the poll reply carrying its decisions) and decisions."""
    step = int(chunk_s * FS)
    out = {"events": {}, "latency_ms": [], "attempted": 0}
    lock = threading.Lock()
    errors: list[BaseException] = []

    def stream(indices: list[int], scrape: bool) -> None:
        try:
            with ServiceClient(host, port, timeout=60) as client:
                events = {i: [] for i in indices}
                waiting = {i: [] for i in indices}
                latency, attempted = [], 0
                for i in indices:
                    client.open(ids[i])
                    attempted += 1
                n_chunks = {i: -(-records[i].data.shape[1] // step) for i in indices}
                last_scrape = time.perf_counter()
                for k in range(max(n_chunks.values())):
                    if scrape and time.perf_counter() - last_scrape >= SCRAPE_EVERY_S:
                        client.telemetry()
                        attempted += 1
                        last_scrape = time.perf_counter()
                    for i in indices:
                        if k >= n_chunks[i]:
                            continue
                        waiting[i].append(time.perf_counter())
                        chunk = records[i].data[:, k * step : (k + 1) * step]
                        result = client.push(ids[i], chunk, seq=k)
                        attempted += 1
                        if not result.accepted:
                            raise RuntimeError(f"chunk refused: {result.reason}")
                        if (k + 1) % poll_every == 0:
                            events[i] += client.poll(ids[i])
                            attempted += 1
                            done = time.perf_counter()
                            latency += [(done - t) * 1e3 for t in waiting[i]]
                            waiting[i] = []
                for i in indices:
                    summary = client.close(ids[i])
                    attempted += 1
                    done = time.perf_counter()
                    latency += [(done - t) * 1e3 for t in waiting[i]]
                    if summary.error:
                        raise RuntimeError(f"close failed: {summary.error}")
                    events[i] += list(summary.trailing_events)
            with lock:
                out["events"].update(events)
                out["latency_ms"] += latency
                out["attempted"] += attempted
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    half = len(records) // 2
    threads = [
        threading.Thread(target=stream, args=(list(range(0, half)), True)),
        threading.Thread(target=stream, args=(list(range(half, len(records))), False)),
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out["wall_s"] = time.perf_counter() - start
    if errors:
        raise errors[0]
    return out


def replay_records(seed: int) -> list[EEGRecord]:
    """The 8 seeded backfill records (5-6.5 min each, ~46 media-min)."""
    dataset = SyntheticEEGDataset(seed=seed)
    events = [e for e in dataset.seizure_events() if e.duration_s < 140.0][:8]
    return [
        dataset.sample_source(
            e.patient_id, e.seizure_index, 0, duration_range_s=(300.0, 390.0)
        ).materialize()
        for e in events
    ]
