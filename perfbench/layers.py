"""Per-layer metrics from the span dumps of one traced run.

Every metric is derived from spans recorded at the boundary of a
``repro`` layer (see ``layertrace.install``).  Totals are reported per
*unit* of work, a fixed amount per workload: one cohort pass, one replay
pass, or one live hold.  A layer that does no work in a workload reports
zero.
"""

from __future__ import annotations

import glob
import os

import layertrace
import stats

#: Kernels ``Paper10FeatureExtractor.extract_batch`` resolves by name.
KERNELS = (
    "dwt_details", "band_powers", "permutation_entropy", "renyi_entropy",
    "sample_entropy",
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("data.synth_s", "s", "lower"),
    ("data.synth_passes", "count", "lower"),
    ("engine.digest_s", "s", "lower"),
    ("engine.extract_self_s", "s", "lower"),
    ("engine.score_s", "s", "lower"),
    ("engine.cache_misses", "count", "lower"),
    ("engine.store_hits", "count", "higher"),
    ("engine.store_load_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.windows", "count", "lower"),
    ("kernels.windows_per_call", "count", "higher"),
    ("kernels.extract_batch_s", "s", "lower"),
    *[(f"kernels.{k}_s", "s", "lower") for k in KERNELS],
    ("core.label_s", "s", "lower"),
    ("ml.score_s", "s", "lower"),
    ("ml.score_calls", "count", "lower"),
    ("ml.rows_per_call", "count", "higher"),
    ("framing.encode_us", "us", "lower"),
    ("framing.decode_us", "us", "lower"),
    ("framing.bytes_per_chunk", "B", "lower"),
    ("admission.screen_us", "us", "lower"),
    ("admission.denials", "count", "lower"),
    ("manager.ingest_us", "us", "lower"),
    ("manager.queue_wait_ms_p50", "ms", "lower"),
    ("manager.queue_wait_ms_p99", "ms", "lower"),
    ("manager.pump_ms", "ms", "lower"),
    ("manager.busy_frac", "ratio", "lower"),
    ("manager.queue_high_water", "count", "lower"),
    ("ingest.poll_wait_ms_p50", "ms", "lower"),
    ("ingest.poll_wait_ms_p99", "ms", "lower"),
    ("fleet.hop_ms_p50", "ms", "lower"),
    ("fleet.hop_ms_p99", "ms", "lower"),
    ("fleet.journal_chunks", "count", "lower"),
    ("fleet.spawn_to_ready_s", "s", "lower"),
    ("fleet.restart_to_ready_s", "s", "lower"),
    ("telemetry.snapshot_ms", "ms", "lower"),
    ("telemetry.snapshot_bytes", "B", "lower"),
    ("telemetry.merge_ms", "ms", "lower"),
    ("startup.import_s", "s", "lower"),
    ("startup.import_scipy_s", "s", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.lag_max_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def tail(values, q):
    """``q``-th percentile under the ten-beyond rule, else the highest
    percentile that has it; 0 without samples."""
    exact = stats.percentile(values, q)
    if exact is not None:
        return exact
    fallback = stats.tail_percentile(values, q)
    if fallback is not None:
        return fallback[1]
    return max(values, default=0.0)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


class Spans:
    """All spans of a traced run, flattened across processes."""

    def __init__(self, directory: str, windows=None) -> None:
        #: name -> list of (duration, self time, attrs, parent name, parent attrs)
        self.by_name: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.busy_wall = 0.0
        for path in sorted(glob.glob(os.path.join(directory, "*.jsonl"))):
            header, spans = layertrace.read_dump(path)
            for name, n in header["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + n
            index = {s[0]: s for s in spans}
            selves = stats.self_times({s[0]: (s[2], s[3], s[4]) for s in spans})
            has_pump = False
            for sid, name, start, end, parent, _rid, attrs in spans:
                keep = name in ("fleet.start", "fleet.restart") or windows is None or any(
                    lo <= start < hi for lo, hi in windows
                )
                if not keep:
                    continue
                has_pump |= name == "manager.pump"
                p = index.get(parent)
                self.by_name.setdefault(name, []).append((
                    end - start, selves[sid], attrs or {},
                    p[1] if p else None, (p[6] or {}) if p else {},
                ))
            if has_pump:
                # Traced wall time of a process that decides chunks.
                for lo, hi in header["intervals"]:
                    if hi is None:
                        continue
                    if windows is None:
                        self.busy_wall += hi - lo
                    else:
                        self.busy_wall += sum(
                            max(0.0, min(hi, w_hi) - max(lo, w_lo))
                            for w_lo, w_hi in windows
                        )

    def rows(self, name):
        return self.by_name.get(name, [])

    def total_self(self, name) -> float:
        return sum(r[1] for r in self.rows(name))

    def durations(self, name) -> list[float]:
        return [r[0] for r in self.rows(name)]


def layer_metrics(spans: Spans, units: int, records_per_unit: int = 0) -> dict:
    """Every per-layer metric, per unit of work where it is a total."""
    units = max(units, 1)
    per = lambda x: x / units  # noqa: E731 - local shorthand
    m: dict[str, float] = {}
    records = units * records_per_unit
    m["data.synth_s"] = per(spans.total_self("data.synth"))
    m["data.synth_passes"] = (
        spans.counts.get("data.synth_passes", 0) / records if records else 0.0
    )
    m["engine.digest_s"] = per(spans.total_self("engine.digest"))
    m["engine.extract_self_s"] = per(spans.total_self("engine.extract"))
    m["engine.score_s"] = per(spans.total_self("engine.score"))
    m["engine.cache_misses"] = per(
        sum(r[2].get("miss", False) for r in spans.rows("engine.cache"))
    )
    m["engine.store_hits"] = per(
        sum(r[2].get("hit", False) for r in spans.rows("engine.store_load"))
    )
    m["engine.store_load_s"] = per(spans.total_self("engine.store_load"))

    batches = spans.rows("kernels.extract_batch")
    windows = sum(r[2].get("windows", 0) for r in batches)
    m["kernels.calls"] = per(len(batches))
    m["kernels.windows"] = per(windows)
    m["kernels.windows_per_call"] = windows / len(batches) if batches else 0.0
    m["kernels.extract_batch_s"] = per(spans.total_self("kernels.extract_batch"))
    for k in KERNELS:
        m[f"kernels.{k}_s"] = per(spans.total_self(f"kernels.{k}"))
    m["core.label_s"] = per(spans.total_self("core.label"))

    scores = spans.rows("ml.score")
    m["ml.score_s"] = per(spans.total_self("ml.score"))
    m["ml.score_calls"] = per(len(scores))
    m["ml.rows_per_call"] = _mean([r[2].get("rows", 0) for r in scores])

    decodes = [r for r in spans.rows("framing.decode") if r[2].get("op") == "chunk"]
    chunk_decodes = spans.rows("framing.decode_chunk")
    m["framing.encode_us"] = _mean(spans.durations("framing.encode")) * 1e6
    m["framing.decode_us"] = (
        (sum(r[0] for r in decodes) + sum(r[0] for r in chunk_decodes))
        / len(chunk_decodes) * 1e6 if chunk_decodes else 0.0
    )
    m["framing.bytes_per_chunk"] = _mean([r[2]["bytes"] for r in decodes])
    m["admission.screen_us"] = _mean(spans.durations("admission.screen")) * 1e6
    m["admission.denials"] = per(
        sum(r[2].get("denied", False) for r in spans.rows("admission.screen"))
    )

    pumps = spans.rows("manager.pump")
    waits = [r[2]["wait"] * 1e3 for r in pumps if r[2].get("wait") is not None]
    m["manager.ingest_us"] = _mean(spans.durations("manager.ingest")) * 1e6
    m["manager.queue_wait_ms_p50"] = tail(waits, 50.0)
    m["manager.queue_wait_ms_p99"] = tail(waits, 99.0)
    m["manager.pump_ms"] = _mean([r[0] for r in pumps]) * 1e3
    m["manager.busy_frac"] = (
        sum(r[0] for r in pumps) / spans.busy_wall if spans.busy_wall else 0.0
    )
    m["manager.queue_high_water"] = float(max(
        (r[2].get("queued", 0) for r in spans.rows("manager.ingest")), default=0
    ))

    poll_waits = [
        r[0] * 1e3 for r in spans.rows("ingest.drain")
        if r[3] == "ingest.dispatch" and r[4].get("op") == "poll"
    ]
    m["ingest.poll_wait_ms_p50"] = tail(poll_waits, 50.0)
    m["ingest.poll_wait_ms_p99"] = tail(poll_waits, 99.0)

    hops = [d * 1e3 for d in spans.durations("fleet.hop")]
    m["fleet.hop_ms_p50"] = tail(hops, 50.0)
    m["fleet.hop_ms_p99"] = tail(hops, 99.0)
    m["fleet.journal_chunks"] = per(spans.counts.get("fleet.journal_chunks", 0))
    m["fleet.spawn_to_ready_s"] = max(spans.durations("fleet.start"), default=0.0)
    m["fleet.restart_to_ready_s"] = max(spans.durations("fleet.restart"), default=0.0)

    m["telemetry.snapshot_ms"] = _mean(spans.durations("telemetry.snapshot")) * 1e3
    m["telemetry.snapshot_bytes"] = _mean(
        [r[2]["bytes"] for r in spans.rows("framing.encode") if r[2].get("telemetry")]
    )
    m["telemetry.merge_ms"] = _mean(spans.durations("telemetry.merge")) * 1e3
    return m
