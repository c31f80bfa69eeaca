"""Peak-RSS benchmark: the streamed data plane vs. record materialization.

Measures what the streaming-first refactor buys on a long monitoring
record: the *batch* mode materializes the full synthesized record and
batch-extracts features (the pre-refactor worker), while the *stream*
mode runs the engine's actual data plane — the cache key
(:func:`source_cache_key`, the source's recipe digest: no signal pass)
and one streaming pass through the extractor
(:func:`extract_features_from_source`) — without the signal ever
existing as one array.

Each mode runs in its own subprocess so ``getrusage`` peak-RSS
high-water marks cannot contaminate each other; the parent compares the
two and (with ``--check``) asserts the streamed peak is a small fraction
of the batch peak.  Feature extraction uses a deliberately cheap
per-window extractor: the bench measures the *data plane's* memory, and
a trivial extractor keeps multi-hour records affordable in CI.

Usage::

    python benchmarks/bench_streaming_memory.py            # full scale
    python benchmarks/bench_streaming_memory.py --quick    # CI scale
    python benchmarks/bench_streaming_memory.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

import numpy as np

#: Full scale: a 24-hour 2-channel record at a wearable-ish 64 Hz
#: (~88 MB of float64 signal; materializing it transiently doubles that,
#: since the streamed chunks are all held until they are concatenated).
FULL = {"fs": 64.0, "hours": 24.0}
#: Quick scale for the CI smoke job: 16 hours at 64 Hz (~59 MB signal —
#: large enough that the O(record) vs O(chunk) gap dwarfs the shared
#: interpreter/numpy baseline on a busy runner).
QUICK = {"fs": 64.0, "hours": 16.0}

#: The streamed peak must stay below this fraction of the batch peak.
#: Generous on purpose: the interpreter + numpy baseline is shared by
#: both modes, so the true signal-memory ratio (O(chunk) vs O(record))
#: is far smaller; the bound only needs to be robust on busy CI runners.
MAX_STREAM_FRACTION = 0.7

CHUNK_S = 60.0


def build_dataset(fs: float, hours: float):
    from repro.data import SyntheticEEGDataset

    duration = hours * 3600.0
    return SyntheticEEGDataset(
        fs=fs, duration_range_s=(duration, duration)
    )


class MeanPowerExtractor:
    """A deliberately cheap 4-feature extractor (mean/power per channel).

    Duck-typed rather than subclassing the paper-10 stack: the bench
    measures the *data plane's* memory, so per-window cost must stay
    negligible even over multi-hour records.
    """

    feature_names = ("mean0", "pow0", "mean1", "pow1")
    channel_names = ("F7T3", "F8T4")
    n_features = 4

    def extract_batch(self, windows, fs):
        """(n_windows, 2, n_samples) -> (n_windows, 4) feature rows."""
        mean = windows.mean(axis=2)
        power = np.einsum("wcs,wcs->wc", windows, windows) / windows.shape[2]
        return np.column_stack([mean[:, 0], power[:, 0], mean[:, 1], power[:, 1]])


def run_batch(fs: float, hours: float) -> dict:
    """The pre-refactor worker: materialize, then batch-extract."""
    from repro.features.extraction import extract_features

    dataset = build_dataset(fs, hours)
    record = dataset.generate_sample(1, 0, 0)
    feats = extract_features(record, MeanPowerExtractor())
    return {
        "n_samples": record.n_samples,
        "n_windows": feats.n_windows,
        "signal_mb": record.data.nbytes / 1e6,
    }


def run_stream(fs: float, hours: float) -> dict:
    """The engine's data plane: recipe key + streaming extraction."""
    from repro.engine import extract_features_from_source, source_cache_key
    from repro.signals.windowing import WindowSpec

    dataset = build_dataset(fs, hours)
    source = dataset.sample_source(1, 0, 0)
    extractor = MeanPowerExtractor()
    spec = WindowSpec(4.0, 1.0)
    key = source_cache_key(source, extractor, spec, CHUNK_S)
    feats = extract_features_from_source(source, extractor, spec, CHUNK_S)
    return {
        "n_samples": source.n_samples,
        "n_windows": feats.n_windows,
        "signal_mb": source.n_samples * source.n_channels * 8 / 1e6,
        "recipe_digest": key[3][:8],
    }


def child_main(mode: str, fs: float, hours: float) -> None:
    start = time.perf_counter()
    info = run_batch(fs, hours) if mode == "batch" else run_stream(fs, hours)
    info["mode"] = mode
    info["elapsed_s"] = round(time.perf_counter() - start, 2)
    # Linux reports ru_maxrss in KiB (macOS: bytes — normalize roughly).
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover
        peak //= 1024
    info["peak_rss_kb"] = peak
    print(json.dumps(info))


def measure(mode: str, fs: float, hours: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            __file__,
            "--worker", mode,
            "--fs", str(fs),
            "--hours", str(hours),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI scale")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the streamed peak is under "
        f"{MAX_STREAM_FRACTION:.0%} of the batch peak",
    )
    parser.add_argument("--worker", choices=("batch", "stream"), default=None)
    parser.add_argument("--fs", type=float, default=None)
    parser.add_argument("--hours", type=float, default=None)
    args = parser.parse_args(argv)

    if args.worker:
        child_main(args.worker, args.fs, args.hours)
        return 0

    scale = QUICK if args.quick else FULL
    print(
        f"record: {scale['hours']:g} h x 2 ch @ {scale['fs']:g} Hz, "
        f"chunk {CHUNK_S:g} s"
    )
    results = {}
    for mode in ("batch", "stream"):
        results[mode] = measure(mode, scale["fs"], scale["hours"])
        r = results[mode]
        print(
            f"{mode:>7}: peak RSS {r['peak_rss_kb'] / 1024:8.1f} MB   "
            f"(signal {r['signal_mb']:.1f} MB, {r['n_windows']} windows, "
            f"{r['elapsed_s']:.1f} s)"
        )
    ratio = results["stream"]["peak_rss_kb"] / results["batch"]["peak_rss_kb"]
    print(f"stream/batch peak ratio: {ratio:.2f}")
    if args.check and ratio > MAX_STREAM_FRACTION:
        print(
            f"FAIL: streamed peak is {ratio:.2f}x the batch peak "
            f"(bound {MAX_STREAM_FRACTION})",
            file=sys.stderr,
        )
        return 1
    if args.check:
        print(f"OK: ratio {ratio:.2f} <= {MAX_STREAM_FRACTION}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
