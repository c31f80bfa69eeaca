"""Kernel registry benchmark: batched backends vs the looped reference.

Times every registered feature kernel on realistic window batches
(4-second, 256 Hz windows and their DWT subband lengths) under each
backend, plus the end-to-end ``Paper10FeatureExtractor`` batch path that
cohort extraction actually runs.  The end-to-end vectorized-vs-reference
ratio is asserted (>= 3x): it compares two backends inside one process,
so it stays meaningful on shared CI runners where absolute timings do
not.

The same path is also timed per call at the batch sizes the system
actually issues — 1 window (a live session's closing window), 4 (a
replayed 4 s chunk) and 57 (a cohort chunk) — and written to the
results as µs per window.  At 1 and 4 windows the vectorized path is
asserted no slower than the reference loop, again as an in-process
best-of-N comparison.

``REPRO_BENCH_QUICK=1`` shrinks the batch for the CI smoke leg.
"""

from __future__ import annotations

import functools
import os
import time
from unittest import mock

import numpy as np

import repro.kernels
from conftest import print_table, save_results
from repro.features.paper10 import Paper10FeatureExtractor
from repro.kernels import available_backends, get_kernel, registered_kernels

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")

#: Windows per batch — one window per second of record, so this is
#: seconds of cohort signal featurized per measurement.
N_WINDOWS = 120 if QUICK else 600
#: 4 s at 256 Hz: the paper's window geometry.
WINDOW_SAMPLES = 1024
#: Entropy kernels run on DWT subband series, far shorter than the raw
#: window; level 6/7 details of a 1024-sample window have ~16-32 coeffs,
#: level 3 has ~128.  Benchmark the mid-length case.
SUBBAND_SAMPLES = 64

#: The asserted floor for the end-to-end vectorized/reference ratio.
SPEEDUP_FLOOR = 3.0

REPEATS = 2 if QUICK else 5

#: Per-call batch sizes of the service-live, service-replay and cohort
#: extraction paths.
SMALL_BATCHES = (1, 4, 57)
#: Best-of-N repeats of a 1-window call (fewer for larger batches): a
#: call takes about a millisecond, so many repeats stay cheap and tame
#: scheduler noise.
SMALL_REPEATS = 50 if QUICK else 200


def _best_of(fn, *args, repeats: int = REPEATS, **kwargs) -> float:
    fn(*args, **kwargs)  # warm-up: plan caches, allocator
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def _kernel_input(name: str, rng: np.random.Generator) -> np.ndarray:
    n = (
        WINDOW_SAMPLES
        if name in ("dwt_details", "band_powers")
        else SUBBAND_SAMPLES
    )
    return rng.standard_normal((N_WINDOWS, n))


#: The parameter set each kernel is timed under.
KERNEL_PARAMS = {
    "band_powers": {
        "fs": 256.0,
        "bands": ((4.0, 8.0), (0.0, 128.0), (0.5, 4.0)),
    },
    "dwt_details": {"level": 2},
    "permutation_entropy": {"order": 3},
    "renyi_entropy": {"alpha": 2.0},
    "sample_entropy": {"m": 2, "k": 0.2},
}


def _paper10_per_backend(extractor, batch, repeats: int) -> dict:
    """Best-of-``repeats`` seconds of one ``extract_batch`` call per
    backend.  The extractor looks ``repro.kernels.get_kernel`` up per
    call, so patching that name selects the backend for the whole
    batch."""
    timings = {}
    for backend in ("reference", "vectorized"):
        preferring = functools.partial(get_kernel, prefer=backend)
        with mock.patch.object(repro.kernels, "get_kernel", preferring):
            timings[backend] = _best_of(
                extractor.extract_batch, batch, 256.0, repeats=repeats
            )
    return timings


def test_kernel_backends_speed():
    rng = np.random.default_rng(42)
    rows = []
    payload: dict = {
        "quick": QUICK,
        "n_windows": N_WINDOWS,
        "kernels": {},
    }

    for name in sorted(registered_kernels()):
        windows = _kernel_input(name, rng)
        params = KERNEL_PARAMS[name]
        timings = {}
        for backend in available_backends(name):
            impl = get_kernel(name, prefer=backend)
            timings[backend] = _best_of(impl, windows, **params)
        ref = timings["reference"]
        rows.append(
            [
                name,
                f"{ref * 1e3:.1f}",
                f"{timings['vectorized'] * 1e3:.1f}",
                f"{ref / timings['vectorized']:.1f}x",
            ]
        )
        payload["kernels"][name] = {
            backend: t for backend, t in timings.items()
        }

    # End-to-end: the full 10-feature batch under each backend — the
    # path every cohort, streaming and shard extraction takes.
    extractor = Paper10FeatureExtractor()
    batch = rng.standard_normal((N_WINDOWS, 2, WINDOW_SAMPLES))
    e2e = _paper10_per_backend(extractor, batch, REPEATS)
    speedup = e2e["reference"] / e2e["vectorized"]
    rows.append(
        [
            "paper10 end-to-end",
            f"{e2e['reference'] * 1e3:.1f}",
            f"{e2e['vectorized'] * 1e3:.1f}",
            f"{speedup:.1f}x",
        ]
    )
    payload["end_to_end"] = {**e2e, "speedup": speedup}

    # Per-call cost at the service and cohort batch sizes, where fixed
    # numpy dispatch rather than per-window math sets the price.
    payload["small_batches"] = {}
    for n in SMALL_BATCHES:
        per_call = _paper10_per_backend(
            extractor, batch[:n], max(5, SMALL_REPEATS // n)
        )
        ratio = per_call["reference"] / per_call["vectorized"]
        rows.append(
            [
                f"paper10 {n}-window call",
                f"{per_call['reference'] * 1e3:.2f}",
                f"{per_call['vectorized'] * 1e3:.2f}",
                f"{ratio:.2f}x",
            ]
        )
        payload["small_batches"][n] = {
            **per_call,
            "speedup": ratio,
            "us_per_window": {
                backend: t / n * 1e6 for backend, t in per_call.items()
            },
        }

    print_table(
        f"Feature kernels: {N_WINDOWS} windows"
        + (" (quick)" if QUICK else ""),
        ["kernel", "ref ms", "vec ms", "vec speedup"],
        rows,
    )
    save_results("bench_kernels" + ("_quick" if QUICK else ""), payload)

    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized end-to-end extraction only {speedup:.2f}x faster than "
        f"reference (floor {SPEEDUP_FLOOR:.0f}x)"
    )
    for n in (1, 4):
        call = payload["small_batches"][n]
        assert call["vectorized"] <= call["reference"], (
            f"a {n}-window vectorized call takes "
            f"{call['vectorized'] * 1e3:.3f} ms, slower than the "
            f"reference's {call['reference'] * 1e3:.3f} ms"
        )


if __name__ == "__main__":
    test_kernel_backends_speed()
