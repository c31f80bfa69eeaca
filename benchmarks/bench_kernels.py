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
best-of-N comparison.  The 16- and 64-window rows time what a service
session's push passes: a sliding view over one buffered stream (4 s
windows at a 1 s hop), 16 and 64 being the joined blocks of 4 and 16
queued 4 s chunks.  They are printed, not asserted; they are the
figures behind ``repro.service.manager.DECIDE_WINDOWS``.

The DWT kernel's sliding form is timed on its own: ``details_batch``
on a sliding view of one stream (a 57-window cohort chunk and a whole
14 min record, 4 s windows at a 1 s hop) against the same windows
copied contiguous, which run per window.  The outputs are asserted
bitwise equal and the sliding form >= 2x faster, again in process.

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
from repro.kernels import (
    available_backends,
    get_kernel,
    registered_kernels,
    wavelet_plan,
)

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
#: Per-call batch sizes timed on a session's sliding view.
SESSION_BATCHES = (16, 64)
#: Best-of-N repeats of a 1-window call (fewer for larger batches): a
#: call takes about a millisecond, so many repeats stay cheap and tame
#: scheduler noise.
SMALL_REPEATS = 50 if QUICK else 200


#: Windows per sliding-view DWT call: a cohort chunk and a whole
#: 14 min record through ``extract_features``.
SLIDING_BATCHES = (57, 800)
#: The asserted floor for the per-window / sliding DWT time ratio.
SLIDING_FLOOR = 2.0
#: The hop of the paper's 4 s / 1 s windows, in samples.
HOP_SAMPLES = 256


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


def _session_view(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` windows as a session's push passes them to ``extract_batch``:
    a (window, channel, sample) sliding view over one two-channel
    stream, window i starting i hops on."""
    stream = rng.standard_normal((2, (n - 1) * HOP_SAMPLES + WINDOW_SAMPLES))
    view = np.lib.stride_tricks.sliding_window_view(
        stream, WINDOW_SAMPLES, axis=1
    )[:, ::HOP_SAMPLES]
    return view.transpose(1, 0, 2)


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
                f"{timings['vectorized'] / N_WINDOWS * 1e6:.1f}",
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
            f"{e2e['vectorized'] / N_WINDOWS * 1e6:.1f}",
        ]
    )
    payload["end_to_end"] = {**e2e, "speedup": speedup}

    # Per-call cost at the service and cohort batch sizes, where fixed
    # numpy dispatch rather than per-window math sets the price.
    payload["small_batches"] = {}
    payload["session_batches"] = {}
    calls = [
        ("small_batches", f"paper10 {n}-window call", n, batch[:n])
        for n in SMALL_BATCHES
    ] + [
        ("session_batches", f"paper10 {n}-window sliding view", n,
         _session_view(rng, n))
        for n in SESSION_BATCHES
    ]
    for key, label, n, windows in calls:
        per_call = _paper10_per_backend(
            extractor, windows, max(5, SMALL_REPEATS // n)
        )
        ratio = per_call["reference"] / per_call["vectorized"]
        rows.append(
            [
                label,
                f"{per_call['reference'] * 1e3:.2f}",
                f"{per_call['vectorized'] * 1e3:.2f}",
                f"{ratio:.2f}x",
                f"{per_call['vectorized'] / n * 1e6:.1f}",
            ]
        )
        payload[key][n] = {
            **per_call,
            "speedup": ratio,
            "us_per_window": {
                backend: t / n * 1e6 for backend, t in per_call.items()
            },
        }

    print_table(
        f"Feature kernels: {N_WINDOWS} windows"
        + (" (quick)" if QUICK else ""),
        ["kernel", "ref ms", "vec ms", "vec speedup", "vec µs/window"],
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


def test_sliding_dwt_speed():
    rng = np.random.default_rng(7)
    plan = wavelet_plan(4, 7)
    rows = []
    payload: dict = {"quick": QUICK, "batches": {}}
    for n in SLIDING_BATCHES:
        stream = rng.standard_normal((n - 1) * HOP_SAMPLES + WINDOW_SAMPLES)
        view = np.lib.stride_tricks.sliding_window_view(
            stream, WINDOW_SAMPLES
        )[::HOP_SAMPLES]
        contiguous = np.ascontiguousarray(view)
        sliding = plan.details_batch(view)
        for lvl, coeffs in plan.details_batch(contiguous).items():
            np.testing.assert_array_equal(
                sliding[lvl].view(np.int64), coeffs.view(np.int64)
            )
        del sliding, coeffs  # hold no outputs across the timed calls
        # Alternate the two forms, each going first in every other
        # round: a call runs faster or slower depending on the blocks the
        # call before it freed, so neither form may always follow the
        # other.
        forms = (("per_window", contiguous), ("sliding", view))
        best = {"per_window": float("inf"), "sliding": float("inf")}
        for i in range(max(15, 36000 // n)):
            for form, batch in forms[:: 1 if i % 2 else -1]:
                t0 = time.perf_counter()
                plan.details_batch(batch)
                best[form] = min(best[form], time.perf_counter() - t0)
        timings = best
        ratio = timings["per_window"] / timings["sliding"]
        rows.append(
            [
                f"dwt {n}-window sliding view",
                f"{timings['per_window'] * 1e3:.2f}",
                f"{timings['sliding'] * 1e3:.2f}",
                f"{ratio:.2f}x",
            ]
        )
        payload["batches"][n] = {**timings, "speedup": ratio}

    print_table(
        "DWT details: sliding view vs the same windows contiguous"
        + (" (quick)" if QUICK else ""),
        ["batch", "per-window ms", "sliding ms", "speedup"],
        rows,
    )
    save_results("bench_kernels_sliding" + ("_quick" if QUICK else ""), payload)
    for n, call in payload["batches"].items():
        assert call["speedup"] >= SLIDING_FLOOR, (
            f"the sliding DWT of {n} windows is only {call['speedup']:.2f}x "
            f"faster than per window (floor {SLIDING_FLOOR:.0f}x)"
        )


if __name__ == "__main__":
    test_kernel_backends_speed()
    test_sliding_dwt_speed()
