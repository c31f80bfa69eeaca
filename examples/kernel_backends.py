"""Kernel registry walkthrough: backends, bitwise parity, and plans.

Shows the feature-kernel registry end to end:

1. resolution — which backend a kernel call actually runs: the default
   (vectorized), or the one a caller names with ``prefer=``;
2. the bitwise-parity contract — the vectorized backend reproduces the
   looped scalar reference bit for bit, which is what keeps cohort
   reports byte-identical across backends;
3. plans — the precomputed wavelet filter banks and embedding grids the
   batched kernels share across windows;
4. the end-to-end effect on :class:`Paper10FeatureExtractor` batches.

Run:
    PYTHONPATH=src python examples/kernel_backends.py
"""

import time

import numpy as np

from repro.features.paper10 import Paper10FeatureExtractor
from repro.kernels import (
    embedding_plan,
    get_kernel,
    registered_kernels,
    wavelet_plan,
)

rng = np.random.default_rng(7)

# ── 1. What is registered, and what resolves ────────────────────────────
print("registered kernels:")
for name, backends in registered_kernels().items():
    print(f"  {name:22s} {backends}")
print()

windows = rng.standard_normal((64, 64))  # 64 windows of a DWT subband

sampen = get_kernel("sample_entropy")  # default: vectorized
print("default backend row 0:", sampen(windows, m=2, k=0.2)[0])

ref_rows = get_kernel("sample_entropy", prefer="reference")(windows, m=2, k=0.2)
print("reference backend row 0:", ref_rows[0])

# ── 2. The parity contract is bitwise, not approximate ──────────────────
vec = get_kernel("sample_entropy")(windows, m=2, k=0.2)
assert np.array_equal(vec, ref_rows)
print("vectorized == reference bitwise:", np.array_equal(vec, ref_rows), "\n")

# ── 3. Plans: shared precomputed state ──────────────────────────────────
plan = wavelet_plan(wavelet=4, level=7)  # filter bank built once, cached
details = plan.details_batch(rng.standard_normal((8, 1024)))
print("DWT plan levels:", sorted(details), "level-7 shape:", details[7].shape)
print("embedding grid (n=6, m=2, delay=2):")
print(embedding_plan(6, 2, delay=2), "\n")

# ── 4. End to end: the paper's 10 features, batched ─────────────────────
extractor = Paper10FeatureExtractor()
batch = rng.standard_normal((120, 2, 1024))  # 2 minutes of 256 Hz windows

t0 = time.perf_counter()
loop_rows = np.stack(
    [extractor.extract_window(w, 256.0) for w in batch]
)  # the old per-window path
t_loop = time.perf_counter() - t0

t0 = time.perf_counter()
batch_rows = extractor.extract_batch(batch, 256.0)  # the kernel path
t_batch = time.perf_counter() - t0

assert np.array_equal(loop_rows, batch_rows)
print(
    f"per-window loop {t_loop * 1e3:.0f} ms -> batched kernels "
    f"{t_batch * 1e3:.0f} ms ({t_loop / t_batch:.1f}x), bitwise equal"
)
