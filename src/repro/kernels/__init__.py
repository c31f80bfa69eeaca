"""Registry of batched (vectorized) feature kernels.

Two backends ship for every kernel:

- ``reference`` — the per-window scalar functions, looped (ground truth).
- ``vectorized`` — batched numpy implementations engineered to be
  bitwise-identical to the reference; the default backend.

Select a backend globally with ``REPRO_KERNEL_BACKEND=reference |
vectorized`` or per call via ``get_kernel(name, prefer=...)``.  Because
the two backends agree bit-for-bit (``tests/test_kernels_parity.py``
checks it), a cohort run produces byte-identical reports under either
choice — the engine parity suite enforces exactly that.
"""

from __future__ import annotations

from .plans import WaveletPlan, embedding_plan, hann_window, wavelet_plan
from .registry import (
    BACKENDS,
    ENV_BACKEND,
    available_backends,
    get_kernel,
    kernel_backend_from_env,
    registered_kernels,
)

__all__ = [
    "ENV_BACKEND",
    "BACKENDS",
    "get_kernel",
    "kernel_backend_from_env",
    "available_backends",
    "registered_kernels",
    "WaveletPlan",
    "wavelet_plan",
    "embedding_plan",
    "hann_window",
]
