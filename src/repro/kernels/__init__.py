"""Registry of batched (vectorized) feature kernels.

Two backends ship for every kernel:

- ``reference`` — the per-window scalar functions, looped (ground truth).
- ``vectorized`` — batched numpy implementations engineered to be
  bitwise-identical to the reference; the default backend.

Production code always resolves the default; a caller picks the other
backend per call with ``get_kernel(name, prefer="reference")``.
Feature extractors look ``get_kernel`` up on this module at call time,
so a test can reroute a whole cohort run to the reference loops by
patching ``repro.kernels.get_kernel``.  Because the two backends agree
bit-for-bit (``tests/test_kernels_parity.py`` checks it), a cohort run
produces byte-identical reports under either — the engine parity suite
enforces exactly that.
"""

from .. import _lazy_exports

__all__ = [
    "BACKENDS",
    "get_kernel",
    "available_backends",
    "registered_kernels",
    "WaveletPlan",
    "wavelet_plan",
    "embedding_plan",
    "hann_window",
    "BandPlan",
    "band_plan",
]

_EXPORTS = {
    ".plans": (
        "BandPlan", "WaveletPlan", "band_plan", "embedding_plan", "hann_window", "wavelet_plan",
    ),
    ".registry": ("BACKENDS", "available_backends", "get_kernel", "registered_kernels"),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
