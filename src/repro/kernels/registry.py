"""Registry of batched feature kernels: 5 kernels x 2 backends.

Per-window feature extraction (entropies, DWT subbands, band powers)
dominates cohort wall-clock.  Each kernel has two implementations
behind one resolution point, so batch, streaming, engine and shard
extraction all hit the same code:

- ``reference`` — a loop over the scalar functions in
  :mod:`repro.entropy` / :mod:`repro.signals` (ground truth);
- ``vectorized`` — batched numpy implementations engineered to be
  *bitwise* identical to the reference (reductions along contiguous
  window rows, identical accumulation orders); the default.

Every kernel is *batched*: it takes a 2-D ``(n_windows, n_samples)``
array of per-window series and returns one value row per window (or a
dict of per-level arrays, for the DWT kernel).  ``band_powers`` also
takes ``(n_windows, n_lanes, n_samples)`` — one lane per channel — and
returns ``(n_windows, n_lanes, n_bands)``.

The bitwise identity is what keeps cohort reports byte-identical across
backends; ``tests/test_kernels_parity.py`` enforces it on a seeded
battery of signal shapes.

Resolution
----------
:func:`get_kernel` returns the ``vectorized`` implementation unless the
caller names a backend with ``prefer``.  There is no global switch:
production extraction always runs ``vectorized``, and the ``reference``
loops serve as the tests' oracle.  An unknown kernel or backend name
raises :class:`~repro.exceptions.KernelError`.
"""

from __future__ import annotations

from typing import Callable

from ..exceptions import KernelError
from . import reference as _ref
from . import vectorized as _vec

__all__ = [
    "BACKENDS",
    "get_kernel",
    "available_backends",
    "registered_kernels",
]

#: Backend names; the first is the default.
BACKENDS = ("vectorized", "reference")

#: name -> backend -> implementation
_REGISTRY: dict[str, dict[str, Callable]] = {
    name: {
        "reference": getattr(_ref, f"{name}_reference"),
        "vectorized": getattr(_vec, f"{name}_vectorized"),
    }
    for name in (
        "band_powers",
        "dwt_details",
        "permutation_entropy",
        "renyi_entropy",
        "sample_entropy",
    )
}


def get_kernel(name: str, prefer: str | None = None) -> Callable:
    """Resolve the implementation of kernel ``name``: the ``prefer``
    backend when given, else the default (``vectorized``)."""
    try:
        versions = _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    backend = BACKENDS[0] if prefer is None else prefer
    try:
        return versions[backend]
    except KeyError:
        raise KernelError(
            f"unknown kernel backend {backend!r}; use one of {BACKENDS}"
        ) from None


def available_backends(name: str) -> tuple[str, ...]:
    """Backend names of ``name``: ``("reference", "vectorized")``."""
    if name not in _REGISTRY:
        raise KernelError(f"unknown kernel {name!r}")
    return tuple(_REGISTRY[name])


def registered_kernels() -> dict[str, tuple[str, ...]]:
    """Mapping of kernel name -> backends (for tests/tools)."""
    return {name: available_backends(name) for name in sorted(_REGISTRY)}
