"""Registry of batched feature kernels: 7 kernels x 2 backends.

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
dict of per-level arrays, for the DWT kernel).

The bitwise identity is what keeps cohort reports byte-identical across
``REPRO_KERNEL_BACKEND`` values; ``tests/test_kernels_parity.py``
enforces it on a seeded battery of signal shapes.

Resolution
----------
:func:`get_kernel` picks a backend per call: an explicit ``prefer``
argument wins, then the ``REPRO_KERNEL_BACKEND`` environment variable,
then ``vectorized``.  An unknown backend name raises
:class:`~repro.exceptions.KernelError`.
"""

from __future__ import annotations

import os
from typing import Callable

from ..exceptions import KernelError
from . import reference as _ref
from . import vectorized as _vec

__all__ = [
    "ENV_BACKEND",
    "BACKENDS",
    "get_kernel",
    "kernel_backend_from_env",
    "available_backends",
    "registered_kernels",
]

#: Environment variable selecting the kernel backend for every
#: registry-resolved kernel (``reference`` | ``vectorized``).
ENV_BACKEND = "REPRO_KERNEL_BACKEND"

#: Backend names; the first is the default.
BACKENDS = ("vectorized", "reference")

#: name -> backend -> implementation
_REGISTRY: dict[str, dict[str, Callable]] = {
    name: {
        "reference": getattr(_ref, f"{name}_reference"),
        "vectorized": getattr(_vec, f"{name}_vectorized"),
    }
    for name in (
        "approximate_entropy",
        "band_powers",
        "dwt_details",
        "permutation_entropy",
        "renyi_entropy",
        "sample_entropy",
        "shannon_entropy",
    )
}


def kernel_backend_from_env() -> str | None:
    """The backend named by ``REPRO_KERNEL_BACKEND``, or None when unset.

    An unknown value raises immediately rather than silently running a
    different backend.
    """
    raw = os.environ.get(ENV_BACKEND, "").strip().lower()
    if not raw:
        return None
    if raw not in BACKENDS:
        raise KernelError(
            f"{ENV_BACKEND} must be one of {BACKENDS}, got {raw!r}"
        )
    return raw


def get_kernel(name: str, prefer: str | None = None) -> Callable:
    """Resolve the implementation of kernel ``name``.

    ``prefer`` overrides the ``REPRO_KERNEL_BACKEND`` environment
    variable, which overrides the default (``vectorized``).
    """
    try:
        versions = _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    requested = prefer if prefer is not None else kernel_backend_from_env()
    try:
        return versions[BACKENDS[0] if requested is None else requested]
    except KeyError:
        raise KernelError(
            f"unknown kernel backend {requested!r}; use one of {BACKENDS}"
        ) from None


def available_backends(name: str) -> tuple[str, ...]:
    """Backend names of ``name``: ``("reference", "vectorized")``."""
    if name not in _REGISTRY:
        raise KernelError(f"unknown kernel {name!r}")
    return tuple(_REGISTRY[name])


def registered_kernels() -> dict[str, tuple[str, ...]]:
    """Mapping of kernel name -> backends (for tests/tools)."""
    return {name: available_backends(name) for name in sorted(_REGISTRY)}
