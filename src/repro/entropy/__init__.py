"""Entropy substrate: the nonlinearity measures used by the paper's features.

Permutation entropy (orders 5 and 7), sample entropy (k = 0.2 / 0.35),
Rényi entropy, plus Shannon / approximate / spectral entropy for the
e-Glass real-time feature family.
"""

from .. import _lazy_exports

__all__ = [
    "ordinal_patterns",
    "permutation_entropy",
    "renyi_entropy",
    "approximate_entropy",
    "sample_entropy",
    "shannon_entropy",
    "spectral_entropy",
]

_EXPORTS = {
    ".permutation": ("ordinal_patterns", "permutation_entropy"),
    ".renyi": ("renyi_entropy",),
    ".sample": ("approximate_entropy", "sample_entropy"),
    ".shannon": ("shannon_entropy", "spectral_entropy"),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
