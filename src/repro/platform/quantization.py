"""Fixed-point quantization model for the edge deployment (Sec. V-B).

The STM32L151 has no FPU: a production port of Algorithm 1 runs in
fixed point.  This module models Q-format quantization of the
(z-score-normalized) feature array and lets the benchmarks verify the
key deployment question — *does the detected position survive 16-bit
(or narrower) feature arithmetic?*  Because z-scored features are
O(1)-ranged and the algorithm is a sum of absolute differences, the
answer is yes down to surprisingly few bits; `bench_quantization.py`
quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import PlatformError, integer

__all__ = ["QFormat", "quantize", "dequantize", "quantization_rms_error"]


@dataclass(frozen=True)
class QFormat:
    """A signed fixed-point format with ``integer_bits`` + ``frac_bits``
    (plus the sign bit).

    ``Q4.11`` (a common Cortex-M choice for z-scored data) is
    ``QFormat(4, 11)``: range [-16, 16), resolution 2^-11.
    """

    integer_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        integer(self.integer_bits, "integer_bits", PlatformError)
        integer(self.frac_bits, "frac_bits", PlatformError)
        if self.total_bits < 2:
            raise PlatformError("need at least a sign bit and one value bit")
        if self.total_bits > 32:
            raise PlatformError("formats beyond 32 bits are not modeled")

    @property
    def total_bits(self) -> int:
        return self.integer_bits + self.frac_bits + 1

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_value(self) -> float:
        return (2 ** (self.total_bits - 1) - 1) * self.scale

    @property
    def min_value(self) -> float:
        return -(2 ** (self.total_bits - 1)) * self.scale

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q{self.integer_bits}.{self.frac_bits}"


#: The format a Cortex-M3 port would use for z-scored features.
Q4_11 = QFormat(4, 11)


def quantize(values: np.ndarray, fmt: QFormat = Q4_11) -> np.ndarray:
    """Quantize to integer codes (round-to-nearest, saturating)."""
    values = np.asarray(values, dtype=float)
    codes = np.round(values / fmt.scale)
    lo = -(2 ** (fmt.total_bits - 1))
    hi = 2 ** (fmt.total_bits - 1) - 1
    return np.clip(codes, lo, hi).astype(np.int64)


def dequantize(codes: np.ndarray, fmt: QFormat = Q4_11) -> np.ndarray:
    """Map integer codes back to real values."""
    return np.asarray(codes, dtype=float) * fmt.scale


def quantization_rms_error(values: np.ndarray, fmt: QFormat = Q4_11) -> float:
    """RMS error introduced by a quantize/dequantize round trip."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise PlatformError("cannot measure error of an empty array")
    back = dequantize(quantize(values, fmt), fmt)
    return float(np.sqrt(np.mean((back - values) ** 2)))
