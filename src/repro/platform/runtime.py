"""Runtime/complexity model of Algorithm 1 on the edge MCU (Sec. IV).

"its complexity is O(L^2 W F), which means that in a wearable platform
such as the one described in Section V-B one second of signal is
processed in one second time."

This module provides the operation-count model behind that claim and a
calibration hook: measure the host's throughput once, scale by the MCU's
clock, and predict edge processing time — the standard first-order
estimate for porting DSP kernels to Cortex-M class parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import PlatformError, integer, positive
from .mcu import Microcontroller, STM32L151

__all__ = ["operation_count", "RuntimeModel"]


def operation_count(
    signal_length: int, window_length: int, n_features: int, grid_step: int = 4
) -> float:
    """Inner-loop operation count of the pseudo-code Algorithm 1.

    ``(L - W)`` windows x ``W`` points x ``(L - W)/grid_step`` outside
    points x ``F`` features, i.e. Theta(L^2 * W * F / grid_step).
    """
    if signal_length <= window_length:
        raise PlatformError("L must exceed W")
    integer(window_length, "window_length", PlatformError, 1)
    integer(n_features, "n_features", PlatformError, 1)
    integer(grid_step, "grid_step", PlatformError, 1)
    n_windows = signal_length - window_length
    return float(n_windows) * window_length * (n_windows / grid_step) * n_features


@dataclass(frozen=True)
class RuntimeModel:
    """Predict MCU processing time from an operation count.

    Attributes
    ----------
    mcu:
        Target microcontroller.
    cycles_per_op:
        Average clock cycles per inner-loop operation (load, subtract,
        abs, accumulate), finite and positive.  6 cycles is a reasonable
        figure for a Cortex-M3 without SIMD on float32 emulated in fixed
        point; treat as a calibration knob.
    """

    mcu: Microcontroller = STM32L151
    cycles_per_op: float = 6.0

    def __post_init__(self) -> None:
        positive(self.cycles_per_op, "cycles_per_op", PlatformError)

    def processing_time_s(
        self,
        signal_length: int,
        window_length: int,
        n_features: int,
        grid_step: int = 4,
    ) -> float:
        ops = operation_count(signal_length, window_length, n_features, grid_step)
        return ops * self.cycles_per_op / self.mcu.max_freq_hz

    def realtime_factor(
        self,
        signal_length_s: float,
        window_length: int,
        n_features: int,
        feature_rate_hz: float = 1.0,
        grid_step: int = 4,
    ) -> float:
        """Processing time divided by signal time; <= 1 means the paper's
        "one second of signal in one second" claim holds for this geometry."""
        positive(signal_length_s, "signal_length_s", PlatformError)
        positive(feature_rate_hz, "feature_rate_hz", PlatformError)
        length = int(signal_length_s * feature_rate_hz)
        t = self.processing_time_s(length, window_length, n_features, grid_step)
        return t / signal_length_s
