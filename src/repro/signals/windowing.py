"""Sliding-window machinery.

The paper extracts features "from four-second windows with an overlap of
75%, i.e. after the features from one window are extracted, the window
slides by one second" (Sec. III-A).  This module turns that prose into a
reusable, index-exact iterator plus helpers to map between window indices
and time, which the deviation metric and the labeler both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..exceptions import SignalError, positive

__all__ = ["WindowSpec", "sliding_windows", "window_count", "window_matrix"]


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry in seconds, resolved against a sampling rate.

    Attributes
    ----------
    length_s:
        Window length in seconds (paper: 4.0).
    step_s:
        Hop between consecutive window starts in seconds (paper: 1.0,
        i.e. 75% overlap).
    """

    length_s: float = 4.0
    step_s: float = 1.0

    def __post_init__(self) -> None:
        positive(self.length_s, "window length", SignalError)
        positive(self.step_s, "window step", SignalError)
        if self.step_s > self.length_s:
            raise SignalError(
                f"step ({self.step_s}s) larger than window ({self.length_s}s) "
                "would skip samples"
            )

    @property
    def overlap(self) -> float:
        """Fractional overlap between consecutive windows (paper: 0.75)."""
        return 1.0 - self.step_s / self.length_s

    def length_samples(self, fs: float) -> int:
        return int(round(self.length_s * fs))

    def step_samples(self, fs: float) -> int:
        return int(round(self.step_s * fs))

    def n_windows(self, n_samples: int, fs: float) -> int:
        """Number of complete windows that fit in ``n_samples``."""
        win = self.length_samples(fs)
        step = self.step_samples(fs)
        if n_samples < win:
            return 0
        return 1 + (n_samples - win) // step

    def window_start_time(self, index: int) -> float:
        """Start time (s) of the window with the given index."""
        return index * self.step_s

    def window_index_for_time(self, t: float) -> int:
        """Index of the window starting closest to time ``t`` seconds."""
        return int(round(t / self.step_s))


def window_count(n_samples: int, fs: float, spec: WindowSpec) -> int:
    """Convenience alias for :meth:`WindowSpec.n_windows`."""
    return spec.n_windows(n_samples, fs)


def sliding_windows(
    n_samples: int, fs: float, spec: WindowSpec
) -> Iterator[tuple[int, int, int]]:
    """Yield ``(window_index, start_sample, stop_sample)`` for every complete
    window of ``spec`` over a signal of ``n_samples`` samples."""
    win = spec.length_samples(fs)
    step = spec.step_samples(fs)
    for i in range(spec.n_windows(n_samples, fs)):
        start = i * step
        yield i, start, start + win


def window_matrix(x: np.ndarray, fs: float, spec: WindowSpec) -> np.ndarray:
    """Return a zero-copy view of shape (n_windows, window_samples).

    Works on the last axis of 1-D input only; the feature extractors slice
    multichannel records per channel before calling this.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise SignalError(f"window_matrix expects 1-D input, got shape {x.shape}")
    win = spec.length_samples(fs)
    step = spec.step_samples(fs)
    n = spec.n_windows(x.size, fs)
    if n == 0:
        return np.empty((0, win), dtype=x.dtype)
    view = np.lib.stride_tricks.sliding_window_view(x, win)
    return view[: (n - 1) * step + 1 : step]
