"""Streaming (chunked) feature extraction for the edge device.

The wearable never sees a whole record at once: samples arrive from the
AFE continuously, and the device maintains the rolling feature buffer the
a-posteriori labeler consumes when the patient presses the button.  This
module implements that path:

* :class:`StreamingFeatureExtractor` — feed arbitrary-sized sample
  chunks; complete 4-second windows (1-second hop) are featurized as soon
  as they close, exactly matching batch extraction;
* :class:`RollingFeatureBuffer` — a bounded ring of the latest feature
  rows (the "last hour" the patient trigger searches);
* :class:`StreamingLabeler` — glue: stream in, press the button, get the
  label in stream time.
"""

from __future__ import annotations

import numpy as np

from ..data.records import SeizureAnnotation
from ..exceptions import FeatureError, LabelingError
from ..features.base import FeatureExtractor
from ..features.paper10 import Paper10FeatureExtractor
from ..signals.windowing import WindowSpec
from .fast import a_posteriori_fast
from .algorithm import DetectionResult

__all__ = ["StreamingFeatureExtractor", "RollingFeatureBuffer", "StreamingLabeler"]


class StreamingFeatureExtractor:
    """Incremental sliding-window feature extraction.

    Feed chunks with :meth:`push`; each call returns the feature rows of
    every window that *completed* inside the chunk, identical (to
    floating-point equality) to batch extraction over the concatenated
    stream.
    """

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        fs: float = 256.0,
        spec: WindowSpec | None = None,
        n_channels: int = 2,
    ) -> None:
        if fs <= 0:
            raise FeatureError(f"sampling rate must be positive, got {fs}")
        if n_channels < 1:
            raise FeatureError("need at least one channel")
        self.extractor = extractor or Paper10FeatureExtractor()
        self.fs = float(fs)
        self.spec = spec or WindowSpec(4.0, 1.0)
        self.n_channels = n_channels
        self._win = self.spec.length_samples(self.fs)
        self._step = self.spec.step_samples(self.fs)
        # Samples no emitted window needs yet: buffer columns
        # [_head, _tail), with room after _tail for the next chunk.
        self._buffer = np.empty((n_channels, 0))
        self._head = 0
        self._tail = 0
        self._consumed = 0  # samples already dropped before _head
        self._next_window = 0  # index of the next window to emit

    @property
    def windows_emitted(self) -> int:
        return self._next_window

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Feed samples; returns an (n_new_windows, n_features) array."""
        chunk = np.asarray(chunk, dtype=float)
        if chunk.ndim == 1:
            chunk = chunk[None, :]
        if chunk.ndim != 2 or chunk.shape[0] != self.n_channels:
            raise FeatureError(
                f"chunk must be ({self.n_channels}, n) samples, got {chunk.shape}"
            )
        self._append(chunk)

        # Every window whose last sample arrived in this push is ready;
        # featurize them all in one batched call (a strided view over the
        # buffer, no window copies) so the streaming path hits the same
        # batched kernels as whole-record extraction.
        avail = self._consumed + self._tail - self._head
        if avail < self._win:
            n_ready = 0
        else:
            n_ready = (avail - self._win) // self._step + 1 - self._next_window
        if n_ready > 0:
            start = self._head + self._next_window * self._step - self._consumed
            row, col = self._buffer.strides
            # (window, channel, sample) view: window i starts i steps on.
            tensor = np.ndarray(
                (n_ready, self.n_channels, self._win),
                buffer=self._buffer,
                offset=start * col,
                strides=(self._step * col, row, col),
            )
            rows = self.extractor.extract_batch(tensor, self.fs)
            self._next_window += n_ready
        else:
            rows = np.empty((0, self.extractor.n_features))

        # Drop samples no future window needs.
        keep_from_abs = self._next_window * self._step
        drop = keep_from_abs - self._consumed
        if drop > 0:
            self._head += drop
            self._consumed = keep_from_abs

        return rows

    def _append(self, chunk: np.ndarray) -> None:
        """Write ``chunk`` after the retained samples.

        When it does not fit behind them, the retained samples move to
        the front of a new buffer sized for them, the chunk and one more
        step, so a stream of equal chunks copies each retained sample a
        bounded number of times and the buffer never outgrows the
        largest chunk by more than a window and a step.
        """
        n = chunk.shape[1]
        if self._tail + n > self._buffer.shape[1]:
            kept = self._tail - self._head
            grown = np.empty((self.n_channels, kept + n + self._step))
            grown[:, :kept] = self._buffer[:, self._head : self._tail]
            self._buffer, self._head, self._tail = grown, 0, kept
        self._buffer[:, self._tail : self._tail + n] = chunk
        self._tail += n

    def finalize(self) -> int:
        """Declare the stream finished; returns the total windows emitted.

        Raises
        ------
        FeatureError
            If the whole stream was shorter than one window, so not a
            single feature row was ever produced.  This mirrors the batch
            path (:func:`repro.features.extraction.extract_features`),
            which raises for short records instead of silently returning
            zero rows — the two paths must agree so callers cannot build
            empty feature matrices by switching to streaming.
        """
        if self._next_window == 0:
            total = self._consumed + self._tail - self._head
            raise FeatureError(
                f"stream of {total / self.fs:.1f}s shorter than one "
                f"{self.spec.length_s:.1f}s window"
            )
        return self._next_window


class RollingFeatureBuffer:
    """Bounded FIFO of the most recent feature rows (the lookback hour)."""

    def __init__(self, capacity: int, n_features: int) -> None:
        if capacity < 1:
            raise FeatureError("capacity must be >= 1")
        self.capacity = capacity
        self._rows = np.empty((0, n_features))
        #: window index (stream time) of the first retained row
        self.first_index = 0

    def extend(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=float)
        if rows.size == 0:
            return
        self._rows = np.concatenate([self._rows, rows], axis=0)
        overflow = self._rows.shape[0] - self.capacity
        if overflow > 0:
            self._rows = self._rows[overflow:]
            self.first_index += overflow

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def __len__(self) -> int:
        return self._rows.shape[0]


class StreamingLabeler:
    """Edge-side loop: stream samples in, label on patient trigger.

    Parameters
    ----------
    avg_seizure_duration_s:
        The expert prior (Algorithm 1's ``W``).
    lookback_s:
        How much feature history is retained (paper: one hour).
    """

    def __init__(
        self,
        avg_seizure_duration_s: float,
        fs: float = 256.0,
        lookback_s: float = 3600.0,
        extractor: FeatureExtractor | None = None,
        spec: WindowSpec | None = None,
    ) -> None:
        if avg_seizure_duration_s <= 0:
            raise LabelingError("average seizure duration must be positive")
        if lookback_s <= 2 * avg_seizure_duration_s:
            raise LabelingError("lookback must exceed twice the seizure duration")
        self.spec = spec or WindowSpec(4.0, 1.0)
        self.stream = StreamingFeatureExtractor(extractor, fs, self.spec)
        capacity = int(lookback_s / self.spec.step_s)
        self.buffer = RollingFeatureBuffer(
            capacity, self.stream.extractor.n_features
        )
        self.window_length = max(
            1, int(round(avg_seizure_duration_s / self.spec.step_s))
        )

    def push(self, chunk: np.ndarray) -> int:
        """Feed samples; returns the number of new feature rows."""
        rows = self.stream.push(chunk)
        self.buffer.extend(rows)
        return rows.shape[0]

    @property
    def seconds_buffered(self) -> float:
        return len(self.buffer) * self.spec.step_s

    def trigger(self) -> tuple[SeizureAnnotation, DetectionResult]:
        """The patient's button press: label the buffered lookback.

        Returns the annotation in *stream time* (seconds since the first
        sample ever pushed) plus the raw detection.
        """
        if len(self.buffer) <= self.window_length:
            raise LabelingError(
                f"only {len(self.buffer)} feature rows buffered; need more "
                f"than W={self.window_length} to search"
            )
        detection = a_posteriori_fast(self.buffer.rows, self.window_length)
        onset_row = self.buffer.first_index + detection.position
        onset_s = onset_row * self.spec.step_s
        offset_s = onset_s + self.window_length * self.spec.step_s
        return (
            SeizureAnnotation(onset_s=onset_s, offset_s=offset_s, source="algorithm"),
            detection,
        )
