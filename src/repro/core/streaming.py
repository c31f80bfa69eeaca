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

from collections.abc import Sequence

import numpy as np

from ..data.records import SeizureAnnotation
from ..exceptions import FeatureError, LabelingError, integer, positive
from ..features.base import FeatureExtractor
from ..features.paper10 import Paper10FeatureExtractor
from ..kernels.workspace import scratch
from ..signals.windowing import WindowSpec
from .fast import a_posteriori_fast
from .algorithm import DetectionResult

__all__ = ["StreamingFeatureExtractor", "RollingFeatureBuffer", "StreamingLabeler"]

#: Capacity a stream's sample buffer may keep after a push, in windows
#: plus steps (5,120 samples per channel for 4 s / 1 s windows at
#: 256 Hz, 20 s of signal).  A live stream's 1-4 s chunks stay below it
#: and reuse a buffer of the stream's own.  A larger push (a service
#: block of 64 steps, a cohort's 60 s chunk: 262-279 KB, past the
#: 128 KiB where glibc's ``malloc`` maps a fresh allocation and faults it
#: page by page) is laid out in the thread's workspace block buffer
#: (:mod:`repro.kernels.workspace`) and released at the end of the push,
#: down to a copy of the samples the stream still needs.
RELEASE_WINDOWS = 4


class StreamingFeatureExtractor:
    """Incremental sliding-window feature extraction.

    Feed chunks with :meth:`push`, or several consecutive chunks at once
    with :meth:`push_chunks`; each call returns the feature rows of
    every window that *completed* inside them, identical (to
    floating-point equality) to batch extraction over the concatenated
    stream.

    Between pushes the stream holds the samples no emitted window has
    used yet (less than one window) in a buffer of at most
    :data:`RELEASE_WINDOWS` windows plus steps: chunks of a few seconds
    reuse one buffer, and a larger push runs in the thread's workspace
    block buffer and keeps a copy of what it needs once its windows are
    out.
    """

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        fs: float = 256.0,
        spec: WindowSpec | None = None,
        n_channels: int = 2,
    ) -> None:
        positive(fs, "sampling rate", FeatureError)
        integer(n_channels, "n_channels", FeatureError, 1)
        self.extractor = extractor or Paper10FeatureExtractor()
        self.fs = float(fs)
        self.spec = spec or WindowSpec(4.0, 1.0)
        self.n_channels = n_channels
        self._win = self.spec.length_samples(self.fs)
        self._step = self.spec.step_samples(self.fs)
        #: Buffer capacity (samples per channel) past which a push
        #: releases the buffer down to the samples it still needs.
        self.release_samples = RELEASE_WINDOWS * (self._win + self._step)
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
        return self.push_chunks((chunk,))

    def push_chunks(self, chunks: Sequence[np.ndarray]) -> np.ndarray:
        """Feed consecutive sample blocks as one push.

        The rows are bitwise those of pushing the blocks' concatenation
        (or each block in turn): the blocks are copied straight into the
        buffer, and every window completed by them is featurized in one
        batched call.
        """
        blocks = []
        for chunk in chunks:
            chunk = np.asarray(chunk, dtype=float)
            if chunk.ndim == 1:
                chunk = chunk[None, :]
            if chunk.ndim != 2 or chunk.shape[0] != self.n_channels:
                raise FeatureError(
                    f"chunk must be ({self.n_channels}, n) samples, "
                    f"got {chunk.shape}"
                )
            blocks.append(chunk)
        self._append(blocks)
        try:
            return self._extract_ready()
        finally:
            # Drop samples no future window needs.
            keep_from_abs = self._next_window * self._step
            drop = keep_from_abs - self._consumed
            if drop > 0:
                self._head += drop
                self._consumed = keep_from_abs
            # A block push wrote into a block-sized workspace buffer:
            # keep only the overlap tail, in a buffer of the stream's
            # own, even when extraction failed.
            if self._buffer.shape[1] > self.release_samples:
                self._buffer = self._buffer[:, self._head : self._tail].copy()
                self._head, self._tail = 0, self._buffer.shape[1]

    def _extract_ready(self) -> np.ndarray:
        """Feature rows of every window whose last sample has arrived."""
        # Featurize them all in one batched call (a strided view over the
        # buffer, no window copies) so the streaming path hits the same
        # batched kernels as whole-record extraction.
        avail = self._consumed + self._tail - self._head
        if avail < self._win:
            n_ready = 0
        else:
            n_ready = (avail - self._win) // self._step + 1 - self._next_window
        if n_ready <= 0:
            return np.empty((0, self.extractor.n_features))
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
        return rows

    def _append(self, blocks: list[np.ndarray]) -> None:
        """Write ``blocks`` after the retained samples.

        When they do not fit behind them, the retained samples move to
        the front: of this buffer when it can hold them and the blocks,
        else of a new buffer sized once for them, the blocks and one
        more step.  So a stream of equal chunks settles on one buffer,
        and the buffer never outgrows the largest push by more than a
        window and a step.
        """
        n = sum(block.shape[1] for block in blocks)
        if self._tail + n > self._buffer.shape[1]:
            kept = self._tail - self._head
            width = kept + n + self._step
            if kept + n <= self._buffer.shape[1]:
                target = self._buffer
            elif width > self.release_samples:
                # Released at the end of this push: one buffer per
                # thread serves every stream's block pushes.
                target = scratch("stream.block", (self.n_channels, width))
            else:
                target = np.empty((self.n_channels, width))
            # numpy buffers an overlapping in-place move.
            target[:, :kept] = self._buffer[:, self._head : self._tail]
            self._buffer, self._head, self._tail = target, 0, kept
        for block in blocks:
            width = block.shape[1]
            self._buffer[:, self._tail : self._tail + width] = block
            self._tail += width

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
    """Bounded FIFO of the most recent feature rows (the lookback hour).

    The rows live in a backing array of up to twice the capacity; new
    rows are written after the retained ones, and only when the backing
    array is full are the retained rows copied to the front of a fresh
    one.  So :meth:`extend` costs amortized O(new rows), and an array
    :attr:`rows` returned earlier never changes.
    """

    def __init__(self, capacity: int, n_features: int) -> None:
        self.capacity = integer(capacity, "capacity", FeatureError, 1)
        self._data = np.empty((0, n_features))
        # Retained rows: _data[_start:_end].
        self._start = 0
        self._end = 0
        #: window index (stream time) of the first retained row
        self.first_index = 0

    def extend(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=float)
        if rows.size == 0:
            return
        if rows.ndim != 2 or rows.shape[1] != self._data.shape[1]:
            raise FeatureError(
                f"rows must be (n, {self._data.shape[1]}) features, "
                f"got {rows.shape}"
            )
        n = rows.shape[0]
        self.first_index += max(0, len(self) + n - self.capacity)
        if n > self.capacity:
            # Only the newest ``capacity`` of these rows survive.
            rows = rows[n - self.capacity :]
            n = self.capacity
        if self._end + n > self._data.shape[0]:
            kept = min(self._end - self._start, self.capacity - n)
            grown = np.empty((2 * (kept + n), self._data.shape[1]))
            grown[:kept] = self._data[self._end - kept : self._end]
            self._data, self._start, self._end = grown, 0, kept
        self._data[self._end : self._end + n] = rows
        self._end += n
        self._start = max(self._start, self._end - self.capacity)

    @property
    def rows(self) -> np.ndarray:
        return self._data[self._start : self._end]

    def __len__(self) -> int:
        return self._end - self._start


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
        positive(avg_seizure_duration_s, "avg_seizure_duration_s", LabelingError)
        positive(lookback_s, "lookback_s", LabelingError)
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
