"""EEG record and annotation containers.

These are the data objects flowing through the whole pipeline: a
multichannel :class:`EEGRecord` (2 channels in the paper's setting) plus
:class:`SeizureAnnotation` intervals, with helpers to slice by time, build
per-sample and per-window masks, and check overlap — semantics every other
subsystem (labeler, detector, metrics) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..exceptions import DataError, at_least, finite, positive, within

__all__ = [
    "SeizureAnnotation",
    "EEGRecord",
    "duration_window_labels",
    "interval_window_labels",
]


@dataclass(frozen=True)
class SeizureAnnotation:
    """A labeled seizure interval ``[onset_s, offset_s]`` in record time:
    finite, ``0 <= onset_s < offset_s``."""

    onset_s: float
    offset_s: float
    #: Where the label came from: "expert" (ground truth) or "algorithm"
    #: (a-posteriori self-label).  The validation experiment (Sec. VI-B)
    #: trains detectors from each source and compares.
    source: str = "expert"

    def __post_init__(self) -> None:
        at_least(self.onset_s, "onset_s", DataError, 0)
        if finite(self.offset_s, "offset_s", DataError) <= self.onset_s:
            raise DataError(
                f"offset_s ({self.offset_s}) must exceed onset_s ({self.onset_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.offset_s - self.onset_s

    @property
    def midpoint_s(self) -> float:
        return 0.5 * (self.onset_s + self.offset_s)

    def shifted(self, dt: float) -> "SeizureAnnotation":
        """Return a copy moved by ``dt`` seconds (used when cropping)."""
        return replace(self, onset_s=self.onset_s + dt, offset_s=self.offset_s + dt)

    def overlaps(self, t0: float, t1: float) -> bool:
        """True if the annotation intersects the interval [t0, t1)."""
        return self.onset_s < t1 and self.offset_s > t0

    def intersection_s(
        self, t0: float | np.ndarray, t1: float | np.ndarray
    ) -> float | np.ndarray:
        """Length (s) of the overlap with [t0, t1); scalars or arrays."""
        return np.maximum(0.0, np.minimum(self.offset_s, t1) - np.maximum(self.onset_s, t0))


@dataclass
class EEGRecord:
    """A continuous multichannel EEG recording with seizure annotations.

    Attributes
    ----------
    data:
        Array of shape (n_channels, n_samples), in microvolts.
    fs:
        Sampling frequency in Hz (CHB-MIT and the paper: 256), finite
        and positive.
    channel_names:
        One name per row of ``data`` (default: ("F7T3", "F8T4")).
    annotations:
        Expert seizure labels (ground truth).
    patient_id / record_id:
        Provenance identifiers.
    """

    data: np.ndarray
    fs: float
    channel_names: tuple[str, ...] = ("F7T3", "F8T4")
    annotations: list[SeizureAnnotation] = field(default_factory=list)
    patient_id: str = ""
    record_id: str = ""

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise DataError(f"data must be (channels, samples), got {self.data.shape}")
        positive(self.fs, "fs", DataError)
        if len(self.channel_names) != self.data.shape[0]:
            raise DataError(
                f"{len(self.channel_names)} channel names for "
                f"{self.data.shape[0]} data rows"
            )
        for ann in self.annotations:
            if ann.offset_s > self.duration_s + 1e-9:
                raise DataError(
                    f"annotation [{ann.onset_s}, {ann.offset_s}]s exceeds record "
                    f"duration {self.duration_s:.1f}s"
                )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs

    def channel(self, name: str) -> np.ndarray:
        """Return the 1-D samples of the named channel."""
        try:
            idx = self.channel_names.index(name)
        except ValueError:
            raise DataError(
                f"no channel {name!r}; have {self.channel_names}"
            ) from None
        return self.data[idx]

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def crop(self, t0: float, t1: float) -> "EEGRecord":
        """Return the sub-record covering [t0, t1) seconds.

        Annotations are clipped to the window and re-based so that time 0
        of the result corresponds to ``t0``; annotations falling entirely
        outside are dropped.
        """
        if not 0 <= t0 < t1 <= self.duration_s + 1e-9:
            raise DataError(
                f"crop [{t0}, {t1}) outside record of {self.duration_s:.1f}s"
            )
        i0 = int(round(t0 * self.fs))
        i1 = int(round(t1 * self.fs))
        anns = []
        for ann in self.annotations:
            if ann.overlaps(t0, t1):
                anns.append(
                    SeizureAnnotation(
                        onset_s=max(ann.onset_s, t0) - t0,
                        offset_s=min(ann.offset_s, t1) - t0,
                        source=ann.source,
                    )
                )
        return EEGRecord(
            data=self.data[:, i0:i1].copy(),
            fs=self.fs,
            channel_names=self.channel_names,
            annotations=anns,
            patient_id=self.patient_id,
            record_id=f"{self.record_id}[{t0:.0f}-{t1:.0f}s]",
        )

    # ------------------------------------------------------------------
    # Label masks
    # ------------------------------------------------------------------
    def sample_mask(self) -> np.ndarray:
        """Boolean per-sample mask: True inside any seizure annotation."""
        mask = np.zeros(self.n_samples, dtype=bool)
        for ann in self.annotations:
            i0 = int(round(ann.onset_s * self.fs))
            i1 = int(round(ann.offset_s * self.fs))
            mask[i0:i1] = True
        return mask

    def window_labels(
        self, window_s: float, step_s: float, min_overlap: float = 0.5
    ) -> np.ndarray:
        """Per-window binary labels for a sliding-window classifier.

        A window is labeled seizure (1) when at least ``min_overlap`` of
        its span intersects an annotation — the standard convention for
        training window-level detectors on interval labels.
        """
        return duration_window_labels(
            self.annotations, self.duration_s, window_s, step_s, min_overlap
        )

    @property
    def seizure_count(self) -> int:
        return len(self.annotations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EEGRecord(patient={self.patient_id!r}, record={self.record_id!r}, "
            f"{self.n_channels}ch x {self.duration_s:.1f}s @ {self.fs:g}Hz, "
            f"{self.seizure_count} seizure(s))"
        )


def duration_window_labels(
    annotations: list[SeizureAnnotation],
    duration_s: float,
    window_s: float,
    step_s: float,
    min_overlap: float = 0.5,
) -> np.ndarray:
    """Per-window labels for a record known only by its duration.

    The single home of the duration -> window-count conversion:
    :meth:`EEGRecord.window_labels` and the streaming
    :meth:`~repro.data.sources.RecordSource.window_labels` both delegate
    here, so the batch and streamed scoring paths cannot drift on the
    edge handling.
    """
    positive(step_s, "step", DataError)
    n_win = int((duration_s - window_s) // step_s) + 1 if (
        duration_s >= window_s
    ) else 0
    return interval_window_labels(
        list(annotations), n_win, window_s, step_s, min_overlap
    )


def interval_window_labels(
    annotations: list[SeizureAnnotation],
    n_windows: int,
    window_s: float,
    step_s: float,
    min_overlap: float = 0.5,
) -> np.ndarray:
    """Binary per-window labels of annotation intervals (1 = seizure).

    The single home of the window/annotation overlap convention: a
    window is positive when at least ``min_overlap`` of its span
    intersects an annotation.  :meth:`EEGRecord.window_labels` and the
    cohort engine's predicted-label masks both delegate here, so the
    convention cannot drift between the truth and prediction sides.
    """
    within(min_overlap, "min_overlap", DataError, 0, 1, low_open=True)
    t0 = np.arange(max(n_windows, 0)) * step_s
    t1 = t0 + window_s
    inter = np.zeros(t0.size)
    for a in annotations:
        inter += a.intersection_s(t0, t1)
    return (inter >= min_overlap * window_s).astype(np.int64)
