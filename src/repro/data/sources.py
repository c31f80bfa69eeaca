"""Streaming record sources: bounded-memory access to EEG signal.

The paper's workload is long-duration wearable monitoring — records are
hours long, and the device-class constraint is a bounded working set.
:class:`RecordSource` is the data-plane abstraction that carries a
record's *metadata* (geometry, ids, expert annotations) eagerly while
yielding its *signal* lazily in bounded chunks, so the cohort engine can
digest, extract and label a multi-hour record without ever materializing
the full waveform.

Three implementations, each bit-identical to its batch counterpart:

* :class:`SyntheticRecordSource` — every synthetic record (Sec. VI-A
  evaluation samples, seizure-free records, Fig. 1 monitoring records)
  as a stream: background blocks regenerated from deterministic
  per-block RNG substreams (:func:`repro.data.synthetic.draw_block_entropy`
  keying), with the small seizure/artifact overlays mixed into each
  chunk.  Artifact overlays are precomputed; a seizure overlay is held
  as its draw (the generator state before it) and shaped when the
  record is first streamed.  ``concat(iter_chunks(any chunk size)) ==
  SyntheticEEGDataset.generate_sample(...).data`` — in fact every
  ``generate_*`` record *is* :meth:`materialize`.
* :class:`EDFRecordSource` — incremental EDF reading: the header is
  parsed from a bounded read, data records are decoded in groups, and
  ``concat(iter_chunks(...)) == read_edf(path).data`` (``read_edf`` is
  implemented on top of this class).
* :class:`ArrayRecordSource` — wraps an in-memory :class:`EEGRecord`
  for backward compatibility, so every batch caller is also a source
  caller.

A record's cache/store identity is :meth:`RecordSource.recipe_digest`
when the source has one — a synthetic record is a pure function of its
recipe, so hashing the recipe costs microseconds and no signal pass;
the seizure overlay enters it as its recipe (saved generator state,
duration, morphology, background level), not its samples, so keying a
record synthesizes nothing — and otherwise
:func:`record_content_digest`, the identity of streamed content:
per-channel digests folded into one, invariant to the chunk size used
to stream.  Either way a disk-store entry written at
``--chunk-s 60`` hits at ``--chunk-s 5``.
"""

from __future__ import annotations

import functools
import hashlib
import os
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator

import numpy as np

from ..exceptions import DataError, integer, positive
from .records import EEGRecord, SeizureAnnotation, duration_window_labels
from .synthetic import GENERATOR_VERSION, BackgroundEEGModel

__all__ = [
    "DEFAULT_SOURCE_CHUNK_S",
    "ArrayRecordSource",
    "EDFRecordSource",
    "RecordSource",
    "SignalPatch",
    "SyntheticRecordSource",
    "rechunk",
    "record_content_digest",
]

#: Default chunk length (seconds) when a caller does not specify one.
#: Matches the engine's extraction default: ~240 kB in flight at the
#: paper's 256 Hz x 2 channels.
DEFAULT_SOURCE_CHUNK_S = 60.0


def rechunk(
    chunks: Iterable[np.ndarray], chunk_samples: int
) -> Iterator[np.ndarray]:
    """Re-slice a stream of (n_channels, k) arrays into ``chunk_samples``
    pieces (the final piece may be shorter).

    Carries at most one producer chunk plus one consumer chunk of slack,
    so re-chunking never changes the memory bound.  Emitted arrays may be
    views into producer chunks; each sample range is emitted exactly
    once, so in-place mutation by the consumer is safe.
    """
    integer(chunk_samples, "chunk_samples", DataError, 1)
    pending: list[np.ndarray] = []
    have = 0
    for chunk in chunks:
        while chunk.shape[1] > 0:
            take = min(chunk_samples - have, chunk.shape[1])
            pending.append(chunk[:, :take])
            have += take
            chunk = chunk[:, take:]
            if have == chunk_samples:
                yield (
                    pending[0]
                    if len(pending) == 1
                    else np.concatenate(pending, axis=1)
                )
                pending, have = [], 0
    if pending:
        yield (
            pending[0] if len(pending) == 1 else np.concatenate(pending, axis=1)
        )


class RecordSource(ABC):
    """A record whose metadata is eager and whose signal is streamed.

    Subclasses provide the geometry/provenance attributes and
    :meth:`iter_chunks`; everything else (duration, window labels,
    materialization) derives from those.  The streaming contract is that
    ``np.concatenate(list(self.iter_chunks(cs)), axis=1)`` is the same
    array — bit for bit — for every chunk size ``cs``.
    """

    fs: float
    n_channels: int
    n_samples: int
    channel_names: tuple[str, ...]
    annotations: tuple[SeizureAnnotation, ...]
    patient_id: str
    record_id: str

    @abstractmethod
    def iter_chunks(
        self, chunk_s: float = DEFAULT_SOURCE_CHUNK_S
    ) -> Iterator[np.ndarray]:
        """Yield the signal as successive (n_channels, <=chunk) arrays."""

    def recipe_digest(self) -> str | None:
        """A cheap identity that fixes the signal without streaming it,
        or ``None`` when only the content itself can (files, arrays):
        the cache then keys by :func:`record_content_digest`."""
        return None

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs

    def chunk_samples(self, chunk_s: float) -> int:
        """Samples per streamed chunk for a chunk length in seconds."""
        positive(chunk_s, "chunk_s", DataError)
        return max(1, int(round(chunk_s * self.fs)))

    def window_labels(
        self, window_s: float, step_s: float, min_overlap: float = 0.5
    ) -> np.ndarray:
        """Per-window truth labels, exactly as
        :meth:`EEGRecord.window_labels` computes them (shared
        :func:`~repro.data.records.duration_window_labels` helper, so
        the two paths cannot drift) — metadata only, no signal."""
        return duration_window_labels(
            list(self.annotations), self.duration_s, window_s, step_s,
            min_overlap,
        )

    def materialize(
        self, chunk_s: float = DEFAULT_SOURCE_CHUNK_S
    ) -> EEGRecord:
        """Assemble the full in-memory :class:`EEGRecord`.

        The result is independent of ``chunk_s`` (the streaming
        contract); the parameter only tunes the transient assembly cost.
        """
        data = np.concatenate(list(self.iter_chunks(chunk_s)), axis=1)
        return EEGRecord(
            data=data,
            fs=self.fs,
            channel_names=self.channel_names,
            annotations=list(self.annotations),
            patient_id=self.patient_id,
            record_id=self.record_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(record={self.record_id!r}, "
            f"{self.n_channels}ch x {self.duration_s:.1f}s @ {self.fs:g}Hz)"
        )


class ArrayRecordSource(RecordSource):
    """A :class:`RecordSource` view of an in-memory :class:`EEGRecord`.

    The backward-compatibility shim: every batch caller becomes a source
    caller by wrapping, and :meth:`materialize` returns the original
    record object (no copy).
    """

    def __init__(self, record: EEGRecord) -> None:
        self.record = record
        self.fs = record.fs
        self.n_channels = record.n_channels
        self.n_samples = record.n_samples
        self.channel_names = tuple(record.channel_names)
        self.annotations = tuple(record.annotations)
        self.patient_id = record.patient_id
        self.record_id = record.record_id

    def iter_chunks(
        self, chunk_s: float = DEFAULT_SOURCE_CHUNK_S
    ) -> Iterator[np.ndarray]:
        step = self.chunk_samples(chunk_s)
        data = self.record.data
        for start in range(0, self.n_samples, step):
            yield data[:, start : start + step]

    def materialize(self, chunk_s: float = DEFAULT_SOURCE_CHUNK_S) -> EEGRecord:
        return self.record


class SignalPatch:
    """An additive overlay on one channel of the background.

    The synthesized record is *defined* as background blocks plus
    patches applied in list order; because patches are pure additions on
    fixed sample spans, applying each chunk's overlapping slices in that
    same order gives the same bits at every chunk size.

    ``wave`` is the channel's waveform, or a zero-argument callable that
    shapes it.  A callable is called once, by the first :meth:`shape`,
    and its result is kept; it needs ``size`` and ``recipe`` (a
    ``repr``-stable value that fixes the wave, hashed by
    :meth:`SyntheticRecordSource.recipe_digest` in place of the wave's
    bytes).  A patch given its array is the case already shaped: its
    size is the array's and its identity is its bytes.
    """

    __slots__ = ("channel", "start", "size", "recipe", "_wave")

    def __init__(
        self,
        channel: int,
        start: int,
        wave: np.ndarray | Callable[[], np.ndarray],
        size: int | None = None,
        recipe: object = None,
    ) -> None:
        if callable(wave):
            if size is None or recipe is None:
                raise DataError("a deferred patch needs its size and recipe")
        else:
            wave = np.asarray(wave)
            size = wave.size
        self.channel = channel
        self.start = start
        self.size = int(size)
        self.recipe = recipe
        self._wave = wave

    def shape(self) -> np.ndarray:
        """The wave, shaped now if it was deferred."""
        if callable(self._wave):
            self._wave = self._wave()
        return self._wave

    @property
    def wave(self) -> np.ndarray:
        return self.shape()

    @property
    def stop(self) -> int:
        return self.start + self.size

    def apply(self, chunk: np.ndarray, chunk_start: int) -> None:
        """Add this patch's overlap with ``chunk`` (in place)."""
        chunk_stop = chunk_start + chunk.shape[1]
        lo = max(self.start, chunk_start)
        hi = min(self.stop, chunk_stop)
        if lo < hi:
            chunk[self.channel, lo - chunk_start : hi - chunk_start] += (
                self.wave[lo - self.start : hi - self.start]
            )


@functools.lru_cache(maxsize=1)
def _numpy_build() -> str:
    """numpy's version plus the SIMD target each float64 ufunc loop runs
    on in this process.  Transcendental loops (``exp``, ``sin``) round
    differently per target, so one recipe synthesizes different bits on
    an AVX-512 host than on an AVX2 one; a store shared between the two
    must miss, as the content digest would."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0
        return np.__version__
    targets = sorted(
        (name, sig, info["current"])
        for name, loops in opt_func_info(signature="float64").items()
        for sig, info in loops.items()
    )
    return f"{np.__version__} {targets}"


class SyntheticRecordSource(RecordSource):
    """A synthetic record as a bounded-memory stream.

    Holds the record's *recipe*: the background model plus the entropy
    key seeding its generation blocks, and the small seizure/artifact
    overlay patches (seconds to minutes of waveform) built by one of
    :class:`~repro.data.dataset.SyntheticEEGDataset`'s ``*_source``
    methods; deferred patches are shaped when streaming starts.
    Streaming regenerates background blocks on the fly and mixes in each
    patch's overlap, so peak signal memory is one generation block + one
    chunk regardless of record duration — and ``materialize()`` *is* the
    matching ``generate_*`` result.
    """

    def __init__(
        self,
        model: BackgroundEEGModel,
        entropy: tuple[int, ...],
        n_samples: int,
        fs: float,
        patches: tuple[SignalPatch, ...] = (),
        n_channels: int = 2,
        channel_names: tuple[str, ...] | None = None,
        annotations: tuple[SeizureAnnotation, ...] = (),
        patient_id: str = "",
        record_id: str = "",
    ) -> None:
        integer(n_samples, "n_samples", DataError, 2)
        positive(fs, "sampling rate", DataError)
        integer(n_channels, "n_channels", DataError, 1)
        for patch in patches:
            if not 0 <= patch.channel < n_channels:
                raise DataError(f"patch channel {patch.channel} out of range")
            if patch.start < 0 or patch.stop > n_samples:
                raise DataError(
                    f"patch [{patch.start}, {patch.stop}) does not fit in "
                    f"record of {n_samples} samples"
                )
        self.model = model
        self.entropy = tuple(entropy)
        self.n_samples = int(n_samples)
        self.fs = float(fs)
        self.patches = tuple(patches)
        self.n_channels = int(n_channels)
        if channel_names is None:
            # The paper's bipolar pair for the 2-channel default (the
            # EEGRecord default); synthesized names otherwise.
            channel_names = (
                ("F7T3", "F8T4")
                if n_channels == 2
                else tuple(f"CH{i}" for i in range(n_channels))
            )
        if len(channel_names) != n_channels:
            raise DataError(
                f"{len(channel_names)} channel names for {n_channels} channels"
            )
        self.channel_names = tuple(channel_names)
        self.annotations = tuple(annotations)
        self.patient_id = patient_id
        self.record_id = record_id

    def recipe_digest(self) -> str:
        """Hex digest of everything that fixes the streamed samples.

        The generator version, the numpy build, the background model,
        entropy key and geometry, and every patch in application order:
        its channel, start and size, then its ``recipe`` when it has one
        (a seizure overlay's tag, saved generator state, duration,
        ``fs``, morphology and background level) or else its shape,
        dtype and wave bytes.  Hashing a recipe instead of the wave
        means keying a record shapes none of its overlays.  Equal
        digests mean equal waveforms on any host, so the feature cache
        and disk store key synthetic records by it and never synthesize
        a record just to hash it.  Channel names and annotations are
        metadata, not signal, and stay out (as in the content digest).
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((
            GENERATOR_VERSION, _numpy_build(), self.model, self.entropy,
            self.n_samples, self.fs, self.n_channels,
        )).encode())
        for patch in self.patches:
            if patch.recipe is not None:
                h.update(repr((
                    patch.channel, patch.start, patch.size, patch.recipe,
                )).encode())
                continue
            wave = np.ascontiguousarray(patch.wave)
            h.update(repr((
                patch.channel, patch.start, wave.shape, wave.dtype.str,
            )).encode())
            h.update(wave.tobytes())
        return h.hexdigest()

    def iter_chunks(
        self, chunk_s: float = DEFAULT_SOURCE_CHUNK_S
    ) -> Iterator[np.ndarray]:
        step = self.chunk_samples(chunk_s)
        # Deferred patches are shaped before the first background block
        # exists, so their temporaries never stack on a block in flight.
        for patch in self.patches:
            patch.shape()
        blocks = self.model.iter_blocks(
            self.n_samples, self.fs, self.entropy, self.n_channels
        )
        offset = 0
        for chunk in rechunk(blocks, step):
            for patch in self.patches:
                patch.apply(chunk, offset)
            offset += chunk.shape[1]
            yield chunk


class EDFRecordSource(RecordSource):
    """Incremental reader of a 16-bit EDF file.

    The header is parsed from a bounded read at construction (including
    the fail-fast truncation check); :meth:`iter_chunks` then decodes
    EDF data records in groups and re-slices them to the requested chunk
    size, trimming the writer's zero padding exactly as the batch reader
    does.  ``concat(iter_chunks(any size)) == read_edf(path).data``.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        from .edf import read_edf_header

        self.path = path
        self.header = read_edf_header(path)
        self.fs = self.header.fs
        self.n_channels = self.header.n_signals
        self.n_samples = self.header.n_samples
        self.channel_names = self.header.labels
        self.annotations = ()
        self.patient_id = self.header.patient_id
        self.record_id = self.header.record_id

    def iter_chunks(
        self, chunk_s: float = DEFAULT_SOURCE_CHUNK_S
    ) -> Iterator[np.ndarray]:
        from .edf import iter_edf_record_groups

        step = self.chunk_samples(chunk_s)
        spr = self.header.samples_per_record
        # Read at least one chunk's worth of data records per group so
        # group decoding cost stays amortized at tiny chunk sizes.
        per_read = max(1, -(-step // spr))
        groups = iter_edf_record_groups(self.path, self.header, per_read)
        emitted = 0
        for chunk in rechunk(groups, step):
            if emitted >= self.n_samples:
                return
            if emitted + chunk.shape[1] > self.n_samples:
                chunk = chunk[:, : self.n_samples - emitted]
            emitted += chunk.shape[1]
            yield chunk


def record_content_digest(
    source: RecordSource | EEGRecord,
    chunk_s: float = DEFAULT_SOURCE_CHUNK_S,
    digest_size: int = 16,
) -> str:
    """Content identity of a record's signal, computed by streaming.

    One running digest per channel (a channel's bytes concatenate in
    stream order whatever the chunking), folded into a single hex digest
    — so the value is invariant to the chunk size used to stream *and*
    identical between a source and its materialized record.  This is the
    record component of the feature cache/store key: re-runs over the
    same data hit regardless of ``--chunk-s``.  ``digest_size`` is
    blake2b's, an integer in [1, 64] bytes.
    """
    if integer(digest_size, "digest_size", DataError, 1) > 64:
        raise DataError(f"digest_size must be at most 64, got {digest_size!r}")
    if isinstance(source, EEGRecord):
        source = ArrayRecordSource(source)
    hashers = [
        hashlib.blake2b(digest_size=digest_size)
        for _ in range(source.n_channels)
    ]
    for chunk in source.iter_chunks(chunk_s):
        chunk = np.asarray(chunk, dtype=np.float64)
        for ch in range(source.n_channels):
            hashers[ch].update(np.ascontiguousarray(chunk[ch]).tobytes())
    outer = hashlib.blake2b(digest_size=digest_size)
    for h in hashers:
        outer.update(h.digest())
    return outer.hexdigest()
