"""Chunked, memory-bounded feature extraction (the engine's record path).

Long records never need to be windowed in one shot: the engine feeds the
signal through :class:`~repro.core.streaming.StreamingFeatureExtractor`
in bounded chunks, so peak memory stays at one chunk plus one window of
slack regardless of record length, while the produced feature matrix is
bit-identical to :func:`repro.features.extraction.extract_features` (the
streaming extractor featurizes exactly the same sample ranges).

Since the streaming data-plane refactor the input is a
:class:`~repro.data.sources.RecordSource`, so the *signal itself* is
produced in bounded chunks too — a multi-hour synthetic or EDF record
flows source -> chunks -> streaming extractor without ever existing as
one array.  :func:`extract_features_chunked` keeps the original
record-taking signature by wrapping in an
:class:`~repro.data.sources.ArrayRecordSource`.

This is the invocation the engine's equivalence contract is stated
against: chunked extraction == batch extraction at any chunk size, hence
engine results == sequential-pipeline results.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from ..data.records import EEGRecord
from ..data.sources import ArrayRecordSource, RecordSource
from ..exceptions import FeatureError
from ..features.base import FeatureExtractor, FeatureMatrix
from ..features.paper10 import Paper10FeatureExtractor
from ..core.streaming import StreamingFeatureExtractor
from ..signals.windowing import WindowSpec

__all__ = [
    "DEFAULT_CHUNK_S",
    "coalesce_chunks",
    "extract_features_chunked",
    "extract_features_from_source",
]

#: Default chunk length fed to the streaming extractor (seconds).  At the
#: paper's 256 Hz x 2 channels this bounds the working set to ~240 kB per
#: in-flight chunk regardless of record duration.
DEFAULT_CHUNK_S = 60.0


def coalesce_chunks(
    chunks: Iterable[np.ndarray], min_samples: int
) -> Iterator[np.ndarray]:
    """Merge successive chunks until each emitted piece has at least
    ``min_samples`` samples (the final piece may be shorter).

    Guards the extractor push path against pathologically small
    ``chunk_s``: every ``StreamingFeatureExtractor.push`` re-buffers up
    to one window of history, so pushing one-sample chunks would cost
    O(n_samples * window) — quadratic-feeling on long records.  Coalesced
    to at least one window step, the push count (and hence total
    re-buffering) is the same as running at ``chunk_s == step_s``, while
    results stay bit-identical (the streaming extractor is invariant to
    how the sample stream is split).  Memory stays bounded: at most
    ``min_samples`` plus one producer chunk is ever held.
    """
    if min_samples < 1:
        raise FeatureError(f"min_samples must be >= 1, got {min_samples}")
    pending: list[np.ndarray] = []
    have = 0
    for chunk in chunks:
        pending.append(chunk)
        have += chunk.shape[1]
        if have >= min_samples:
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


def extract_features_from_source(
    source: RecordSource,
    extractor: FeatureExtractor | None = None,
    spec: WindowSpec | None = None,
    chunk_s: float = DEFAULT_CHUNK_S,
) -> FeatureMatrix:
    """Extract every sliding-window feature row of a streamed record.

    The end-to-end bounded-memory path: signal chunks come straight off
    the source (regenerated synthetic blocks, incrementally decoded EDF
    data records, or slices of an in-memory array) and flow through the
    streaming extractor; nothing longer than one chunk plus one window
    is ever alive.

    Parameters
    ----------
    source:
        The record's signal stream plus metadata.
    extractor:
        Feature definition (default: the paper's 10 features).
    spec:
        Window geometry; defaults to the paper's 4 s / 1 s step.
    chunk_s:
        Samples are streamed in chunks of this many seconds.  Chunks
        smaller than one window step are coalesced before pushing (see
        :func:`coalesce_chunks`); results are identical either way.

    Returns
    -------
    FeatureMatrix
        Identical (bit-for-bit) to batch :func:`extract_features` over
        the materialized record, for any ``chunk_s``.

    Raises
    ------
    FeatureError
        If the record is shorter than one window (same contract as the
        batch path — zero-row matrices are never silently produced) or
        ``chunk_s`` is not finite and positive.
    """
    extractor = extractor or Paper10FeatureExtractor()
    spec = spec or WindowSpec(length_s=4.0, step_s=1.0)
    if not (math.isfinite(chunk_s) and chunk_s > 0):
        raise FeatureError(f"chunk_s must be finite and positive, got {chunk_s}")
    if spec.n_windows(source.n_samples, source.fs) == 0:
        raise FeatureError(
            f"record of {source.duration_s:.1f}s shorter than one "
            f"{spec.length_s:.1f}s window"
        )

    stream = StreamingFeatureExtractor(
        extractor, fs=source.fs, spec=spec, n_channels=source.n_channels
    )
    min_push = max(1, spec.step_samples(source.fs))
    parts = []
    for chunk in coalesce_chunks(source.iter_chunks(chunk_s), min_push):
        rows = stream.push(chunk)
        if rows.size:
            parts.append(rows)
    stream.finalize()

    return FeatureMatrix(
        values=np.concatenate(parts, axis=0),
        feature_names=extractor.feature_names,
        spec=spec,
        fs=source.fs,
    )


def extract_features_chunked(
    record: EEGRecord,
    extractor: FeatureExtractor | None = None,
    spec: WindowSpec | None = None,
    chunk_s: float = DEFAULT_CHUNK_S,
) -> FeatureMatrix:
    """Extract every sliding-window feature row of ``record`` chunk-wise.

    The in-memory compatibility form of
    :func:`extract_features_from_source` (the record is wrapped in an
    :class:`~repro.data.sources.ArrayRecordSource`); same results, same
    error contract, ``chunk_s`` of any positive size accepted.
    """
    return extract_features_from_source(
        ArrayRecordSource(record), extractor, spec, chunk_s
    )
