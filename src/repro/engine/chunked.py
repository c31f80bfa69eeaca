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
one array.  An in-memory record goes through the same path wrapped in
an :class:`~repro.data.sources.ArrayRecordSource` (see
:func:`repro.api.extract`).

This is the invocation the engine's equivalence contract is stated
against: chunked extraction == batch extraction at any chunk size, hence
engine results == sequential-pipeline results.
"""

from __future__ import annotations


import numpy as np

from ..data.sources import RecordSource
from ..exceptions import FeatureError, positive
from ..features.base import FeatureExtractor, FeatureMatrix
from ..features.paper10 import Paper10FeatureExtractor
from ..core.streaming import StreamingFeatureExtractor
from ..settings import DEFAULT_CHUNK_S
from ..signals.windowing import WindowSpec

__all__ = ["DEFAULT_CHUNK_S", "extract_features_from_source"]


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
        Samples are streamed in chunks of this many seconds, but never
        less than one window step: every push re-buffers up to one
        window of history, so one-sample chunks would cost
        O(n_samples * window).  Results are identical at any size.

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
    positive(chunk_s, "chunk_s", FeatureError)
    if spec.n_windows(source.n_samples, source.fs) == 0:
        raise FeatureError(
            f"record of {source.duration_s:.1f}s shorter than one "
            f"{spec.length_s:.1f}s window"
        )

    stream = StreamingFeatureExtractor(
        extractor, fs=source.fs, spec=spec, n_channels=source.n_channels
    )
    parts = []
    # Chunks of at least one step: RecordSource.chunk_samples rounds
    # seconds to samples exactly as WindowSpec.step_samples does.
    for chunk in source.iter_chunks(max(chunk_s, spec.step_s)):
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
