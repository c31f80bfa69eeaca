"""Per-patient detector sessions: push chunks in, poll decisions out.

A :class:`DetectorSession` is the unit the real-time service hosts by
the thousands: one patient's live stream, wrapped behind a two-call API
(:meth:`~DetectorSession.push_chunk` / :meth:`~DetectorSession
.poll_events`).  Internally it is exactly the batch pipeline run
incrementally — a :class:`~repro.core.streaming.StreamingFeatureExtractor`
(bit-identical to batch extraction by the established streaming
contract) feeding a :class:`WindowDetector` that scores each completed
window.

Parity contract
---------------
:func:`batch_window_decisions` is the batch counterpart: extract every
window of a materialized record, score with the *same* detector code.
Both paths funnel through :func:`decisions_from_scores`, so for any
record, ``session decisions == batch decisions`` byte for byte —
whatever chunk sizes the stream arrived in.  The service test suite and
the latency benchmark assert this, extending the repository's
equivalence discipline (engine vs. sequential, shards vs. single-node,
kernel backends) to the live path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.streaming import StreamingFeatureExtractor
from ..data.records import EEGRecord
from ..exceptions import ServiceError, finite, integer
from ..features.extraction import extract_features
from ..selflearning.detector import RealTimeDetector
from .config import ServiceConfig

__all__ = [
    "WindowDecision",
    "WindowDetector",
    "FeatureThresholdDetector",
    "ForestWindowDetector",
    "DetectorSession",
    "batch_window_decisions",
    "decisions_from_scores",
    "detector_from_state",
    "detector_state_of",
]


@dataclass(frozen=True)
class WindowDecision:
    """One per-window detector verdict, in stream time.

    ``window_index`` counts complete windows since the session opened
    (equal to the batch feature-row index for the same signal);
    ``onset_s`` is the window's start in seconds since the first sample.
    """

    window_index: int
    onset_s: float
    score: float
    positive: bool

    def to_dict(self) -> dict:
        return {
            "window_index": self.window_index,
            "onset_s": self.onset_s,
            "score": self.score,
            "positive": self.positive,
        }


class WindowDetector(ABC):
    """Scores batches of feature rows; a row is positive past
    :attr:`threshold`.

    Implementations must be *pure per row* — row ``i``'s score depends
    only on row ``i`` — which is what makes streaming decisions (rows
    arriving in arbitrary batch sizes) bitwise identical to batch
    decisions over the whole matrix.
    """

    threshold: float = 0.0

    @abstractmethod
    def scores(self, rows: np.ndarray) -> np.ndarray:
        """Score an ``(n_windows, n_features)`` block, one value per row."""


class FeatureThresholdDetector(WindowDetector):
    """Training-free detector: threshold one feature column.

    The degenerate-but-deterministic baseline the service tests and the
    latency benchmark use — no fitted state to ship, and trivially pure
    per row.  ``feature_index`` selects the scored column of the
    configured extractor's output.  ``threshold`` refuses NaN; as for
    :attr:`ServiceConfig.threshold`, ``+inf`` means no finite score is
    ever positive and ``-inf`` that every window is.
    """

    def __init__(self, feature_index: int = 0, threshold: float = 0.0) -> None:
        self.feature_index = integer(feature_index, "feature_index", ServiceError)
        self.threshold = float(finite(threshold, "threshold", ServiceError, inf=True))

    def scores(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] <= self.feature_index:
            raise ServiceError(
                f"need (n, >={self.feature_index + 1}) feature rows, "
                f"got shape {rows.shape}"
            )
        return rows[:, self.feature_index]


class ForestWindowDetector(WindowDetector):
    """The Sec. III-C supervised detector as a session detector.

    Wraps a fitted :class:`~repro.selflearning.detector.RealTimeDetector`
    and scores rows with its probability path
    (:meth:`~repro.selflearning.detector.RealTimeDetector
    .row_probabilities`) — shared code, so a record streamed through a
    session gets the exact probabilities
    :meth:`RealTimeDetector.window_probabilities` computes in batch.
    The session's extractor must match the wrapped detector's.
    """

    def __init__(self, detector: RealTimeDetector) -> None:
        if not detector.is_fitted:
            raise ServiceError(
                "ForestWindowDetector needs a fitted RealTimeDetector"
            )
        self.detector = detector
        self.threshold = float(detector.threshold)

    def scores(self, rows: np.ndarray) -> np.ndarray:
        return self.detector.row_probabilities(rows)


def detector_from_state(state: dict) -> ForestWindowDetector:
    """Rebuild a :class:`ForestWindowDetector` from a serialized
    :meth:`RealTimeDetector.to_state` payload.

    The deserialization point every IPC surface shares — the ``open``
    frame's optional ``state`` field and the ``swap_detector`` verb —
    so a forest retrained by the self-learning loop crosses process
    boundaries exactly one way.  Scoring is bit-identical to the
    original fitted detector (float64 survives the JSON round trip).
    """
    if not isinstance(state, dict):
        raise ServiceError(
            f"detector state must be a JSON object, got {type(state).__name__}"
        )
    return ForestWindowDetector(RealTimeDetector.from_state(state))


def detector_state_of(
    detector: "RealTimeDetector | ForestWindowDetector | dict",
) -> dict:
    """Normalize any hot-swap argument to its serialized state — the
    inverse entry point of :func:`detector_from_state`, shared by the
    shard pool's broadcast and the socket client."""
    if isinstance(detector, ForestWindowDetector):
        detector = detector.detector
    if isinstance(detector, RealTimeDetector):
        return detector.to_state()
    if isinstance(detector, dict):
        return detector
    raise ServiceError(
        f"cannot serialize {type(detector).__name__}: need a fitted "
        f"RealTimeDetector, ForestWindowDetector, or its state dict"
    )


def decisions_from_scores(
    scores: np.ndarray, first_index: int, step_s: float, threshold: float
) -> list[WindowDecision]:
    """Materialize decisions for consecutively-indexed windows.

    The single construction point both the streaming session and the
    batch counterpart use — parity by code sharing, not re-derivation.
    """
    return [
        WindowDecision(
            window_index=first_index + i,
            onset_s=(first_index + i) * step_s,
            score=float(scores[i]),
            positive=bool(scores[i] >= threshold),
        )
        for i in range(len(scores))
    ]


def batch_window_decisions(
    record: EEGRecord,
    detector: WindowDetector | None = None,
    config: ServiceConfig | None = None,
) -> list[WindowDecision]:
    """The batch pipeline's verdicts for a whole record.

    Extracts every sliding-window feature row at once (the pre-service
    path) and scores with the same detector code a
    :class:`DetectorSession` runs incrementally.  This is the reference
    side of the service parity contract.
    """
    config = config or ServiceConfig()
    detector = detector or FeatureThresholdDetector(
        threshold=config.threshold
    )
    feats = extract_features(record, config.extractor, config.spec)
    scores = detector.scores(feats.values)
    return decisions_from_scores(
        scores, 0, config.spec.step_s, detector.threshold
    )


class DetectorSession:
    """One live patient stream behind a push/poll API.

    ``push_chunk`` accepts an ``(n_channels, n)`` sample block (any
    size, including partial windows), featurizes every window that
    completes inside it, scores the rows, and buffers the resulting
    :class:`WindowDecision` events until ``poll_events`` collects them.
    Between pushes the session holds less than one window of signal, in
    a buffer the streaming extractor bounds; during a push it holds one
    window plus the pushed block (one chunk, or one joined block of
    :meth:`push_chunks`).  Decisions accumulate only until polled.

    Lifecycle: ``closed`` sessions refuse pushes.  :meth:`finalize`
    declares the stream finished and mirrors
    :meth:`StreamingFeatureExtractor.finalize` exactly — it emits no
    trailing windows (a partial tail window is discarded, as in batch
    extraction) and raises :class:`~repro.exceptions.FeatureError` if
    the whole stream was shorter than one window, so a disconnecting
    client cannot silently produce an empty decision stream the batch
    path would have refused.
    """

    def __init__(
        self,
        session_id: str,
        config: ServiceConfig | None = None,
        detector: WindowDetector | None = None,
    ) -> None:
        self.session_id = str(session_id)
        self.config = config or ServiceConfig()
        self.detector = detector or FeatureThresholdDetector(
            threshold=self.config.threshold
        )
        self.stream = StreamingFeatureExtractor(
            self.config.extractor,
            self.config.fs,
            self.config.spec,
            self.config.n_channels,
        )
        self._events: deque[WindowDecision] = deque()
        self.samples_ingested = 0
        self.chunks_ingested = 0
        self.closed = False

    # ------------------------------------------------------------------
    @property
    def windows_emitted(self) -> int:
        return self.stream.windows_emitted

    @property
    def pending_events(self) -> int:
        return len(self._events)

    def push_chunk(self, chunk: np.ndarray) -> int:
        """Ingest one sample block; returns the number of windows that
        completed (and were decided) inside it."""
        return self.push_chunks((chunk,))

    def push_chunks(self, chunks: Sequence[np.ndarray]) -> int:
        """Ingest consecutive sample blocks with one extraction and one
        scoring call; each still counts as one chunk.  The blocks are
        copied straight into the stream's buffer, never joined into one
        array first.  Returns the number of windows that completed
        inside them.

        The decisions are those of pushing the blocks one at a time:
        streaming extraction gives the same bits at any chunking, and
        detectors score per row.
        """
        if self.closed:
            raise ServiceError(
                f"session {self.session_id!r} is closed"
            )
        rows = self.stream.push_chunks(chunks)
        self.chunks_ingested += len(chunks)
        self.samples_ingested += sum(np.shape(chunk)[-1] for chunk in chunks)
        n_new = rows.shape[0]
        if n_new:
            first = self.stream.windows_emitted - n_new
            scores = self.detector.scores(rows)
            self._events.extend(
                decisions_from_scores(
                    scores, first, self.config.spec.step_s,
                    self.detector.threshold,
                )
            )
        return n_new

    def poll_events(self, max_events: int | None = None) -> list[WindowDecision]:
        """Drain buffered decisions (oldest first), up to ``max_events``."""
        if max_events is not None:
            integer(max_events, "max_events", ServiceError, 1)
        take = (
            len(self._events)
            if max_events is None
            else min(max_events, len(self._events))
        )
        return [self._events.popleft() for _ in range(take)]

    def finalize(self) -> int:
        """Close the stream; returns total windows ever emitted.

        Exactly :meth:`StreamingFeatureExtractor.finalize`'s contract
        (shared by delegation): no trailing window is synthesized for a
        partial tail, and a stream shorter than one window raises
        :class:`~repro.exceptions.FeatureError`.  Already-buffered
        events stay pollable after finalize.
        """
        total = self.stream.finalize()
        self.closed = True
        return total
