"""Real-time detection service.

The live-path counterpart of the batch cohort pipeline: per-patient
:class:`~repro.service.session.DetectorSession` streams hosted by a
:class:`~repro.service.manager.SessionManager` (bounded ingest queues,
explicit backpressure, per-session ordering), fronted by the asyncio
:class:`~repro.service.ingest.DetectionService` (in-process async API
and a length-prefixed socket protocol), exercised by the wall-clock
:class:`~repro.service.replayer.Replayer`, and observed through
:class:`~repro.service.telemetry.ServiceTelemetry` (ingest→decision
latency percentiles, queue depth, shed counts).  For multi-core hosts,
:class:`~repro.service.fleet.ServiceShardPool` runs N such services as
worker processes behind one listener with session-sticky routing and
merged fleet telemetry.

The binding contract: a record streamed through a session produces
per-window decisions byte-identical to
:func:`~repro.service.session.batch_window_decisions` on the same
record, for any chunking — the batch/stream parity discipline extended
to the live path.
"""

from .. import _lazy_exports

__all__ = [
    "AdmissionGate",
    "DetectionService",
    "DetectorSession",
    "FeatureThresholdDetector",
    "ForestWindowDetector",
    "IngestResult",
    "LatencySummary",
    "PROTOCOL_VERSION",
    "ReplayReport",
    "Replayer",
    "ServiceClient",
    "ServiceConfig",
    "ServiceShardPool",
    "ServiceTelemetry",
    "SessionManager",
    "SessionSummary",
    "WindowDecision",
    "WindowDetector",
    "batch_window_decisions",
    "decisions_from_scores",
    "detector_from_state",
    "detector_state_of",
    "shard_index_of",
    "telemetry_to_json",
]

_EXPORTS = {
    ".admission": ("AdmissionGate",),
    ".client": ("ServiceClient",),
    ".config": ("ServiceConfig",),
    ".fleet": ("ServiceShardPool", "shard_index_of"),
    ".framing": ("PROTOCOL_VERSION",),
    ".ingest": ("DetectionService",),
    ".manager": ("IngestResult", "SessionManager", "SessionSummary"),
    ".replayer": ("Replayer", "ReplayReport"),
    ".session": (
        "DetectorSession", "FeatureThresholdDetector", "ForestWindowDetector", "WindowDecision",
        "WindowDetector", "batch_window_decisions", "decisions_from_scores", "detector_from_state",
        "detector_state_of",
    ),
    ".telemetry": ("LatencySummary", "ServiceTelemetry", "telemetry_to_json"),
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
