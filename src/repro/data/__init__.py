"""EEG data substrate: montage, records, synthetic cohort, EDF I/O.

Replaces the paper's CHB-MIT database (see DESIGN.md for the substitution
rationale): a deterministic synthetic cohort of 9 patients / 45 seizures
with paper-matched structure, plus EDF-format persistence.
"""

from .artifacts import ArtifactSpec, artifact_waveforms, generate_artifact
from .dataset import SeizureEvent, SyntheticEEGDataset
from .edf import (
    EDFHeader,
    load_record,
    read_edf,
    read_edf_header,
    read_summary,
    save_record,
    write_edf,
    write_summary,
)
from .sources import (
    DEFAULT_SOURCE_CHUNK_S,
    ArrayRecordSource,
    EDFRecordSource,
    RecordSource,
    SignalPatch,
    SyntheticRecordSource,
    rechunk,
    record_content_digest,
)
from .montage import (
    ELECTRODES_1020,
    F7T3,
    F8T4,
    PAPER_PAIRS,
    BipolarPair,
    bipolar_from_referential,
)
from .patients import PAPER_PATIENTS, PatientProfile, patient_by_id
from .records import EEGRecord, SeizureAnnotation
from .sampling import (
    DEFAULT_DURATION_RANGE_S,
    DEFAULT_SAMPLES_PER_SEIZURE,
    PAPER_DURATION_RANGE_S,
    EvaluationSample,
    iter_evaluation_samples,
)
from .seizures import SeizureMorphology, generate_ictal
from .synthetic import (
    GEN_BLOCK_S,
    BackgroundEEGModel,
    block_spans,
    draw_block_entropy,
    pink_noise,
    smooth_envelope,
)

__all__ = [
    "ArtifactSpec",
    "artifact_waveforms",
    "generate_artifact",
    "SeizureEvent",
    "SyntheticEEGDataset",
    "EDFHeader",
    "load_record",
    "read_edf",
    "read_edf_header",
    "read_summary",
    "save_record",
    "write_edf",
    "write_summary",
    "DEFAULT_SOURCE_CHUNK_S",
    "ArrayRecordSource",
    "EDFRecordSource",
    "RecordSource",
    "SignalPatch",
    "SyntheticRecordSource",
    "rechunk",
    "record_content_digest",
    "ELECTRODES_1020",
    "F7T3",
    "F8T4",
    "PAPER_PAIRS",
    "BipolarPair",
    "bipolar_from_referential",
    "PAPER_PATIENTS",
    "PatientProfile",
    "patient_by_id",
    "EEGRecord",
    "SeizureAnnotation",
    "EvaluationSample",
    "DEFAULT_DURATION_RANGE_S",
    "DEFAULT_SAMPLES_PER_SEIZURE",
    "PAPER_DURATION_RANGE_S",
    "iter_evaluation_samples",
    "SeizureMorphology",
    "generate_ictal",
    "GEN_BLOCK_S",
    "BackgroundEEGModel",
    "block_spans",
    "draw_block_entropy",
    "pink_noise",
    "smooth_envelope",
]
