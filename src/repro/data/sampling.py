"""Evaluation-sample iteration: the Sec. VI-A test-generation protocol.

"Each sample consists of an EEG signal of random duration ranging between
30 minutes and 1 hour that contains a single epileptic seizure.  For each
one of the 45 epileptic seizures contained in the database, 100 different
samples were produced, resulting in a total of 4500 test samples."

This module provides the iteration helpers the benchmarks use, with the
sample count and duration range as explicit knobs (the repository default
shrinks both so the full harness runs on a laptop; set the paper values to
replicate the original scale — see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..exceptions import DataError, integer
from .dataset import SeizureEvent, SyntheticEEGDataset, check_duration_range
from .records import EEGRecord

__all__ = [
    "EvaluationSample",
    "iter_evaluation_samples",
]

#: Repository defaults chosen so the full 45-seizure harness finishes in
#: minutes rather than hours.
DEFAULT_SAMPLES_PER_SEIZURE = 3
DEFAULT_DURATION_RANGE_S = (480.0, 900.0)
PAPER_DURATION_RANGE_S = (1800.0, 3600.0)


@dataclass(frozen=True)
class EvaluationSample:
    """One generated test sample plus its provenance."""

    event: SeizureEvent
    sample_index: int
    record: EEGRecord


def iter_evaluation_samples(
    dataset: SyntheticEEGDataset,
    samples_per_seizure: int,
    patient_id: int | None = None,
    duration_range_s: tuple[float, float] | None = None,
) -> Iterator[EvaluationSample]:
    """Yield evaluation samples for every seizure (optionally one patient).

    ``samples_per_seizure`` is an integer >= 1; it, ``patient_id`` and
    ``duration_range_s`` are checked on the call, not on the first
    sample.  Records are generated lazily; nothing is cached, so memory
    stays flat regardless of the total sample count.
    """
    integer(samples_per_seizure, "samples_per_seizure", DataError, 1)
    if duration_range_s is not None:
        check_duration_range(duration_range_s)
    return (
        EvaluationSample(
            event=event,
            sample_index=sample_index,
            record=dataset.generate_sample(
                event.patient_id,
                event.seizure_index,
                sample_index,
                duration_range_s=duration_range_s,
            ),
        )
        for event in dataset.seizure_events(patient_id)
        for sample_index in range(samples_per_seizure)
    )
