"""Work units of the cohort engine.

A :class:`RecordTask` names one evaluation record by its deterministic
coordinates — (patient, seizure, sample) plus an optional duration range
— rather than carrying the record itself.  Workers regenerate the record
from the dataset seed, so fanning a cohort out across processes ships a
few hundred bytes per task instead of megabytes of signal, and any task
can be replayed in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.dataset import SyntheticEEGDataset, check_duration_range
from ..exceptions import EngineError, integer

__all__ = ["RecordTask", "cohort_tasks"]


@dataclass(frozen=True)
class RecordTask:
    """One record's worth of pipeline work, by coordinates."""

    patient_id: int
    seizure_index: int
    sample_index: int = 0
    #: Optional per-task record duration override (seconds); ``None``
    #: uses the dataset's configured range.
    duration_range_s: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        integer(self.patient_id, "patient_id", EngineError, 1)
        integer(self.seizure_index, "seizure_index", EngineError)
        integer(self.sample_index, "sample_index", EngineError)
        if self.duration_range_s is not None:
            check_duration_range(self.duration_range_s)

    @property
    def key(self) -> tuple[int, int, int]:
        """Canonical ordering key: (patient, seizure, sample)."""
        return (self.patient_id, self.seizure_index, self.sample_index)


def cohort_tasks(
    dataset: SyntheticEEGDataset,
    samples_per_seizure: int = 1,
    patient_ids: list[int] | tuple[int, ...] | None = None,
    duration_range_s: tuple[float, float] | None = None,
) -> tuple[RecordTask, ...]:
    """Enumerate the full (or patient-restricted) evaluation work list.

    One task per (seizure, sample) pair, in canonical order — the Sec.
    VI-A protocol expressed as an explicit, shardable work list.
    """
    integer(samples_per_seizure, "samples_per_seizure", EngineError, 1)
    if patient_ids is not None:
        known = {p.patient_id for p in dataset.patients}
        unknown = sorted(set(patient_ids) - known)
        if unknown:
            raise EngineError(
                f"unknown patient ids {unknown}; dataset has {sorted(known)}"
            )
    tasks = []
    for event in dataset.seizure_events():
        if patient_ids is not None and event.patient_id not in patient_ids:
            continue
        for sample_index in range(samples_per_seizure):
            tasks.append(
                RecordTask(
                    patient_id=event.patient_id,
                    seizure_index=event.seizure_index,
                    sample_index=sample_index,
                    duration_range_s=duration_range_s,
                )
            )
    return tuple(sorted(tasks, key=lambda t: t.key))
