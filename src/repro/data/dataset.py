"""CHB-MIT-like synthetic dataset: deterministic record generation.

:class:`SyntheticEEGDataset` is the data source for every experiment in
this reproduction.  It exposes:

* the per-patient seizure inventory (durations drawn once, deterministically,
  from the patient profile — these play the role of the database's 45
  annotated seizures),
* :meth:`generate_sample` — the Sec. VI-A protocol: a record of random
  duration (default 30-60 min) containing exactly one seizure at a random
  position, with expert (ground-truth) annotation attached,
* :meth:`generate_seizure_free` — interictal-only records for balanced
  training sets (Sec. VI-B),
* :meth:`generate_monitoring_record` — long multi-seizure records for the
  closed-loop self-learning simulation (Fig. 1).

Every record is made one way: its streaming form
(:meth:`~SyntheticEEGDataset.sample_source`,
:meth:`~SyntheticEEGDataset.seizure_free_source`,
:meth:`~SyntheticEEGDataset.monitoring_source`) builds a
:class:`~repro.data.sources.SyntheticRecordSource` recipe — background
entropy key plus overlay patches — and each ``generate_*`` method is
that source's ``materialize()``.

Determinism: every record is derived from
``SeedSequence([root_seed, patient, seizure, sample, purpose])`` so any
experiment can be replayed exactly from its configuration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError, at_least, integer, positive
from .artifacts import ArtifactSpec, artifact_waveforms
from .patients import PAPER_PATIENTS, PatientProfile
from .records import EEGRecord, SeizureAnnotation
from .seizures import LazySeizureOverlay
from .sources import SignalPatch, SyntheticRecordSource
from .synthetic import draw_block_entropy

__all__ = ["SeizureEvent", "SyntheticEEGDataset", "check_duration_range"]

# Purpose tags folded into seed material so different record types drawn
# for the same (patient, seizure, sample) triple are independent.
_PURPOSE_SAMPLE = 1
_PURPOSE_FREE = 2
_PURPOSE_MONITOR = 3


def check_duration_range(duration_range_s) -> tuple[float, float]:
    """A record-duration range ``(lo, hi)`` in seconds, as floats.

    Refused with :class:`~repro.exceptions.DataError` unless both bounds
    are finite and ``0 < lo <= hi``, so a bad range fails before any
    record is drawn (numpy's uniform draw would overflow on ``inf`` and
    raise on a reversed range).
    """
    lo, hi = duration_range_s
    try:
        at_least(hi, "max", DataError, positive(lo, "min", DataError))
    except DataError as exc:
        raise DataError(
            f"invalid duration range {tuple(duration_range_s)}: {exc}"
        ) from None
    return float(lo), float(hi)


def _check_seed(seed) -> int:
    """The dataset seed as an int.

    Refused with :class:`~repro.exceptions.DataError` unless it is a
    non-negative integral value: ``int()`` silently truncated 1.5 to
    seed 1, and NaN or infinity raised a bare numpy or ``int()`` error.
    An integral float (``3.0``) is the same seed as the int.
    """
    if isinstance(seed, float) and seed.is_integer():
        seed = int(seed)
    return int(integer(seed, "seed", DataError))


def _check_duration(duration_s) -> float:
    """One record's duration in seconds, as a float.

    Refused with :class:`~repro.exceptions.DataError` unless finite and
    positive, as :func:`check_duration_range` refuses a range: an
    infinite duration overflowed the sample count and NaN failed inside
    numpy.
    """
    return float(positive(duration_s, "duration", DataError))


@dataclass(frozen=True)
class SeizureEvent:
    """One seizure of the inventory: identity plus its fixed duration."""

    patient_id: int
    seizure_index: int  # 0-based within the patient
    duration_s: float
    #: True when the cohort profile schedules a label-stealing artifact
    #: near this seizure (Table II outliers).
    has_artifact: bool

    @property
    def key(self) -> tuple[int, int]:
        return (self.patient_id, self.seizure_index)


class SyntheticEEGDataset:
    """Deterministic CHB-MIT-like data source for the full cohort.

    Parameters
    ----------
    patients:
        Cohort profiles (default: the paper-matched nine).
    fs:
        Sampling frequency (paper/CHB-MIT: 256 Hz), finite and positive.
    seed:
        Root seed, a non-negative integer; all generated records are
        pure functions of (seed, patient, seizure, sample).
    duration_range_s:
        Record length range for :meth:`generate_sample`.  The paper uses
        (1800, 3600); benches may shrink this for tractable runtimes.
    """

    def __init__(
        self,
        patients: tuple[PatientProfile, ...] = PAPER_PATIENTS,
        fs: float = 256.0,
        seed: int = 2019,
        duration_range_s: tuple[float, float] = (1800.0, 3600.0),
    ) -> None:
        positive(fs, "sampling rate", DataError)
        self.duration_range_s = check_duration_range(duration_range_s)
        self.patients = tuple(patients)
        self.fs = float(fs)
        self.seed = _check_seed(seed)
        self._events = self._draw_inventory()

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def _draw_inventory(self) -> dict[tuple[int, int], SeizureEvent]:
        events: dict[tuple[int, int], SeizureEvent] = {}
        for prof in self.patients:
            rng = self._rng(prof.patient_id, 0, 0, purpose=0)
            lo, hi = prof.duration_range_s
            durations = rng.uniform(lo, hi, size=prof.n_seizures)
            for k, dur in enumerate(durations):
                events[(prof.patient_id, k)] = SeizureEvent(
                    patient_id=prof.patient_id,
                    seizure_index=k,
                    duration_s=float(dur),
                    has_artifact=(prof.artifact_near_seizure == k),
                )
        return events

    def _rng(
        self, patient: int, seizure: int, sample: int, purpose: int
    ) -> np.random.Generator:
        """The generator of one record: a pure function of the dataset
        seed and the record's integer coordinates."""
        for name, value in (
            ("patient_id", patient), ("seizure_index", seizure), ("sample_index", sample)
        ):
            integer(value, name, DataError)
        ss = np.random.SeedSequence([self.seed, purpose, patient, seizure, sample])
        return np.random.default_rng(ss)

    @property
    def n_patients(self) -> int:
        return len(self.patients)

    @property
    def total_seizures(self) -> int:
        return sum(p.n_seizures for p in self.patients)

    def profile(self, patient_id: int) -> PatientProfile:
        """The profile of one of *this dataset's* patients (which may be a
        custom cohort, not the paper's)."""
        for prof in self.patients:
            if prof.patient_id == patient_id:
                return prof
        raise DataError(
            f"no patient {patient_id} in this dataset; have "
            f"{[p.patient_id for p in self.patients]}"
        )

    def seizure_events(self, patient_id: int | None = None) -> list[SeizureEvent]:
        """All seizure events, optionally restricted to one of this
        dataset's patients (another id raises :class:`DataError`)."""
        events = sorted(self._events.values(), key=lambda e: e.key)
        if patient_id is None:
            return events
        self.profile(patient_id)
        return [e for e in events if e.patient_id == patient_id]

    def event(self, patient_id: int, seizure_index: int) -> SeizureEvent:
        try:
            return self._events[(patient_id, seizure_index)]
        except KeyError:
            raise DataError(
                f"no seizure {seizure_index} for patient {patient_id}"
            ) from None

    def mean_seizure_duration(self, patient_id: int) -> float:
        """The expert prior ``W`` for a patient: the profile's mean seizure
        duration (what a clinician would report), not the per-seizure truth."""
        return self.profile(patient_id).mean_seizure_s

    # ------------------------------------------------------------------
    # Record generation
    # ------------------------------------------------------------------
    def sample_source(
        self,
        patient_id: int,
        seizure_index: int,
        sample_index: int = 0,
        duration_range_s: tuple[float, float] | None = None,
    ) -> SyntheticRecordSource:
        """The streaming form of one Sec. VI-A test sample.

        Builds the record's *recipe* — placement draws, the background
        block-entropy key, the small precomputed artifact overlays and
        the seizure overlay's draw — without generating a single
        background sample or shaping the seizure, so the cohort engine
        can key a record for free and stream a multi-hour one in bounded
        chunks.
        :meth:`generate_sample` is exactly ``sample_source(...)
        .materialize()``; the two can never drift apart.
        """
        prof = self.profile(patient_id)
        event = self.event(patient_id, seizure_index)
        rng = self._rng(patient_id, seizure_index, sample_index, _PURPOSE_SAMPLE)

        lo, hi = check_duration_range(duration_range_s or self.duration_range_s)
        duration_s = float(rng.uniform(lo, hi))
        seiz_s = event.duration_s
        if seiz_s >= duration_s * 0.5:
            raise DataError(
                f"record duration {duration_s:.0f}s too short for a "
                f"{seiz_s:.0f}s seizure"
            )

        margin_s = max(10.0, 0.02 * duration_s)
        onset_s = float(rng.uniform(margin_s, duration_s - seiz_s - margin_s))

        n_samples = int(round(duration_s * self.fs))
        entropy = draw_block_entropy(rng)
        # The deterministic background level: streaming must never need a
        # full-record pass just to scale the overlays.
        bg_rms = prof.background.nominal_rms()

        # Keyed by its draw and shaped only if the record is streamed: a
        # store hit never pays for the ictal FFTs.
        overlay = LazySeizureOverlay(seiz_s, self.fs, prof.morphology, bg_rms, rng)
        patches = self._seizure_patches(overlay, int(round(onset_s * self.fs)))

        if event.has_artifact:
            patches += self._outlier_artifact_patches(
                prof, onset_s, seiz_s, duration_s, bg_rms, rng, n_samples
            )
        patches += self._clutter_patches(
            prof, onset_s, seiz_s, duration_s, bg_rms, rng, n_samples
        )

        ann = SeizureAnnotation(onset_s=onset_s, offset_s=onset_s + seiz_s)
        return SyntheticRecordSource(
            model=prof.background,
            entropy=entropy,
            n_samples=n_samples,
            fs=self.fs,
            patches=tuple(patches),
            annotations=(ann,),
            patient_id=f"P{patient_id:02d}",
            record_id=f"P{patient_id:02d}_S{seizure_index:02d}_R{sample_index:03d}",
        )

    def generate_sample(
        self,
        patient_id: int,
        seizure_index: int,
        sample_index: int = 0,
        duration_range_s: tuple[float, float] | None = None,
    ) -> EEGRecord:
        """One Sec. VI-A test sample: a record with exactly one seizure.

        Record duration is drawn uniformly from ``duration_range_s``; the
        seizure is placed uniformly at random inside it (away from the very
        edges so the whole event is contained).  If the cohort profile
        schedules an artifact near this seizure, the burst is injected at
        the configured offset, clamped into the record.
        """
        return self.sample_source(
            patient_id, seizure_index, sample_index, duration_range_s
        ).materialize()

    @staticmethod
    def _seizure_patches(
        overlay: LazySeizureOverlay, onset_sample: int
    ) -> list[SignalPatch]:
        """One deferred patch per channel of a seizure overlay; the
        record's source checks that they fit."""
        return [
            SignalPatch(
                ch, onset_sample, functools.partial(overlay.row, ch),
                size=overlay.n_samples, recipe=overlay.recipe,
            )
            for ch in range(overlay.n_channels)
        ]

    def _outlier_artifact_patches(
        self,
        prof: PatientProfile,
        onset_s: float,
        seiz_s: float,
        duration_s: float,
        bg_rms: float,
        rng: np.random.Generator,
        n_samples: int,
    ) -> list[SignalPatch]:
        """Place the Table-II label-stealing burst near the seizure."""
        burst_s = prof.effective_artifact_duration_s
        start = onset_s + prof.artifact_offset_s
        if prof.artifact_offset_s >= 0:
            start = onset_s + seiz_s + prof.artifact_offset_s
        # Clamp inside the record without overlapping the seizure.
        start = min(max(start, 5.0), duration_s - burst_s - 5.0)
        if onset_s - burst_s < start < onset_s + seiz_s:
            start = max(5.0, onset_s - burst_s - 30.0)
        if start < 5.0 or start + burst_s > duration_s - 5.0:
            # Record too short to host both; skip the burst rather than
            # corrupt the seizure itself.
            return []
        spec = ArtifactSpec(
            kind=prof.artifact_kind,
            start_s=start,
            duration_s=burst_s,
            amplitude_gain=prof.artifact_gain,
        )
        return [
            SignalPatch(ch, i0, wave)
            for ch, i0, wave in artifact_waveforms(
                spec, self.fs, bg_rms, rng, 2, n_samples
            )
        ]

    def _clutter_patches(
        self,
        prof: PatientProfile,
        onset_s: float,
        seiz_s: float,
        duration_s: float,
        bg_rms: float,
        rng: np.random.Generator,
        n_samples: int,
    ) -> list[SignalPatch]:
        """Moderate bursts near the seizure (profile ``clutter_bursts``).

        Placed uniformly within +-180 s of the seizure (never overlapping
        it) so they perturb the argmax window alignment without stealing
        the detection — the source of patient 2's mediocre deviations.
        """
        patches: list[SignalPatch] = []
        for _ in range(prof.clutter_bursts):
            span = prof.clutter_duration_s
            for _attempt in range(8):
                center = onset_s + 0.5 * seiz_s + rng.uniform(-180.0, 180.0)
                start = center - span / 2
                if start < 5.0 or start + span > duration_s - 5.0:
                    continue
                if start + span > onset_s - 2.0 and start < onset_s + seiz_s + 2.0:
                    continue  # never corrupt the seizure itself
                spec = ArtifactSpec(
                    kind="rhythmic",
                    start_s=start,
                    duration_s=span,
                    amplitude_gain=prof.clutter_gain,
                )
                patches += [
                    SignalPatch(ch, i0, wave)
                    for ch, i0, wave in artifact_waveforms(
                        spec, self.fs, bg_rms, rng, 2, n_samples
                    )
                ]
                break
        return patches

    def seizure_free_source(
        self,
        patient_id: int,
        duration_s: float,
        sample_index: int = 0,
    ) -> SyntheticRecordSource:
        """Streaming form of :meth:`generate_seizure_free` (pure
        background: an entropy key and no overlay patches)."""
        duration_s = _check_duration(duration_s)
        prof = self.profile(patient_id)
        rng = self._rng(patient_id, 0, sample_index, _PURPOSE_FREE)
        entropy = draw_block_entropy(rng)
        return SyntheticRecordSource(
            model=prof.background,
            entropy=entropy,
            n_samples=int(round(duration_s * self.fs)),
            fs=self.fs,
            patient_id=f"P{patient_id:02d}",
            record_id=f"P{patient_id:02d}_FREE_R{sample_index:03d}",
        )

    def generate_seizure_free(
        self,
        patient_id: int,
        duration_s: float,
        sample_index: int = 0,
    ) -> EEGRecord:
        """An interictal-only record, for the non-seizure half of balanced
        training sets (Sec. VI-B)."""
        return self.seizure_free_source(
            patient_id, duration_s, sample_index
        ).materialize()

    def monitoring_source(
        self,
        patient_id: int,
        duration_s: float,
        seizure_indices: list[int],
        sample_index: int = 0,
        min_gap_s: float = 600.0,
    ) -> SyntheticRecordSource:
        """The streaming form of one long multi-seizure record, for the
        Fig. 1 closed-loop simulation.

        Seizures (by inventory index) are placed in order with at least
        ``min_gap_s`` between them and from the record edges; the slack
        is split randomly across the gaps.  Like :meth:`sample_source`,
        this builds the record's recipe — the background entropy key and
        one lazy overlay per seizure — without generating a sample.
        """
        duration_s = _check_duration(duration_s)
        prof = self.profile(patient_id)
        rng = self._rng(patient_id, 0, sample_index, _PURPOSE_MONITOR)
        events = [self.event(patient_id, k) for k in seizure_indices]
        total_seizure_s = sum(e.duration_s for e in events)
        needed = total_seizure_s + min_gap_s * (len(events) + 1)
        if duration_s < needed:
            raise DataError(
                f"{duration_s:.0f}s record cannot hold {len(events)} seizures "
                f"with {min_gap_s:.0f}s gaps (need >= {needed:.0f}s)"
            )

        entropy = draw_block_entropy(rng)
        bg_rms = prof.background.nominal_rms()
        slack = duration_s - needed
        # Split the slack randomly across the gaps (Dirichlet-like).
        parts = rng.uniform(0.5, 1.5, size=len(events) + 1)
        parts = parts / parts.sum() * slack
        patches: list[SignalPatch] = []
        anns: list[SeizureAnnotation] = []
        cursor = min_gap_s + parts[0]
        for i, event in enumerate(events):
            patches += self._seizure_patches(
                LazySeizureOverlay(
                    event.duration_s, self.fs, prof.morphology, bg_rms, rng
                ),
                int(round(cursor * self.fs)),
            )
            anns.append(
                SeizureAnnotation(onset_s=cursor, offset_s=cursor + event.duration_s)
            )
            cursor += event.duration_s + min_gap_s + parts[i + 1]
        return SyntheticRecordSource(
            model=prof.background,
            entropy=entropy,
            n_samples=int(round(duration_s * self.fs)),
            fs=self.fs,
            patches=tuple(patches),
            annotations=tuple(anns),
            patient_id=f"P{patient_id:02d}",
            record_id=f"P{patient_id:02d}_MON_R{sample_index:03d}",
        )

    def generate_monitoring_record(
        self,
        patient_id: int,
        duration_s: float,
        seizure_indices: list[int],
        sample_index: int = 0,
        min_gap_s: float = 600.0,
    ) -> EEGRecord:
        """A long record containing several seizures: exactly
        ``monitoring_source(...).materialize()``."""
        return self.monitoring_source(
            patient_id, duration_s, seizure_indices, sample_index, min_gap_s
        ).materialize()
