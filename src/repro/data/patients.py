"""The nine synthetic patient profiles mirroring the paper's cohort.

Sec. V-A evaluates on 9 CHB-MIT patients with 45 seizures total; Table II
shows the per-patient seizure counts (7, 3, 7, 4, 5, 3, 5, 4, 7).  The
profiles below reproduce:

* the same seizure counts per patient,
* the paper's difficulty ordering — patient 2 has low-amplitude seizures
  in noisy background (the worst per-patient deviation, 53.2 s), patients
  8 and 9 have crisp high-contrast seizures (the best, 3.2 / 5.0 s),
* the three outlier labels of Table II: patients 2, 3 and 4 each carry one
  seizure shadowed by a large noise burst (373 / 443 / 408 s deviations in
  the paper), modeled by an artifact scheduled near that seizure.

All quantities are *generative parameters*, not measurements; the point is
to exercise the same decision surface and failure modes as the real data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import DataError, at_least, finite, integer, positive
from .seizures import SeizureMorphology
from .synthetic import BackgroundEEGModel

__all__ = ["PatientProfile", "PAPER_PATIENTS", "patient_by_id"]


@dataclass(frozen=True)
class PatientProfile:
    """Generative description of one patient's EEG.

    Attributes
    ----------
    patient_id:
        1-based identifier matching the paper's Table I/II columns.
    n_seizures:
        Number of seizures this patient contributes to the evaluation.
    mean_seizure_s / seizure_jitter_s:
        Seizure durations are drawn uniformly from
        ``mean ± jitter``; the mean is the prior a medical expert provides
        to the labeling algorithm (its ``W`` input).
    morphology:
        Ictal waveform parameters (see :class:`SeizureMorphology`).
    background:
        Interictal generator parameters.
    artifact_near_seizure:
        Index (0-based) of the seizure that is shadowed by a large noise
        burst, or ``None``.  Reproduces Table II's outliers.
    artifact_offset_s:
        Where the burst sits relative to the *seizure onset* (negative =
        before onset); magnitudes of a few hundred seconds reproduce the
        paper's 373-443 s outlier deviations.
    artifact_gain:
        Burst amplitude relative to background RMS.

    Counts are integers (``patient_id`` and ``n_seizures`` >= 1,
    ``clutter_bursts`` >= 0); durations and gains are finite and
    positive, except ``seizure_jitter_s`` in ``[0, mean_seizure_s)``, a
    finite ``artifact_offset_s`` of either sign and an
    ``artifact_duration_s`` of 0 or more.
    """

    patient_id: int
    n_seizures: int
    mean_seizure_s: float
    seizure_jitter_s: float
    morphology: SeizureMorphology
    background: BackgroundEEGModel
    artifact_near_seizure: int | None = None
    artifact_offset_s: float = -400.0
    artifact_gain: float = 10.0
    #: Burst length; 0 means "match the patient's mean seizure duration",
    #: which fills one full search window of Algorithm 1 and makes the
    #: burst reliably steal the argmax (the Table II failure mode).
    artifact_duration_s: float = 0.0
    #: Artifact family; "rhythmic" bursts carry delta/theta-range power,
    #: which is what actually steals the argmax from the theta/delta-
    #: sensitive features (high-frequency muscle noise barely moves them).
    artifact_kind: str = "rhythmic"
    #: Number of *moderate* clutter bursts injected near every seizure of
    #: this patient.  Their gain stays below the ictal contrast, so they
    #: do not steal the argmax outright but they drag the detected window
    #: by tens of seconds — modelling messy recordings and driving
    #: patient 2's mediocre Table I row (paper: 53.2 s median).
    clutter_bursts: int = 0
    clutter_gain: float = 3.5
    clutter_duration_s: float = 20.0

    def __post_init__(self) -> None:
        integer(self.patient_id, "patient_id", DataError, 1)
        integer(self.n_seizures, "n_seizures", DataError, 1)
        positive(self.mean_seizure_s, "mean_seizure_s", DataError)
        if at_least(self.seizure_jitter_s, "seizure_jitter_s", DataError, 0) >= (
            self.mean_seizure_s
        ):
            raise DataError("seizure jitter must be in [0, mean)")
        if self.artifact_near_seizure is not None and integer(
            self.artifact_near_seizure, "artifact_near_seizure", DataError
        ) >= self.n_seizures:
            raise DataError("artifact_near_seizure index out of range")
        finite(self.artifact_offset_s, "artifact_offset_s", DataError)
        positive(self.artifact_gain, "artifact_gain", DataError)
        at_least(self.artifact_duration_s, "artifact_duration_s", DataError, 0)
        integer(self.clutter_bursts, "clutter_bursts", DataError)
        positive(self.clutter_gain, "clutter_gain", DataError)
        positive(self.clutter_duration_s, "clutter_duration_s", DataError)

    @property
    def effective_artifact_duration_s(self) -> float:
        """Burst length, defaulting to the mean seizure duration."""
        if self.artifact_duration_s > 0:
            return self.artifact_duration_s
        return self.mean_seizure_s

    @property
    def duration_range_s(self) -> tuple[float, float]:
        """(min, max) seizure duration this profile can generate."""
        return (
            self.mean_seizure_s - self.seizure_jitter_s,
            self.mean_seizure_s + self.seizure_jitter_s,
        )


def _profile(
    pid: int,
    n_seizures: int,
    mean_s: float,
    jitter_s: float,
    gain: float,
    onset_hz: float,
    bg_amp: float,
    alpha: float,
    artifact_seizure: int | None = None,
    artifact_offset: float = -400.0,
    artifact_gain: float = 10.0,
    clutter_bursts: int = 0,
    clutter_gain: float = 3.5,
) -> PatientProfile:
    return PatientProfile(
        patient_id=pid,
        n_seizures=n_seizures,
        mean_seizure_s=mean_s,
        seizure_jitter_s=jitter_s,
        morphology=SeizureMorphology(
            onset_freq_hz=onset_hz,
            offset_freq_hz=max(1.5, onset_hz - 3.5),
            amplitude_gain=gain,
            sharpness=0.45,
            chaos=0.25,
        ),
        background=BackgroundEEGModel(
            amplitude_uv=bg_amp, alpha_fraction=alpha, shared_fraction=0.4
        ),
        artifact_near_seizure=artifact_seizure,
        artifact_offset_s=artifact_offset,
        artifact_gain=artifact_gain,
        clutter_bursts=clutter_bursts,
        clutter_gain=clutter_gain,
    )


#: The evaluation cohort.  Seizure counts follow Table II; contrast
#: (amplitude_gain vs background alpha/noise) follows Table I's difficulty
#: ordering; patients 2, 3, 4 carry one artifact-shadowed seizure each.
PAPER_PATIENTS: tuple[PatientProfile, ...] = (
    _profile(1, 7, 55.0, 20.0, gain=2.6, onset_hz=6.0, bg_amp=30.0, alpha=0.7),
    _profile(
        2, 3, 80.0, 25.0, gain=1.9, onset_hz=5.0, bg_amp=38.0, alpha=1.0,
        artifact_seizure=1, artifact_offset=-370.0, artifact_gain=8.0,
        clutter_bursts=3, clutter_gain=2.2,
    ),
    _profile(
        3, 7, 45.0, 15.0, gain=3.6, onset_hz=6.5, bg_amp=28.0, alpha=0.5,
        artifact_seizure=0, artifact_offset=-440.0, artifact_gain=11.0,
    ),
    _profile(
        4, 4, 60.0, 20.0, gain=2.8, onset_hz=5.5, bg_amp=32.0, alpha=0.7,
        artifact_seizure=0, artifact_offset=405.0, artifact_gain=9.0,
    ),
    _profile(5, 5, 70.0, 20.0, gain=3.5, onset_hz=6.0, bg_amp=30.0, alpha=0.5),
    _profile(6, 3, 40.0, 12.0, gain=2.9, onset_hz=7.0, bg_amp=30.0, alpha=0.7),
    _profile(7, 5, 65.0, 25.0, gain=2.7, onset_hz=5.0, bg_amp=33.0, alpha=0.8),
    _profile(8, 4, 50.0, 15.0, gain=4.0, onset_hz=6.5, bg_amp=27.0, alpha=0.4),
    _profile(9, 7, 55.0, 18.0, gain=3.8, onset_hz=6.0, bg_amp=28.0, alpha=0.4),
)

#: Total seizures across the cohort — must equal the paper's 45.
TOTAL_SEIZURES = sum(p.n_seizures for p in PAPER_PATIENTS)
assert TOTAL_SEIZURES == 45


def patient_by_id(patient_id: int) -> PatientProfile:
    """Look up a cohort profile by its 1-based identifier."""
    for profile in PAPER_PATIENTS:
        if profile.patient_id == patient_id:
            return profile
    raise DataError(
        f"no patient {patient_id}; cohort has ids "
        f"{[p.patient_id for p in PAPER_PATIENTS]}"
    )
