"""EEG artifact generator: the failure mode of the paper's algorithm.

Sec. VI-A attributes the three mislabeled seizures (patients 2, 3, 4 in
Table II) to "large bursts of noise in the signal near the epileptic
seizure" — high-amplitude artifacts that dominate the feature-space
distance and steal the argmax from the true seizure.  To reproduce both
the typical behaviour *and* this failure mode, a synthetic record can
carry four artifact families, each as additive per-channel patches
(:func:`artifact_waveforms`) that its
:class:`~repro.data.sources.SyntheticRecordSource` mixes into the
streamed background:

* ``muscle``  — high-frequency (20-70 Hz) EMG bursts,
* ``movement`` — large slow (0.5-2 Hz) electrode-motion swings,
* ``rhythmic`` — large rhythmic 3-5 Hz motion artifact (e.g. chewing,
  patting, hopping), the burst family that actually competes with ictal
  rhythms in the delta/theta feature space,
* ``pop``     — electrode-pop step with exponential recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError, at_least, positive
from .synthetic import smooth_envelope

__all__ = ["ArtifactSpec", "artifact_waveforms", "generate_artifact"]

_KINDS = ("muscle", "movement", "rhythmic", "pop")


@dataclass(frozen=True)
class ArtifactSpec:
    """Description of one artifact burst to inject into a record.

    Attributes
    ----------
    kind:
        One of ``"muscle"``, ``"movement"``, ``"rhythmic"``, ``"pop"``.
    start_s:
        Burst onset, in seconds of record time.
    duration_s:
        Burst length in seconds.
    amplitude_gain:
        Peak amplitude relative to the background RMS.  Gains of ~6-10
        reproduce the paper's label-stealing bursts.
    channels:
        Channel indices affected (default: all).
    """

    kind: str
    start_s: float
    duration_s: float
    amplitude_gain: float = 8.0
    channels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DataError(f"unknown artifact kind {self.kind!r}; use one of {_KINDS}")
        at_least(self.start_s, "start_s", DataError, 0)
        positive(self.duration_s, "duration_s", DataError)
        positive(self.amplitude_gain, "amplitude_gain", DataError)


def generate_artifact(
    spec: ArtifactSpec,
    fs: float,
    background_rms_uv: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate the 1-D artifact waveform for one channel."""
    n = int(round(spec.duration_s * fs))
    if n < 4:
        raise DataError("artifact too short to synthesize (<4 samples)")
    t = np.arange(n) / fs
    peak = spec.amplitude_gain * background_rms_uv

    if spec.kind == "muscle":
        # White noise band-limited by an FFT mask, as shape_pink shapes
        # the pink floor: every bin outside [20, hi] Hz is zeroed.
        hi = min(70.0, 0.95 * fs / 2.0)
        if hi <= 20.0:
            raise DataError(
                f"a muscle burst needs a sampling rate above "
                f"{2 * 20.0 / 0.95:.1f} Hz for its 20 Hz band edge, got {fs:g} Hz"
            )
        freqs = np.fft.rfftfreq(n, d=1.0 / fs)
        outside = (freqs < 20.0) | (freqs > hi)
        if outside.all():
            raise DataError(
                f"a {n}-sample muscle burst at {fs:g} Hz has no frequency "
                f"in its 20-{hi:g} Hz band"
            )
        spectrum = np.fft.rfft(rng.standard_normal(n))
        spectrum[outside] = 0.0
        noise = np.fft.irfft(spectrum, n=n)
        noise /= noise.std() + 1e-12
        env = smooth_envelope(n, rng, fs, timescale_s=max(0.25, spec.duration_s / 6))
        wave = noise * env
    elif spec.kind == "movement":
        f = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        drift = np.sin(2 * np.pi * f * t + phase)
        wobble = 0.3 * np.sin(2 * np.pi * 2.7 * f * t)
        wave = drift + wobble
    elif spec.kind == "rhythmic":
        # Two rhythmic components, one in the delta range and one in the
        # theta range, as in patting/rocking motion artifacts — this is the
        # burst family whose feature signature overlaps the ictal one and
        # therefore reproduces the paper's label-stealing failure mode.
        f_delta = rng.uniform(1.5, 3.0)
        f_theta = rng.uniform(4.5, 6.5)
        ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
        carrier = 0.6 * np.sin(2 * np.pi * f_delta * t + ph1) + 0.6 * np.sin(
            2 * np.pi * f_theta * t + ph2
        )
        carrier = np.sign(carrier) * np.abs(carrier) ** 0.5
        wobble = 1.0 + 0.2 * np.sin(2 * np.pi * 0.4 * t + rng.uniform(0, 2 * np.pi))
        wave = carrier * wobble
    else:  # pop
        tau = spec.duration_s / 4.0
        wave = np.exp(-t / tau)
        wave[0] = 1.0

    # Taper edges to avoid injecting step discontinuities (except pop,
    # whose leading step is the artifact).
    taper_n = max(2, int(0.05 * n))
    taper = np.ones(n)
    ramp = np.linspace(0.0, 1.0, taper_n)
    if spec.kind != "pop":
        taper[:taper_n] = ramp
    taper[-taper_n:] = ramp[::-1]
    wave = wave * taper
    maxabs = np.max(np.abs(wave)) + 1e-12
    return peak * wave / maxabs


def artifact_waveforms(
    spec: ArtifactSpec,
    fs: float,
    background_rms_uv: float,
    rng: np.random.Generator,
    n_channels: int,
    n_samples: int,
) -> list[tuple[int, int, np.ndarray]]:
    """The per-channel additive patches one burst injects.

    Returns ``(channel, start_sample, waveform)`` triples in channel
    order, which is also the RNG-draw order: each affected channel gets
    an independently generated waveform (muscle artifacts are not
    coherent across electrodes).  A streaming record source precomputes
    these small waveforms once and mixes them into every signal chunk.
    """
    i0 = int(round(spec.start_s * fs))
    n = int(round(spec.duration_s * fs))
    if i0 < 0 or i0 + n > n_samples:
        raise DataError(
            f"artifact [{spec.start_s}s, +{spec.duration_s}s] does not fit in "
            f"record of {n_samples / fs:.1f}s"
        )
    channels = spec.channels if spec.channels is not None else tuple(range(n_channels))
    patches = []
    for ch in channels:
        if not 0 <= ch < n_channels:
            raise DataError(f"artifact channel {ch} out of range")
        patches.append(
            (ch, i0, generate_artifact(spec, fs, background_rms_uv, rng))
        )
    return patches
