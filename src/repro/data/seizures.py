"""Ictal (seizure) EEG waveform generator.

Electrographic seizures in scalp EEG present as an *evolving rhythmic
discharge*: a sharp onset, a rhythmic theta-range discharge whose frequency
slows toward the delta range as the seizure progresses, spike-and-wave
sharpening, and amplitude that builds and then collapses at offset.  These
are exactly the properties the paper's features (delta/theta band power,
subband entropies) respond to, so reproducing them synthetically exercises
the same decision surface as CHB-MIT data.

The generator is parametric per patient (frequency range, amplitude gain,
sharpness) so that the nine :mod:`repro.data.patients` profiles have
distinguishable, personalized seizure morphologies — the premise of the
paper's personalized-training argument.

A record never holds its seizure as samples until it is streamed:
:class:`LazySeizureOverlay` keeps a discharge as its draw, and its rows
are the :func:`seizure_overlay` of :func:`generate_ictal` — the
cross-faded additive patches a
:class:`~repro.data.sources.SyntheticRecordSource` mixes into the
background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError
from .synthetic import shape_pink

__all__ = [
    "LazySeizureOverlay",
    "SeizureMorphology",
    "draw_ictal",
    "generate_ictal",
    "seizure_overlay",
    "shape_ictal",
]


@dataclass(frozen=True)
class SeizureMorphology:
    """Shape parameters of one patient's typical electrographic seizure.

    Attributes
    ----------
    onset_freq_hz / offset_freq_hz:
        The rhythmic discharge starts near ``onset_freq_hz`` (theta range)
        and slows to ``offset_freq_hz`` (delta range) by seizure end.
    amplitude_gain:
        Peak ictal amplitude relative to the background RMS.
    sharpness:
        Spike-and-wave sharpening exponent in (0, 1]; 1.0 keeps a pure
        sinusoid, smaller values sharpen peaks into spikes.
    chaos:
        Fraction of broadband noise mixed into the discharge; keeps the
        rhythm from being pathologically pure.
    buildup_fraction:
        Fraction of the seizure spent ramping amplitude up at onset (the
        same fraction ramps down before offset).
    """

    onset_freq_hz: float = 6.0
    offset_freq_hz: float = 2.5
    amplitude_gain: float = 3.5
    sharpness: float = 0.45
    chaos: float = 0.25
    buildup_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.onset_freq_hz <= 0 or self.offset_freq_hz <= 0:
            raise DataError("discharge frequencies must be positive")
        if not 0 < self.sharpness <= 1.0:
            raise DataError(f"sharpness must be in (0, 1], got {self.sharpness}")
        if not 0 <= self.chaos < 1.0:
            raise DataError(f"chaos must be in [0, 1), got {self.chaos}")
        if not 0 < self.buildup_fraction < 0.5:
            raise DataError("buildup_fraction must be in (0, 0.5)")
        if self.amplitude_gain <= 0:
            raise DataError("amplitude_gain must be positive")


def _sharpen(wave: np.ndarray, exponent: float) -> np.ndarray:
    """Turn a sinusoid into a spike-and-wave-like shape by compressing the
    waveform toward its extrema (odd-symmetric power law)."""
    return np.sign(wave) * np.abs(wave) ** exponent


def _ictal_samples(duration_s: float, fs: float) -> int:
    if duration_s <= 0:
        raise DataError(f"duration must be positive, got {duration_s}")
    n = int(round(duration_s * fs))
    if n < 8:
        raise DataError("seizure too short to synthesize (<8 samples)")
    return n


def draw_ictal(
    n_samples: int, rng: np.random.Generator, n_channels: int = 2
) -> tuple[float, list[tuple[float, float, np.ndarray]]]:
    """Draw one discharge's random inputs from ``rng``: the waxing phase
    and, per channel, ``(lag, gain, white)`` — ``white`` being the
    unshaped roughness noise.

    This is the one place the draw order is defined: the waxing phase,
    then per channel the lag, the gain (every channel but the first) and
    ``n_samples`` white samples.  Running it alone advances ``rng``
    exactly as :func:`generate_ictal` does, at no FFT cost.
    """
    waxing_phase = rng.uniform(0, 2 * np.pi)
    channels = []
    for ch in range(n_channels):
        lag = rng.uniform(0.0, np.pi / 4) * ch
        gain = 1.0 if ch == 0 else rng.uniform(0.6, 1.0)
        channels.append((lag, gain, rng.standard_normal(n_samples)))
    return waxing_phase, channels


def shape_ictal(
    draw: tuple[float, list[tuple[float, float, np.ndarray]]],
    duration_s: float,
    fs: float,
    morphology: SeizureMorphology,
    background_rms_uv: float,
) -> np.ndarray:
    """Shape a drawn discharge into its (n_channels, n_samples) waveform.

    The channels carry the same discharge with channel-specific phase
    lag and gain (seizures in the temporal lobes project to both F7T3
    and F8T4 with asymmetric amplitude).  Each channel's roughness is
    its drawn white noise through :func:`~repro.data.synthetic
    .shape_pink`, which shapes at the next 5-smooth FFT length and crops
    back to the seizure's own.
    """
    waxing_phase, channels = draw
    n = channels[0][2].size
    t = np.arange(n) / fs
    frac = t / duration_s

    # Frequency chirps down from onset to offset frequency.
    freq = morphology.onset_freq_hz + (
        morphology.offset_freq_hz - morphology.onset_freq_hz
    ) * frac
    phase = 2 * np.pi * np.cumsum(freq) / fs

    # Amplitude envelope: ramp up, plateau with slow waxing, ramp down.
    bf = morphology.buildup_fraction
    env = np.minimum(1.0, np.minimum(frac / bf, (1.0 - frac) / bf))
    env = np.clip(env, 0.0, 1.0)
    waxing = 1.0 + 0.25 * np.sin(2 * np.pi * 0.15 * t + waxing_phase)
    env = env * waxing

    peak_uv = morphology.amplitude_gain * background_rms_uv
    chans = []
    for lag, gain, white in channels:
        wave = _sharpen(np.sin(phase - lag), morphology.sharpness)
        rough = shape_pink(white, exponent=0.7, fs=fs)
        mix = (1.0 - morphology.chaos) * wave + morphology.chaos * rough
        chans.append(gain * peak_uv * env * mix)
    return np.vstack(chans)


def generate_ictal(
    duration_s: float,
    fs: float,
    morphology: SeizureMorphology,
    background_rms_uv: float,
    rng: np.random.Generator,
    n_channels: int = 2,
) -> np.ndarray:
    """Generate the ictal discharge of shape (n_channels, duration*fs):
    :func:`shape_ictal` of :func:`draw_ictal`."""
    draw = draw_ictal(_ictal_samples(duration_s, fs), rng, n_channels)
    return shape_ictal(draw, duration_s, fs, morphology, background_rms_uv)


class LazySeizureOverlay:
    """The :func:`seizure_overlay` of one discharge, kept as its draw.

    Construction saves ``rng``'s state just before the ictal draw, then
    advances ``rng`` through the same draws (:func:`draw_ictal`, no FFT)
    so whatever the caller draws next is unchanged.  :meth:`rows` re-runs
    the draw from the saved state and shapes it, once; nothing of the
    draw is held in between.  :attr:`recipe` is everything that fixes
    the rows, so a record can be keyed without shaping them.
    """

    def __init__(
        self,
        duration_s: float,
        fs: float,
        morphology: SeizureMorphology,
        background_rms_uv: float,
        rng: np.random.Generator,
        n_channels: int = 2,
    ) -> None:
        self.n_samples = _ictal_samples(duration_s, fs)
        self.n_channels = n_channels
        self._state = rng.bit_generator.state
        draw_ictal(self.n_samples, rng, n_channels)
        self._shape_args = (duration_s, fs, morphology, background_rms_uv)
        self.recipe = (
            "ictal", repr(self._state), duration_s, fs, morphology,
            background_rms_uv, n_channels,
        )
        self._rows: np.ndarray | None = None

    def rows(self) -> np.ndarray:
        """The (n_channels, n_samples) overlay, shaped on first call."""
        if self._rows is None:
            bit_generator = getattr(np.random, self._state["bit_generator"])()
            bit_generator.state = self._state
            duration_s, fs, morphology, rms = self._shape_args
            ictal = generate_ictal(
                duration_s, fs, morphology, rms,
                np.random.Generator(bit_generator), self.n_channels,
            )
            self._rows = seizure_overlay(ictal, fs)
        return self._rows

    def row(self, channel: int) -> np.ndarray:
        return self.rows()[channel]


def seizure_overlay(
    ictal: np.ndarray, fs: float, crossfade_s: float = 1.0
) -> np.ndarray:
    """The additive waveform a seizure adds to the background.

    The discharge is cross-faded over ``crossfade_s`` at both ends so no
    step discontinuity marks the boundary (a step would be a trivially
    detectable artifact and would flatter the labeling algorithm).  The
    overlay depends only on the ictal waveform — never on the background
    it lands on — which is what lets a
    :class:`~repro.data.sources.SyntheticRecordSource` add it as one
    patch per channel, chunk by chunk.  Returns a new array; ``ictal``
    is not modified.
    """
    if ictal.ndim != 2:
        raise DataError("ictal must be (channels, samples)")
    n_ict = ictal.shape[1]
    fade_n = min(int(round(crossfade_s * fs)), n_ict // 2)
    window = np.ones(n_ict)
    if fade_n > 0:
        ramp = np.linspace(0.0, 1.0, fade_n)
        window[:fade_n] = ramp
        window[-fade_n:] = ramp[::-1]
    return ictal * window[None, :]
