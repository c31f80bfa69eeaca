"""Background (interictal) EEG generator.

CHB-MIT recordings are not redistributable and this environment is
offline, so the evaluation substrate generates synthetic scalp EEG with
the statistical structure the paper's algorithm actually exploits:

* a 1/f^beta ("pink") broadband floor — the canonical resting EEG
  spectrum,
* intermittent alpha-band (8-13 Hz) bursts with a smoothly varying
  envelope,
* optional power-line interference,
* two partially correlated bipolar channels (F7T3, F8T4 share cortical
  sources but also have local activity).

Amplitudes are in microvolts, sized to typical scalp EEG (tens of uV RMS).
All randomness flows through an explicit :class:`numpy.random.Generator`
so records are exactly reproducible from a seed.

Generation is *block-based*: a record is defined as the concatenation of
fixed :data:`GEN_BLOCK_S`-second blocks, each a pure function of a small
entropy key (drawn once from the caller's generator) plus the block
index.  :meth:`BackgroundEEGModel.iter_blocks` yields them one at a time
to :class:`repro.data.sources.SyntheticRecordSource`, the one path every
synthetic record is made by, so a multi-hour record streams in bounded
chunks without ever materializing the full waveform.

Each block mixes unit-variance sources, and a source is built with as
little per-sample work as its spectrum allows (generator version 3):
the pink floor is drawn directly as rfft bins and inverted by one
``irfft``, and the alpha burst's envelope and frequency-jitter walk —
both far below 1 Hz — are drawn every :data:`CONTROL_STEP` samples and
linearly interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..exceptions import DataError

__all__ = [
    "CONTROL_STEP",
    "GEN_BLOCK_S",
    "GENERATOR_VERSION",
    "BackgroundEEGModel",
    "block_spans",
    "draw_block_entropy",
    "pink_noise",
    "shape_pink",
    "smooth_envelope",
]

#: Internal generation block length (seconds).  Block boundaries are a
#: property of the *waveform definition*, not of any consumer's chunk
#: size: streaming at 0.5 s or 600 s chunks re-slices the same blocks.
GEN_BLOCK_S = 60.0

#: Version of the waveform definition.  Bump it with any edit that
#: changes the samples generated for a fixed recipe: synthetic sources
#: are cached by recipe (:meth:`~repro.data.sources.SyntheticRecordSource
#: .recipe_digest`), so a stale version would serve features of the old
#: waveform.  The recipe of a seizure overlay is its draw (the generator
#: state before it, the duration and the morphology), not its samples,
#: so an edit to the ictal shaping (:func:`repro.data.seizures
#: .shape_ictal`, :func:`shape_pink`, the cross-fade) must bump it too.
#: History: 1, direct-convolution envelope; 2, running-sum envelope;
#: 3, pink floor drawn as rfft bins, alpha envelope and frequency
#: jitter drawn on the control grid (:data:`CONTROL_STEP`).
GENERATOR_VERSION = 3

#: Samples per control-grid step.  A background source's slow components
#: — the alpha envelope (3 s timescale) and frequency-jitter walk, both
#: band-limited far below 1 Hz — are drawn at ``fs / CONTROL_STEP`` and
#: linearly interpolated to the full rate.  Below ~11 Hz the step shrinks
#: (:func:`_control_step`) so the envelope keeps its 3 s timescale.
CONTROL_STEP = 16


def draw_block_entropy(rng: np.random.Generator) -> tuple[int, ...]:
    """Draw the entropy key that seeds every generation block.

    One fixed-size draw replaces the old whole-record consumption, so the
    caller's generator advances by the same amount whatever the record
    duration — and the key deterministically spawns an independent
    substream per (block, source) via :class:`numpy.random.SeedSequence`.
    """
    return tuple(int(v) for v in rng.integers(0, 2**32, size=4))


def block_spans(n_samples: int, fs: float) -> list[tuple[int, int]]:
    """Canonical ``[start, stop)`` sample spans of the generation blocks.

    Boundaries sit at multiples of :data:`GEN_BLOCK_S`; a trailing
    1-sample remainder is folded into the previous block (every block
    must be FFT-shapeable, i.e. >= 2 samples).
    """
    if n_samples < 2:
        raise DataError(f"need at least 2 samples, got {n_samples}")
    block = max(2, int(round(GEN_BLOCK_S * fs)))
    starts = list(range(0, n_samples, block))
    spans = [(s, min(s + block, n_samples)) for s in starts]
    if len(spans) > 1 and spans[-1][1] - spans[-1][0] < 2:
        last = spans.pop()
        spans[-1] = (spans[-1][0], last[1])
    return spans


def _pink_shaping(
    n: int, fs: float, exponent: float, f_floor: float
) -> np.ndarray:
    """Amplitude shaping of an ``n``-sample rfft to a 1/f^exponent power
    spectrum: flat below ``f_floor``, zero at DC."""
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    shaping = np.ones_like(freqs)
    above = freqs >= f_floor
    shaping[above] = (f_floor / freqs[above]) ** (exponent / 2.0)
    shaping[0] = 0.0  # remove DC
    return shaping


def pink_noise(
    n: int, rng: np.random.Generator, exponent: float = 1.0, fs: float = 256.0,
    f_floor: float = 0.3,
) -> np.ndarray:
    """Generate 1/f^exponent noise of unit variance, flat below
    ``f_floor`` and without DC.

    The rfft bins are drawn from ``rng`` directly — i.i.d. complex
    normal, which is how the spectrum of white Gaussian noise is
    distributed — shaped in place and inverted by one ``irfft``.
    """
    if n < 2:
        raise DataError(f"need at least 2 samples, got {n}")
    k = n // 2 + 1
    spec = rng.standard_normal(2 * k).view(np.complex128)
    shaping = _pink_shaping(n, fs, exponent, f_floor)
    if n % 2 == 0:
        # White noise's Nyquist bin is real with the full bin variance; a
        # drawn bin's real part carries half of it, and irfft drops the
        # imaginary part.
        shaping[-1] *= np.sqrt(2.0)
    spec *= shaping
    shaped = np.fft.irfft(spec, n=n)
    sd = shaped.std()
    if sd != 0.0:
        shaped /= sd
    return shaped


def shape_pink(
    white: np.ndarray, exponent: float = 1.0, fs: float = 256.0,
    f_floor: float = 0.3,
) -> np.ndarray:
    """Shape a white vector to 1/f^exponent noise of unit variance via FFT.

    ``f_floor`` flattens the spectrum below that frequency so the variance
    does not blow up at DC (scalp EEG is AC-coupled anyway).
    """
    n = white.size
    spec = np.fft.rfft(white)
    shaped = np.fft.irfft(spec * _pink_shaping(n, fs, exponent, f_floor), n=n)
    sd = shaped.std()
    if sd == 0.0:
        return shaped
    return shaped / sd


def _moving_average(x: np.ndarray, k: int) -> np.ndarray:
    """``np.convolve(x, np.ones(k) / k, mode="valid")`` in O(n): each
    mean is a difference of running sums (equal to the direct form to
    ~1e-14 for unit-variance input)."""
    sums = np.concatenate(([0.0], np.cumsum(x)))
    return (sums[k:] - sums[:-k]) / k


def smooth_envelope(
    n: int, rng: np.random.Generator, fs: float, timescale_s: float = 4.0
) -> np.ndarray:
    """A nonnegative, slowly varying random envelope in [0, 1].

    Built by low-pass filtering white noise with a moving-average kernel of
    ``timescale_s`` seconds and squashing through a logistic; models the
    waxing/waning of rhythmic EEG activity.
    """
    if timescale_s <= 0:
        raise DataError(f"timescale must be positive, got {timescale_s}")
    kernel = max(2, int(round(timescale_s * fs)))
    raw = rng.standard_normal(n + 2 * kernel)
    # Two moving-average passes (triangular kernel): kills the per-sample
    # jitter a single box filter leaves behind.
    sm = _moving_average(_moving_average(raw, kernel), kernel)[:n]
    sm = (sm - sm.mean()) / (sm.std() + 1e-12)
    return 1.0 / (1.0 + np.exp(-2.0 * sm))


def _control_step(fs: float) -> int:
    """Samples per control-grid step at ``fs`` Hz: :data:`CONTROL_STEP`,
    or ``floor(1.5 * fs)`` (at least 1) below ~11 Hz, where a full step
    would stretch the envelope's minimum two-point kernel past 3 s."""
    return max(1, min(CONTROL_STEP, int(1.5 * fs)))


@dataclass(frozen=True)
class BackgroundEEGModel:
    """Parametric generator of interictal scalp EEG.

    Attributes
    ----------
    amplitude_uv:
        RMS amplitude of the broadband floor in microvolts.
    pink_exponent:
        Spectral slope beta of the 1/f^beta floor.
    alpha_fraction:
        RMS of the alpha-burst component relative to the floor.
    alpha_freq_hz:
        Centre frequency of the alpha rhythm.
    shared_fraction:
        Fraction (in variance) of each channel driven by a common cortical
        source; the remainder is channel-local.
    line_noise_uv:
        Peak amplitude of 50 Hz interference (0 disables).
    """

    amplitude_uv: float = 30.0
    pink_exponent: float = 1.0
    alpha_fraction: float = 0.5
    alpha_freq_hz: float = 10.0
    shared_fraction: float = 0.4
    line_noise_uv: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude_uv <= 0:
            raise DataError("amplitude_uv must be positive")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise DataError("shared_fraction must be in [0, 1]")
        if self.alpha_fraction < 0:
            raise DataError("alpha_fraction must be >= 0")

    def _one_source(self, n: int, fs: float, rng: np.random.Generator) -> np.ndarray:
        floor = pink_noise(n, rng, self.pink_exponent, fs)
        step = _control_step(fs)
        m = (n - 2) // step + 2  # points from sample 0 to at or past n - 1
        env = smooth_envelope(m, rng, fs / step, timescale_s=3.0)
        phase = rng.uniform(0, 2 * np.pi)
        # Slight frequency jitter keeps the alpha line realistic.
        walk = 0.3 * np.cumsum(rng.standard_normal(m)) / np.sqrt(m)
        positions, knots = np.arange(n) / step, np.arange(m, dtype=float)
        alpha = 2 * np.pi * self.alpha_freq_hz * (np.arange(n) / fs)
        alpha += phase
        alpha += np.interp(positions, knots, walk)
        np.sin(alpha, out=alpha)
        alpha *= np.interp(positions, knots, env)
        alpha *= self.alpha_fraction / (alpha.std() + 1e-12)
        floor += alpha
        return floor

    def _block_source(
        self, n: int, fs: float, entropy: tuple[int, ...], key: tuple[int, ...]
    ) -> np.ndarray:
        """One unit-variance source signal of one block, keyed by
        ``(block_index, source_index)`` under the record's entropy."""
        ss = np.random.SeedSequence(list(entropy) + list(key))
        return self._one_source(n, fs, np.random.default_rng(ss))

    def nominal_rms(self) -> float:
        """Deterministic per-channel RMS of generated background.

        Every block is normalized to exactly :attr:`amplitude_uv` RMS per
        channel, and line interference adds ``line_noise_uv^2 / 2``
        variance, so callers that need "the background level" (seizure
        and artifact scaling) can use this without touching a single
        sample — the streaming path must never require a full-record
        pass.
        """
        return float(
            np.sqrt(self.amplitude_uv**2 + 0.5 * self.line_noise_uv**2)
        )

    def iter_blocks(
        self,
        n_samples: int,
        fs: float,
        entropy: tuple[int, ...],
        n_channels: int = 2,
    ) -> Iterator[np.ndarray]:
        """Yield the record's generation blocks in order.

        Each block is an (n_channels, block_samples) array and a pure
        function of ``(entropy, block_index)``; concatenating every block
        is *the* definition of the record's background waveform.  Peak
        memory is one block, whatever the record duration.
        """
        if fs <= 0:
            raise DataError(f"sampling rate must be positive, got {fs}")
        if n_channels < 1:
            raise DataError("need at least one channel")
        w_shared = np.sqrt(self.shared_fraction)
        w_local = np.sqrt(1.0 - self.shared_fraction)
        for index, (start, stop) in enumerate(block_spans(n_samples, fs)):
            n = stop - start
            shared = self._block_source(n, fs, entropy, (index, 0))
            shared *= w_shared
            out = np.empty((n_channels, n))
            for ch, mix in enumerate(out):
                np.multiply(
                    self._block_source(n, fs, entropy, (index, ch + 1)),
                    w_local, out=mix,
                )
                mix += shared
                mix *= self.amplitude_uv / (mix.std() + 1e-12)
            if self.line_noise_uv > 0:
                # Absolute time keeps the 50 Hz line coherent across
                # block boundaries.
                t = (start + np.arange(n)) / fs
                out += self.line_noise_uv * np.sin(2 * np.pi * 50.0 * t)
            yield out
