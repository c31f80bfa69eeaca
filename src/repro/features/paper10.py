"""The paper's 10 selected features (Sec. III-A).

After backward elimination the paper keeps, per 4-second window:

from electrode **F7T3**:

1. total theta ([4, 8] Hz) band power,
2. relative theta band power,
3. total delta ([0.5, 4] Hz) band power;

from electrode **F8T4**:

4. relative theta band power,
5. seventh-level permutation entropy, n = 5,
6. seventh-level permutation entropy, n = 7,
7. sixth-level permutation entropy, n = 7,
8. third-level Rényi entropy,
9. sixth-level sample entropy, k = 0.2,
10. sixth-level sample entropy, k = 0.35.

"Level k" refers to the detail coefficients of the db4 DWT decomposed to
level 7.  These are exactly the inputs of Algorithm 1 (its ``F = 10``).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ..entropy.permutation import permutation_entropy
from ..entropy.renyi import renyi_entropy
from ..entropy.sample import sample_entropy
from ..exceptions import FeatureError
from ..signals.spectral import band_power_from_psd, welch_psd
from .base import FeatureExtractor
from .wavelet_features import dwt_details

__all__ = ["Paper10FeatureExtractor", "PAPER10_FEATURE_NAMES"]

PAPER10_FEATURE_NAMES: tuple[str, ...] = (
    "F7T3_theta_power",
    "F7T3_rel_theta_power",
    "F7T3_delta_power",
    "F8T4_rel_theta_power",
    "F8T4_perm_entropy_L7_n5",
    "F8T4_perm_entropy_L7_n7",
    "F8T4_perm_entropy_L6_n7",
    "F8T4_renyi_entropy_L3",
    "F8T4_sample_entropy_L6_k020",
    "F8T4_sample_entropy_L6_k035",
)


class Paper10FeatureExtractor(FeatureExtractor):
    """Extractor producing the paper's 10 backward-elimination survivors.

    Parameters
    ----------
    dwt_level:
        Decomposition depth (paper: 7), an integer of at least 7: the
        features read the level 3, 6 and 7 details.
    renyi_alpha:
        Order of the Rényi entropy, finite and positive (the paper does
        not state it; 2 is the standard choice in the EEG literature and
        is documented as such in EXPERIMENTS.md).

    Raises
    ------
    FeatureError
        For a ``dwt_level`` that is not an integer >= 7 (``bool``
        included) or a ``renyi_alpha`` that is not finite and positive.
    """

    def __init__(self, dwt_level: int = 7, renyi_alpha: float = 2.0) -> None:
        if (
            isinstance(dwt_level, bool)
            or not isinstance(dwt_level, numbers.Integral)
            or dwt_level < 7
        ):
            raise FeatureError(
                f"dwt_level must be an integer >= 7, got {dwt_level!r}"
            )
        if not (
            isinstance(renyi_alpha, numbers.Real)
            and math.isfinite(renyi_alpha)
            and renyi_alpha > 0
        ):
            raise FeatureError(
                f"renyi_alpha must be finite and positive, got {renyi_alpha!r}"
            )
        self._dwt_level = dwt_level
        self._renyi_alpha = renyi_alpha

    @property
    def feature_names(self) -> tuple[str, ...]:
        return PAPER10_FEATURE_NAMES

    def extract_window(self, window: np.ndarray, fs: float) -> np.ndarray:
        window = self._check_window(window)
        f7t3 = window[0]
        f8t4 = window[1]

        details = dwt_details(f8t4, level=self._dwt_level)

        # One PSD per channel feeds all band-power features of the window.
        freqs0, psd0 = welch_psd(f7t3, fs, nperseg=f7t3.size)
        freqs1, psd1 = welch_psd(f8t4, fs, nperseg=f8t4.size)
        theta0 = band_power_from_psd(freqs0, psd0, "theta")
        total0 = band_power_from_psd(freqs0, psd0, (0.0, fs / 2.0))
        theta1 = band_power_from_psd(freqs1, psd1, "theta")
        total1 = band_power_from_psd(freqs1, psd1, (0.0, fs / 2.0))

        return np.array(
            [
                theta0,
                theta0 / total0 if total0 > 0 else 0.0,
                band_power_from_psd(freqs0, psd0, "delta"),
                theta1 / total1 if total1 > 0 else 0.0,
                permutation_entropy(details[7], order=5),
                permutation_entropy(details[7], order=7),
                permutation_entropy(details[6], order=7),
                renyi_entropy(details[3], alpha=self._renyi_alpha),
                sample_entropy(details[6], m=2, k=0.20),
                sample_entropy(details[6], m=2, k=0.35),
            ]
        )

    def extract_batch(self, windows: np.ndarray, fs: float) -> np.ndarray:
        """All windows at once, through the batched feature kernels.

        Resolves each feature's kernel through ``repro.kernels.get_kernel``
        at call time, so batch, streaming and engine extraction share one
        implementation.  Both backends reproduce the
        looped :meth:`extract_window` path bit-for-bit.
        """
        from ..kernels import get_kernel

        windows = self._check_batch(windows)
        n_windows = windows.shape[0]
        if n_windows == 0:
            return np.empty((0, self.n_features))

        details = get_kernel("dwt_details")(windows[:, 1], level=self._dwt_level)

        # One PSD per channel feeds all band powers, as in extract_window:
        # a single call with both channels as lanes, which the kernel
        # copies to contiguous rows a chunk at a time (no whole-batch
        # copy of a sliding view).  F8T4's delta is unused.
        bp = get_kernel("band_powers")(
            windows[:, :2], fs=fs, bands=("theta", (0.0, fs / 2.0), "delta")
        )
        theta, total = bp[..., 0], bp[..., 1]
        # Guarded relative powers: same division (or 0.0) per window as
        # the scalar path, with the dummy divisor never reaching output.
        rel = np.where(total > 0, theta / np.where(total > 0, total, 1.0), 0.0)

        out = np.empty((n_windows, self.n_features))
        out[:, 0] = theta[:, 0]
        out[:, 1] = rel[:, 0]
        out[:, 2] = bp[:, 0, 2]
        out[:, 3] = rel[:, 1]
        perm = get_kernel("permutation_entropy")
        out[:, 4] = perm(details[7], order=5)
        out[:, 5] = perm(details[7], order=7)
        out[:, 6] = perm(details[6], order=7)
        out[:, 7] = get_kernel("renyi_entropy")(
            details[3], alpha=self._renyi_alpha
        )
        # Both SampEn tolerances from one std and one distance pass.
        out[:, 8:] = get_kernel("sample_entropy")(details[6], m=2, k=(0.20, 0.35))
        return out
