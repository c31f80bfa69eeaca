"""Signal-processing substrate: DWT, spectral estimation, windows.

These are the primitives the paper's feature extraction is built from
(Sec. III-A): a Daubechies-4 multilevel DWT, band-power estimation in the
canonical EEG bands, and the 4-second / 75%-overlap sliding-window
geometry.
"""

from .spectral import (
    EEG_BANDS,
    band_power,
    median_frequency,
    peak_frequency,
    periodogram,
    relative_band_power,
    spectral_edge_frequency,
    total_power,
    welch_psd,
)
from .wavelet import (
    daubechies_filter,
    dwt_max_level,
    dwt_single,
    idwt_single,
    quadrature_mirror,
    subband_frequencies,
    wavedec,
    waverec,
)
from .windowing import WindowSpec, sliding_windows, window_count, window_matrix

__all__ = [
    "EEG_BANDS",
    "band_power",
    "median_frequency",
    "peak_frequency",
    "periodogram",
    "relative_band_power",
    "spectral_edge_frequency",
    "total_power",
    "welch_psd",
    "daubechies_filter",
    "dwt_max_level",
    "dwt_single",
    "idwt_single",
    "quadrature_mirror",
    "subband_frequencies",
    "wavedec",
    "waverec",
    "WindowSpec",
    "sliding_windows",
    "window_count",
    "window_matrix",
]
