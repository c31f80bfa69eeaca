"""International 10-20 electrode system and the paper's bipolar pairs.

The paper targets minimally invasive wearables (e-Glass and ear-EEG) that
record only two hidden bipolar channels: **F7T3** and **F8T4**
(Sec. III).  This module names the 10-20 electrodes, derives bipolar
channels from referential recordings, and exposes the canonical channel
pair used throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import DataError

__all__ = [
    "ELECTRODES_1020",
    "BipolarPair",
    "F7T3",
    "F8T4",
    "PAPER_PAIRS",
    "bipolar_from_referential",
]

#: The 19 scalp electrodes of the classic 10-20 placement (+ reference
#: positions A1/A2 are excluded; they are not scalp sites).
ELECTRODES_1020: tuple[str, ...] = (
    "Fp1", "Fp2",
    "F7", "F3", "Fz", "F4", "F8",
    "T3", "C3", "Cz", "C4", "T4",
    "T5", "P3", "Pz", "P4", "T6",
    "O1", "O2",
)

@dataclass(frozen=True)
class BipolarPair:
    """A bipolar EEG channel: the potential difference anode - cathode."""

    anode: str
    cathode: str

    def __post_init__(self) -> None:
        for site in (self.anode, self.cathode):
            if site not in ELECTRODES_1020:
                raise DataError(f"{site!r} is not a 10-20 electrode")
        if self.anode == self.cathode:
            raise DataError("bipolar pair needs two distinct electrodes")

    @property
    def name(self) -> str:
        """Compact CHB-MIT-style channel name, e.g. ``'F7T3'``."""
        return f"{self.anode}{self.cathode}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.anode}-{self.cathode}"


#: The two hidden-electrode channels of the target wearables.
F7T3 = BipolarPair("F7", "T3")
F8T4 = BipolarPair("F8", "T4")

#: Channel ordering used by every record in this library.
PAPER_PAIRS: tuple[BipolarPair, BipolarPair] = (F7T3, F8T4)


def bipolar_from_referential(
    data_by_electrode: dict[str, "object"], pair: BipolarPair
):
    """Derive a bipolar channel from referential recordings.

    Parameters
    ----------
    data_by_electrode:
        Mapping electrode name -> 1-D array of samples (common reference).
    pair:
        The bipolar derivation to compute.

    Returns
    -------
    numpy.ndarray
        ``data[anode] - data[cathode]``.

    Raises
    ------
    DataError
        If either electrode is missing from the mapping.
    """
    import numpy as np

    for site in (pair.anode, pair.cathode):
        if site not in data_by_electrode:
            raise DataError(f"referential data missing electrode {site!r}")
    a = np.asarray(data_by_electrode[pair.anode], dtype=float)
    c = np.asarray(data_by_electrode[pair.cathode], dtype=float)
    if a.shape != c.shape:
        raise DataError(
            f"electrode arrays disagree in shape: {a.shape} vs {c.shape}"
        )
    return a - c
