"""Unit tests for the 10-20 montage model."""

import numpy as np
import pytest

from repro.data.montage import (
    ELECTRODES_1020,
    F7T3,
    F8T4,
    PAPER_PAIRS,
    BipolarPair,
    bipolar_from_referential,
)
from repro.exceptions import DataError


class TestElectrodes:
    def test_nineteen_scalp_sites(self):
        assert len(ELECTRODES_1020) == 19
        assert len(set(ELECTRODES_1020)) == 19

    def test_paper_pairs(self):
        assert F7T3.name == "F7T3"
        assert F8T4.name == "F8T4"
        assert PAPER_PAIRS == (F7T3, F8T4)


class TestBipolarPair:
    def test_unknown_electrode_raises(self):
        with pytest.raises(DataError):
            BipolarPair("F7", "XX")

    def test_identical_sites_raise(self):
        with pytest.raises(DataError):
            BipolarPair("F7", "F7")

    def test_str_form(self):
        assert str(F7T3) == "F7-T3"


class TestBipolarDerivation:
    def test_difference_of_referential(self, rng):
        ref = {"F7": rng.standard_normal(100), "T3": rng.standard_normal(100)}
        out = bipolar_from_referential(ref, F7T3)
        assert np.allclose(out, ref["F7"] - ref["T3"])

    def test_missing_electrode_raises(self, rng):
        with pytest.raises(DataError):
            bipolar_from_referential({"F7": rng.standard_normal(10)}, F7T3)

    def test_shape_mismatch_raises(self, rng):
        ref = {"F7": rng.standard_normal(10), "T3": rng.standard_normal(11)}
        with pytest.raises(DataError):
            bipolar_from_referential(ref, F7T3)
