"""The three energy ladders, the splitting term, and the ordering sweep."""

import math

import pytest

from bmlandau import spectrum as sp
from bmlandau.core import PhysParams, QuantumNumbers
from bmlandau.sectors import energy_el

NATURAL = PhysParams()


class TestEnergyCBR:
    def test_ground_value(self):
        assert sp.energy_cbr(QuantumNumbers(0, 0, 0.0), NATURAL) == pytest.approx(0.75)

    def test_first_angular_value(self):
        want = 0.5 + math.sqrt(5.0) / 4.0
        assert sp.energy_cbr(QuantumNumbers(0, 1, 0.0), NATURAL) == pytest.approx(want, rel=1e-14)

    def test_excited_with_axial(self):
        # (hbar w/2)(2 + 1/2 + 1) + kz^2/2 at kz = 2
        assert sp.energy_cbr(QuantumNumbers(1, 0, 2.0), NATURAL) == pytest.approx(1.75 + 2.0)


class TestEnergyQM:
    def test_degenerate_for_positive_l(self):
        assert sp.energy_qm(QuantumNumbers(0, 3, 0.0), NATURAL) == pytest.approx(0.5)

    def test_negative_l_costs_a_quantum(self):
        assert sp.energy_qm(QuantumNumbers(0, -1, 0.0), NATURAL) == pytest.approx(1.5)

    def test_axial_term(self):
        assert sp.energy_qm(QuantumNumbers(2, 0, 1.0), NATURAL) == pytest.approx(3.0)

    def test_field_sign_mirrors_l(self):
        flipped = PhysParams(charge=-1.0)
        assert sp.energy_qm(QuantumNumbers(0, -3, 0.0), flipped) == pytest.approx(0.5)
        assert sp.energy_qm(QuantumNumbers(0, 3, 0.0), flipped) == pytest.approx(3.5)


class TestDegeneracySplitting:
    def test_l_zero(self):
        assert sp.degeneracy_splitting(0, NATURAL) == pytest.approx(0.25)

    def test_first_step(self):
        diff = sp.degeneracy_splitting(1, NATURAL) - sp.degeneracy_splitting(0, NATURAL)
        assert diff == pytest.approx(0.5 * (math.sqrt(1.25) - 0.5), rel=1e-14)
        assert diff == pytest.approx(0.309017, abs=1e-6)

    def test_even_in_l(self):
        for l in (1, 4, 9):
            assert sp.degeneracy_splitting(-l, NATURAL) == sp.degeneracy_splitting(l, NATURAL)

    def test_matches_cbr_minus_el(self):
        for l in (0, 1, 5):
            qn = QuantumNumbers(3, l, 0.4)
            gap = sp.energy_cbr(qn, NATURAL) - energy_el(qn, NATURAL)
            # for eB > 0 the EL ladder carries no l term, so the whole gap
            # is the non-cyclotronic splitting (hbar w/2) sqrt(l^2 + 1/4)
            assert gap == pytest.approx(sp.degeneracy_splitting(l, NATURAL), rel=1e-12)


class TestOrdering:
    def test_reference_triple(self):
        qn = QuantumNumbers(0, 1, 0.0)
        triple = (
            sp.energy_qm(qn, NATURAL),
            energy_el(qn, NATURAL),
            sp.energy_cbr(qn, NATURAL),
        )
        assert triple[0] == pytest.approx(0.5)
        assert triple[1] == pytest.approx(0.5)
        assert triple[2] == pytest.approx(1.0590169943749475)
        assert triple[0] <= triple[1] <= triple[2]

    def test_sweep_has_no_violations(self):
        report = sp.spectral_ordering_check(sp.default_ordering_grid(), NATURAL)
        assert report.checked == 11 * 10 * 3
        assert report.passed
        assert report.violations == []

    def test_ordering_predicate(self):
        qn = QuantumNumbers(0, 1, 0.0)
        assert sp.ordering_holds(qn, 0.5, 0.5, 1.06) is True
        assert sp.ordering_holds(qn, 0.5, 1.5, 1.06) is False
        assert sp.ordering_holds(QuantumNumbers(0, 0, 0.0), 0.5, 0.5, 0.75) is None

    def test_sweep_rejects_l_below_one(self):
        with pytest.raises(ValueError, match="l >= 1"):
            sp.spectral_ordering_check([QuantumNumbers(0, 0, 0.0)], NATURAL)

    def test_dispatch(self):
        qn = QuantumNumbers(2, 2, 0.3)
        assert sp.energy(sp.SpectrumModel.QM, qn, NATURAL) == sp.energy_qm(qn, NATURAL)
        assert sp.energy(sp.SpectrumModel.EL, qn, NATURAL) == energy_el(qn, NATURAL)
        assert sp.energy(sp.SpectrumModel.CBR, qn, NATURAL) == sp.energy_cbr(qn, NATURAL)

    @pytest.mark.parametrize("model", list(sp.SpectrumModel))
    @pytest.mark.parametrize("hbar, k_z, got", [(1e200, 0.0, "nan"), (1e200, 1.0, "inf"), (1.0, 1e200, "inf")])
    def test_dispatch_rejects_non_finite_energy(self, model, hbar, k_z, got):
        # hbar^2 k_z^2 overflows to inf, and to inf * 0 = nan at k_z = 0
        with pytest.raises(ValueError) as info:
            sp.energy(model, QuantumNumbers(0, 1, k_z), PhysParams(hbar=hbar))
        assert str(info.value) == f"{model.value} energy out of range for hbar = {hbar:g}, k_z = {k_z:g} (got {got})"

    def test_dispatch_keeps_large_finite_energy(self):
        qn = QuantumNumbers(0, 1, 1e150)
        got = sp.energy(sp.SpectrumModel.QM, qn, NATURAL)
        assert got == sp.energy_qm(qn, NATURAL)
        assert got == pytest.approx(5e299, rel=1e-15)
