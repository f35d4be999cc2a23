"""The three energy ladders, the splitting term, and the ordering sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlandau import spectrum as sp
from bmlandau.core import PhysParams, QuantumNumbers

NATURAL = PhysParams()
QM, EL, CBR = sp.SpectrumModel.QM, sp.SpectrumModel.EL, sp.SpectrumModel.CBR


# The scalar ladders and dispatcher that ``energy`` replaced, verbatim: the
# references the array ladders must equal bit for bit.

def _seed_energy_qm(qn: QuantumNumbers, params: PhysParams) -> float:
    """Standard spectrum E = hbar omega_c (n_r + (|l| - s l)/2 + 1/2) + axial, s = sign(eB)."""
    s = math.copysign(1.0, params.eB)
    hb, m = params.hbar, params.mass
    return (
        hb * params.omega_c * (qn.n_r + (abs(qn.l) - s * qn.l) / 2.0 + 0.5)
        + hb * hb * qn.k_z * qn.k_z / (2.0 * m)
    )


def _seed_energy_el(qn: QuantumNumbers, params: PhysParams) -> float:
    """Ermakov-Lewis route energy.

    E = hbar omega_c (n_r + 1/2) + (hbar l / 2m)(|eB| - eB) + hbar^2 k_z^2 / 2m.
    For eB > 0 the middle term vanishes and the spectrum is degenerate in l.
    """
    hb, m = params.hbar, params.mass
    eB = params.eB
    return (
        hb * params.omega_c * (qn.n_r + 0.5)
        + (hb * qn.l / (2.0 * m)) * (abs(eB) - eB)
        + hb * hb * qn.k_z * qn.k_z / (2.0 * m)
    )


def _seed_energy_cbr(qn: QuantumNumbers, params: PhysParams) -> float:
    """Regularised spectrum E = (hbar omega_c / 2)(2 n_r + sqrt(l^2 + 1/4) + 1) + axial."""
    hb, m = params.hbar, params.mass
    nu = math.sqrt(qn.l * qn.l + 0.25)
    return hb * params.omega_c / 2.0 * (2.0 * qn.n_r + nu + 1.0) + hb * hb * qn.k_z * qn.k_z / (2.0 * m)


def _seed_energy(model: sp.SpectrumModel, qn: QuantumNumbers, params: PhysParams) -> float:
    """Energy of the state qn on one ladder; a non-finite energy is a ValueError.

    The axial term hbar^2 k_z^2 / 2m leaves the float range (inf, or nan
    at k_z = 0) when hbar or k_z is too large.
    """
    if model is sp.SpectrumModel.QM:
        e = _seed_energy_qm(qn, params)
    elif model is sp.SpectrumModel.EL:
        e = _seed_energy_el(qn, params)
    else:
        e = _seed_energy_cbr(qn, params)
    if not math.isfinite(e):
        raise ValueError(f"{model.value} energy out of range for hbar = {params.hbar:g}, k_z = {qn.k_z:g} (got {e})")
    return e


def _seed_outcome(model, states, params):
    """The seed energies of states in order, or the message of the first state that raises."""
    try:
        return [_seed_energy(model, QuantumNumbers(*state), params) for state in states]
    except ValueError as exc:
        return str(exc)


def _outcome(model, n_r, l, k_z, params):
    try:
        return sp.energy(model, n_r, l, k_z, params)
    except ValueError as exc:
        return str(exc)


class TestEnergyCBR:
    def test_ground_value(self):
        assert sp.energy(CBR, 0, 0, 0.0, NATURAL) == pytest.approx(0.75)

    def test_first_angular_value(self):
        want = 0.5 + math.sqrt(5.0) / 4.0
        assert sp.energy(CBR, 0, 1, 0.0, NATURAL) == pytest.approx(want, rel=1e-14)

    def test_excited_with_axial(self):
        # (hbar w/2)(2 + 1/2 + 1) + kz^2/2 at kz = 2
        assert sp.energy(CBR, 1, 0, 2.0, NATURAL) == pytest.approx(1.75 + 2.0)


class TestEnergyQM:
    def test_degenerate_for_positive_l(self):
        assert sp.energy(QM, 0, 3, 0.0, NATURAL) == pytest.approx(0.5)

    def test_negative_l_costs_a_quantum(self):
        assert sp.energy(QM, 0, -1, 0.0, NATURAL) == pytest.approx(1.5)

    def test_axial_term(self):
        assert sp.energy(QM, 2, 0, 1.0, NATURAL) == pytest.approx(3.0)

    def test_field_sign_mirrors_l(self):
        flipped = PhysParams(charge=-1.0)
        assert sp.energy(QM, 0, -3, 0.0, flipped) == pytest.approx(0.5)
        assert sp.energy(QM, 0, 3, 0.0, flipped) == pytest.approx(3.5)


class TestEnergyEL:
    def test_natural_unit_values(self):
        assert sp.energy(EL, 0, 0, 0.0, NATURAL) == pytest.approx(0.5)
        assert sp.energy(EL, 2, 5, 0.0, NATURAL) == pytest.approx(2.5)
        assert sp.energy(EL, 0, 0, 2.0, NATURAL) == pytest.approx(2.5)

    def test_degenerate_in_l_for_positive_field(self):
        values = set(sp.energy(EL, 1, np.arange(-5, 6), 0.3, NATURAL).tolist())
        assert len(values) == 1

    def test_negative_field_lifts_degeneracy(self):
        p = PhysParams(charge=-1.0)
        e0 = sp.energy(EL, 0, 0, 0.0, p)
        e1 = sp.energy(EL, 0, 1, 0.0, p)
        assert e1 - e0 == pytest.approx(p.hbar * 1 / (2 * p.mass) * (abs(p.eB) - p.eB))


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
            gap = sp.energy(CBR, 3, l, 0.4, NATURAL) - sp.energy(EL, 3, l, 0.4, NATURAL)
            # for eB > 0 the EL ladder carries no l term, so the whole gap
            # is the non-cyclotronic splitting (hbar w/2) sqrt(l^2 + 1/4)
            assert gap == pytest.approx(sp.degeneracy_splitting(l, NATURAL), rel=1e-12)


class TestOrdering:
    def test_reference_triple(self):
        triple = tuple(sp.energy(model, 0, 1, 0.0, NATURAL) for model in (QM, EL, CBR))
        assert triple[0] == pytest.approx(0.5)
        assert triple[1] == pytest.approx(0.5)
        assert triple[2] == pytest.approx(1.0590169943749475)
        assert triple[0] <= triple[1] <= triple[2]

    def test_sweep_has_no_violations(self):
        mask = sp.spectral_ordering_check(*sp.default_ordering_grid(), NATURAL)
        assert mask.size == 11 * 10 * 3
        assert not mask.any()
        assert np.flatnonzero(mask).tolist() == []

    def test_ordering_predicate(self):
        assert sp.ordering_flags(1, 0.5, 0.5, 1.06) == "ok"
        assert sp.ordering_flags(1, 0.5, 1.5, 1.06) == "violated"
        assert sp.ordering_flags(0, 0.5, 0.5, 0.75) == "n/a"

    def test_sweep_rejects_l_below_one(self):
        with pytest.raises(ValueError, match="l >= 1"):
            sp.spectral_ordering_check(0, 0, 0.0, NATURAL)

    def test_dispatch(self):
        qn = QuantumNumbers(2, 2, 0.3)
        assert sp.energy(QM, 2, 2, 0.3, NATURAL) == _seed_energy_qm(qn, NATURAL)
        assert sp.energy(EL, 2, 2, 0.3, NATURAL) == _seed_energy_el(qn, NATURAL)
        assert sp.energy(CBR, 2, 2, 0.3, NATURAL) == _seed_energy_cbr(qn, NATURAL)

    @pytest.mark.parametrize("model", list(sp.SpectrumModel))
    @pytest.mark.parametrize("hbar, k_z, got", [(1e200, 0.0, "nan"), (1e200, 1.0, "inf"), (1.0, 1e200, "inf")])
    def test_dispatch_rejects_non_finite_energy(self, model, hbar, k_z, got):
        # hbar^2 k_z^2 overflows to inf, and to inf * 0 = nan at k_z = 0
        with pytest.raises(ValueError) as info:
            sp.energy(model, 0, 1, k_z, PhysParams(hbar=hbar))
        assert str(info.value) == f"{model.value} energy out of range for hbar = {hbar:g}, k_z = {k_z:g} (got {got})"

    def test_dispatch_keeps_large_finite_energy(self):
        qn = QuantumNumbers(0, 1, 1e150)
        got = sp.energy(QM, 0, 1, 1e150, NATURAL)
        assert got == _seed_energy_qm(qn, NATURAL)
        assert got == pytest.approx(5e299, rel=1e-15)


_k_z = st.one_of(
    st.just(0.0),
    st.floats(-20.0, 20.0),
    st.floats(5e152, 2e154).flatmap(lambda k: st.sampled_from([k, -k])),
)
_magnitude = st.floats(1e-3, 1e3)
_params = st.builds(
    lambda hbar, mass, charge, sign, B: PhysParams(hbar=hbar, mass=mass, charge=sign * charge, B=B),
    _magnitude, _magnitude, _magnitude, st.sampled_from([1.0, -1.0]), _magnitude,
)
_states = st.lists(st.tuples(st.integers(0, 60), st.integers(-60, 60), _k_z), min_size=1, max_size=12)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestArrayLadders:
    """energy on scalars, 1-D and 2-D arrays against the seed ladders, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(states=_states, params=_params)
    def test_equals_seed_ladders(self, states, params):
        n_r, l, k_z = (np.array(column) for column in zip(*states))
        for model in sp.SpectrumModel:
            want = _seed_outcome(model, states, params)
            got = _outcome(model, n_r, l, k_z, params)
            if isinstance(want, str):
                assert got == want  # the first state that overflows, in row order
                continue
            assert got.shape == n_r.shape
            assert _bits(got) == _bits(want)
            for state, e in zip(states, want):
                scalar = sp.energy(model, *state, params)
                assert type(scalar) is float and _bits(scalar) == _bits(e)

    @settings(max_examples=100, deadline=None)
    @given(
        n_r=st.lists(st.integers(0, 60), min_size=1, max_size=5),
        l=st.lists(st.integers(-60, 60), min_size=1, max_size=5),
        k_z=_k_z,
        params=_params,
    )
    def test_two_dimensional_broadcast(self, n_r, l, k_z, params):
        # a column of n_r against a row of l: row order is n_r-major
        states = [(n, ell, k_z) for n in n_r for ell in l]
        for model in sp.SpectrumModel:
            want = _seed_outcome(model, states, params)
            got = _outcome(model, np.array(n_r)[:, None], np.array(l)[None, :], k_z, params)
            if isinstance(want, str):
                assert got == want
                continue
            assert got.shape == (len(n_r), len(l))
            assert _bits(got) == _bits(want)

    def test_negative_n_r_rejected(self):
        with pytest.raises(ValueError, match=r"^radial quantum number n_r must be >= 0$"):
            sp.energy(QM, np.array([0, -1]), 0, 0.0, NATURAL)

    def test_first_overflowing_state_is_named(self):
        # the second and third states overflow; the error names the second
        with pytest.raises(ValueError) as info:
            sp.energy(EL, 0, 1, [0.0, 1e155, 2e155], NATURAL)
        assert str(info.value) == "el energy out of range for hbar = 1, k_z = 1e+155 (got inf)"
        assert info.value.state == 1
