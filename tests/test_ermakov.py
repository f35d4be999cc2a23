"""Ermakov-Pinney construction, invariant constancy, residual sensitivity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlandau import ermakov as ek
from bmlandau.sectors import trig_pair


def constant_coef(c=1.0, omega=2.0):
    return ek.EPCoefficients(c / omega, c / omega, 0.0, c, omega)


class TestEPCoefficients:
    def test_constraint_enforced(self):
        with pytest.raises(ValueError, match="A\\*B - D\\^2"):
            ek.EPCoefficients(1.0, 1.0, 0.0, 2.0, 1.0)

    def test_trivial_amplitude_rejected(self):
        with pytest.raises(ValueError, match="trivial amplitude"):
            ek.EPCoefficients(-1.0, -1.0, 0.0, 1.0, 1.0)

    def test_builder_fixes_c(self):
        coef = ek.ep_coefficients(2.0, 1.0, 0.5, 3.0)
        assert coef.c == pytest.approx(3.0 * math.sqrt(1.75), rel=1e-14)

    def test_builder_rejects_negative_determinant(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ek.ep_coefficients(1.0, 1.0, 2.0, 1.0)

    @given(
        A=st.floats(0.2, 3.0),
        B=st.floats(0.2, 3.0),
        frac=st.floats(-0.95, 0.95),
        omega=st.floats(0.5, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_constant_for_admissible_coefficients(self, A, B, frac, omega):
        D = frac * math.sqrt(A * B)
        coef = ek.ep_coefficients(A, B, D, omega)
        pair = trig_pair(omega)
        sigma = ek.pinney_amplitude(pair, coef)
        dsigma = ek.pinney_derivative(pair, coef)
        q = np.linspace(0.0, 2.0 * math.pi / omega, 200)
        inv = ek.ermakov_invariant(pair.u1(q), pair.du1(q), sigma(q), dsigma(q), coef.c**2)
        assert (inv.max() - inv.min()) <= 1e-8 * abs(inv.mean())


class TestPinneyAmplitude:
    def test_constant_solution(self):
        coef = constant_coef(c=1.0, omega=2.0)
        sigma = ek.pinney_amplitude(trig_pair(2.0), coef)
        q = np.linspace(0.0, 5.0, 50)
        assert np.allclose(sigma(q), math.sqrt(0.5), atol=1e-14)

    def test_degenerate_c_zero_recovers_linear_solution(self):
        coef = ek.EPCoefficients(1.0, 0.0, 0.0, 0.0, 2.0)
        sigma = ek.pinney_amplitude(trig_pair(2.0), coef)
        q = np.linspace(0.0, 3.0, 31)
        assert np.allclose(sigma(q), np.abs(np.cos(2.0 * q)), atol=1e-14)

    def test_oscillatory_bounded_away_from_zero(self):
        coef = ek.ep_coefficients(2.0, 1.0, 0.5, 2.0)
        sigma = ek.pinney_amplitude(trig_pair(2.0), coef)
        q = np.linspace(0.0, 2.0 * math.pi, 2000)
        assert sigma(q).min() > 0.1

    def test_negative_radicand_reported(self):
        # admissible coefficients give a positive-semidefinite form, so the
        # negative-radicand guard is exercised with validation bypassed
        bad = object.__new__(ek.EPCoefficients)
        for name, value in (("A", 0.25), ("B", 1.0), ("D", -0.6), ("c", 0.0), ("W", 1.0)):
            object.__setattr__(bad, name, value)
        with pytest.raises(ValueError, match="radicand negative"):
            ek.pinney_amplitude(trig_pair(1.0), bad)(np.array([0.4]))

    def test_wrong_wronskian_rejected(self):
        coef = constant_coef(c=1.0, omega=2.0)
        with pytest.raises(ValueError, match="different Wronskian"):
            ek.pinney_amplitude(trig_pair(3.0), coef)

    @pytest.mark.parametrize("q", [1e29, np.array([1.0, 1e29])])
    @pytest.mark.parametrize("build", [ek.pinney_amplitude, ek.pinney_derivative])
    def test_sigma_past_float_range_refused_without_warning(self, build, q):
        from bmlandau.core import PhysParams
        from bmlandau.sectors import radial_basis

        # B u2^2 overflows at q = 1e29 with hbar = 1e57; sigma' was 0.0 there, a wrong finite value
        pair = radial_basis(0.0, PhysParams(hbar=1e57))
        evaluate = build(pair, ek.ep_coefficients(1.0, 1e250, 0.0, pair.wronskian))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"Pinney amplitude sigma overflows the float range at q = 1e\+29"):
                evaluate(q)


class TestErmakovInvariant:
    def test_constant_sigma_value(self):
        # y = cos(2q), sigma = sqrt(1/2), k = c^2 = 1: I = c*Omega/2 = 1
        coef = constant_coef(c=1.0, omega=2.0)
        pair = trig_pair(2.0)
        sigma = ek.pinney_amplitude(pair, coef)
        dsigma = ek.pinney_derivative(pair, coef)
        q = np.linspace(0.0, 3.0, 57)
        inv = ek.ermakov_invariant(pair.u1(q), pair.du1(q), sigma(q), dsigma(q), 1.0)
        assert np.allclose(inv, 1.0, atol=1e-13)

    def test_self_pairing_is_zero(self):
        assert ek.ermakov_invariant(1.3, 0.4, 1.3, 0.4, 0.0) == 0.0

    def test_k_zero_collapses_to_wronskian(self):
        y, dy, s, ds = 1.1, -0.3, 0.8, 0.5
        expected = 0.5 * (s * dy - ds * y) ** 2
        assert ek.ermakov_invariant(y, dy, s, ds, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_node_rejected(self):
        with pytest.raises(ValueError, match="amplitude node"):
            ek.ermakov_invariant(1.0, 0.0, 0.0, 1.0, 1.0)


class TestPinneyResidual:
    def test_constant_omega_residual_and_convergence(self):
        coef = ek.ep_coefficients(1.0, 0.8, 0.2, 1.0)
        sigma = ek.pinney_amplitude(trig_pair(1.0), coef)
        omega_sq = lambda q: 1.0 + 0.0 * np.asarray(q)
        assert ek.pinney_residual(sigma, omega_sq, coef.c, np.arange(0.0, 4.0, 1e-3)) < 1e-6
        # fourth order: halving the step divides the truncation error by 16
        res1 = ek.pinney_residual(sigma, omega_sq, coef.c, np.arange(0.0, 4.0, 4e-2))
        res2 = ek.pinney_residual(sigma, omega_sq, coef.c, np.arange(0.0, 4.0, 2e-2))
        assert 15.0 <= res1 / res2 <= 17.0

    def test_corrupted_amplitude_detected(self):
        coef = ek.ep_coefficients(1.0, 0.8, 0.2, 1.0)
        sigma = ek.pinney_amplitude(trig_pair(1.0), coef)
        omega_sq = lambda q: 1.0 + 0.0 * np.asarray(q)
        grid = np.arange(0.0, 4.0, 1e-3)
        clean = ek.pinney_residual(sigma, omega_sq, coef.c, grid)
        corrupted = ek.pinney_residual(lambda q: 1.01 * sigma(q), omega_sq, coef.c, grid)
        assert corrupted > 1e-3
        assert corrupted > 100.0 * clean

    def test_node_inside_window_rejected(self):
        # sigma = |sin| has an exact node at q = 0
        omega_sq = lambda q: 1.0 + 0.0 * np.asarray(q)
        grid = np.linspace(0.0, 3.0, 301)
        with pytest.raises(ValueError, match="node inside residual window"):
            ek.pinney_residual(lambda q: np.abs(np.sin(q)), omega_sq, 0.0, grid)
