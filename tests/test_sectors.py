"""Zero-current sector amplitudes and the radial basis pair."""

import math

import numpy as np
import pytest

from bmlandau import ermakov as ek
from bmlandau import sectors as sec
from bmlandau import specfun as sf
from bmlandau.core import PhysParams, QuantumNumbers, SampledProfile
from bmlandau.oracle import fd_residual

BETA_ONE = PhysParams(B=2.0)  # hbar = m = e = 1, B = 2 so beta = 1
NATURAL = PhysParams()


class TestPhysParams:
    def test_derived_scales(self):
        p = PhysParams(hbar=2.0, mass=4.0, charge=-3.0, B=5.0)
        assert p.beta == pytest.approx(-3.0 * 5.0 / 4.0)
        assert p.omega_c == pytest.approx(3.0 * 5.0 / 4.0)
        assert p.eB == pytest.approx(-15.0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PhysParams(hbar=0.0)
        with pytest.raises(ValueError):
            PhysParams(B=-1.0)

    def test_quantum_numbers_validation(self):
        with pytest.raises(ValueError):
            QuantumNumbers(-1, 0, 0.0)

    @pytest.mark.parametrize("k_z", [float("nan"), float("inf"), float("-inf")])
    def test_quantum_numbers_reject_non_finite_k_z(self, k_z):
        with pytest.raises(ValueError, match="k_z must be finite"):
            QuantumNumbers(0, 0, k_z)


class TestRadialBasis:
    def test_ground_even_solution_is_gaussian(self):
        pair = sec.radial_basis(0, BETA_ONE)
        r = np.linspace(0.0, 3.0, 31)
        assert np.allclose(pair.u1(r), np.exp(-r * r / 2.0), atol=1e-15)
        assert sec.radial_kappa_sq(0, BETA_ONE) == pytest.approx(BETA_ONE.beta)

    def test_quantised_even_family_eigenvalue(self):
        # a = -n_r gives kappa^2 = beta (4 n_r + 1)
        for n_r in (0, 1, 3):
            got = sec.radial_kappa_sq(-n_r, BETA_ONE)
            assert got == pytest.approx(BETA_ONE.beta * (4 * n_r + 1))

    @pytest.mark.parametrize("a", [0, -1, -2, 0.3])
    def test_both_members_solve_the_same_equation(self, a):
        pair = sec.radial_basis(a, BETA_ONE)
        k2 = sec.radial_kappa_sq(a, BETA_ONE)
        grid = np.arange(0.1, 3.0, 2e-4)
        ode = lambda y, dy, d2y, q: d2y + (k2 - (BETA_ONE.beta * q) ** 2) * y
        for u in (pair.u1, pair.u2):
            values = np.asarray(u(grid))
            rep = fd_residual(SampledProfile("r", grid, values), ode)
            # relative to the solution scale: the a > 0 members grow
            assert rep.max_abs < 1e-6 * max(1.0, float(np.max(np.abs(values))))

    def test_analytic_derivatives(self):
        pair = sec.radial_basis(-1, BETA_ONE)
        r = np.linspace(0.1, 2.5, 17)
        h = 1e-6
        for f, df in ((pair.u1, pair.du1), (pair.u2, pair.du2)):
            fd = (f(r + h) - f(r - h)) / (2.0 * h)
            assert np.max(np.abs(fd - df(r))) < 1e-7

    def test_wronskian_constant_and_unit(self):
        pair = sec.radial_basis(0, BETA_ONE)
        assert pair.wronskian == 1.0
        r = np.linspace(0.2, 3.0, 100)
        w = pair.wronskian_at(r)
        assert abs(w[0] - w[-1]) < 1e-10
        assert np.max(np.abs(w - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# one evaluation for (u1, u2, u1', u2'): the four separate closures and the
# Pinney derivative built on them, kept verbatim as the reference
# ---------------------------------------------------------------------------

def _seed_radial_functions(a, params):
    beta = params.beta

    def u1(r):
        r = np.asarray(r, dtype=float)
        x = beta * r * r
        return np.exp(-x / 2.0) * sf.hyp1f1(a, 0.5, x)

    def du1(r):
        r = np.asarray(r, dtype=float)
        x = beta * r * r
        f = sf.hyp1f1(a, 0.5, x)
        df = sf.hyp1f1_deriv(a, 0.5, x)
        return beta * r * np.exp(-x / 2.0) * (2.0 * df - f)

    def u2(r):
        r = np.asarray(r, dtype=float)
        x = beta * r * r
        return r * np.exp(-x / 2.0) * sf.hyp1f1(a + 0.5, 1.5, x)

    def du2(r):
        r = np.asarray(r, dtype=float)
        x = beta * r * r
        f = sf.hyp1f1(a + 0.5, 1.5, x)
        df = sf.hyp1f1_deriv(a + 0.5, 1.5, x)
        return np.exp(-x / 2.0) * (f * (1.0 - x) + 2.0 * x * df)

    return u1, u2, du1, du2


def _seed_trig_functions(omega):
    return (
        lambda q: np.cos(omega * np.asarray(q, dtype=float)),
        lambda q: np.sin(omega * np.asarray(q, dtype=float)),
        lambda q: -omega * np.sin(omega * np.asarray(q, dtype=float)),
        lambda q: omega * np.cos(omega * np.asarray(q, dtype=float)),
    )


def _seed_pinney_derivative(funcs, coef):
    u1, u2, du1, du2 = funcs

    def sigma(q):
        v1, v2 = u1(q), u2(q)
        radicand = coef.A * v1 * v1 + coef.B * v2 * v2 + 2.0 * coef.D * v1 * v2
        if np.any(np.asarray(radicand) < 0):
            raise ValueError("amplitude radicand negative: inadmissible EP coefficients")
        return np.sqrt(radicand)

    def dsigma(q):
        v1, v2 = u1(q), u2(q)
        d1, d2 = du1(q), du2(q)
        num = coef.A * v1 * d1 + coef.B * v2 * d2 + coef.D * (d1 * v2 + v1 * d2)
        return num / sigma(q)

    return dsigma


_GRIDS = (
    np.linspace(0.0, 3.0, 31),
    np.arange(0.1, 3.0, 2e-3),
    np.array([0.7]),
    np.array([[0.2, 1.1], [2.4, 3.0]]),
    0.9,
)


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSharedValues:
    @pytest.mark.parametrize("params", [BETA_ONE, NATURAL, PhysParams(B=1.3)], ids=["beta1", "beta0.5", "beta0.65"])
    @pytest.mark.parametrize("a", [0, -1, -3, 0.3, -0.4, 1.7])
    def test_radial_values_equal_the_four_closures(self, a, params):
        pair = sec.radial_basis(a, params)
        seed = _seed_radial_functions(a, params)
        for r in _GRIDS:
            got = pair.values(r)
            assert len(got) == 4
            for value, f in zip(got, seed):
                assert _same_bytes(value, f(r))
            assert _same_bytes(got[0], pair.u1(r)) and _same_bytes(got[1], pair.u2(r))
            assert _same_bytes(pair.du1(r), got[2]) and _same_bytes(pair.du2(r), got[3])
            assert _same_bytes(pair.wronskian_at(r), seed[0](r) * seed[3](r) - seed[1](r) * seed[2](r))

    @pytest.mark.parametrize("omega", [1.0, 2.0, 0.35])
    def test_trig_values_equal_the_four_closures(self, omega):
        pair = sec.trig_pair(omega)
        for q in (np.linspace(-2.0, 7.0, 301), 0.4):
            for value, f in zip(pair.values(q), _seed_trig_functions(omega)):
                assert _same_bytes(value, f(q))

    @pytest.mark.parametrize("coefs", [(1.0, 1.0, 0.0), (2.0, 1.0, 0.5), (1.5, 1.5, -1.0), (0.25, 0.25, 0.0)])
    def test_pinney_derivative_equals_reference(self, coefs):
        beta = PhysParams(B=1.3)  # not a power of two, so every product rounds
        cases = [(sec.radial_basis(a, p), _seed_radial_functions(a, p)) for a in (0, -2, 0.3) for p in (BETA_ONE, beta)]
        cases += [(sec.trig_pair(om), _seed_trig_functions(om)) for om in (1.0, 2.0)]
        for pair, seed in cases:
            coef = ek.ep_coefficients(*coefs, pair.wronskian)
            got, want = ek.pinney_derivative(pair, coef), _seed_pinney_derivative(seed, coef)
            for q in _GRIDS:
                assert _same_bytes(got(q), want(q))

    def test_pinney_derivative_raises_on_negative_radicand(self):
        # validation bypassed: admissible coefficients never give a negative radicand
        bad = object.__new__(ek.EPCoefficients)
        for name, value in (("A", 0.25), ("B", 1.0), ("D", -0.6), ("c", 0.0), ("W", 1.0)):
            object.__setattr__(bad, name, value)
        for pair in (sec.trig_pair(1.0), sec.radial_basis(0, BETA_ONE)):
            with pytest.raises(ValueError, match="radicand negative"):
                ek.pinney_derivative(pair, bad)(np.array([0.4, 0.8]))


class TestTrigAmplitudes:
    def test_constant_theta_amplitude(self):
        c, om = 1.0, 2.0
        coef = ek.EPCoefficients(c / om, c / om, 0.0, c, om)
        theta = sec.trig_amplitude(coef, om)
        q = np.linspace(0.0, 6.0, 61)
        assert np.allclose(theta(q), math.sqrt(c / om), atol=1e-15)

    def test_degenerate_gives_abs_cos(self):
        coef = ek.EPCoefficients(1.0, 0.0, 0.0, 0.0, 1.5)
        theta = sec.trig_amplitude(coef, 1.5)
        q = np.linspace(0.0, 4.0, 41)
        assert np.allclose(theta(q), np.abs(np.cos(1.5 * q)), atol=1e-15)

    def test_generic_theta_passes_pinney_residual(self):
        om = 1.0
        coef = ek.ep_coefficients(1.0, 0.8, 0.2, om)
        theta = sec.trig_amplitude(coef, om)
        omega_sq = lambda q: om * om + 0.0 * np.asarray(q)
        res = ek.pinney_residual(theta, omega_sq, coef.c, np.arange(0.0, 2 * math.pi, 1e-3))
        assert res < 1e-6

    def test_axial_mirrors_theta(self):
        k_z = 1.2
        coef = ek.ep_coefficients(0.9, 0.7, -0.1, k_z)
        z_amp = sec.trig_amplitude(coef, k_z)
        omega_sq = lambda q: k_z * k_z + 0.0 * np.asarray(q)
        res = ek.pinney_residual(z_amp, omega_sq, coef.c, np.arange(0.0, 2 * math.pi, 1e-3))
        assert res < 1e-6

    def test_zero_frequency_rejected(self):
        coef = ek.EPCoefficients(1.0, 0.0, 0.0, 0.0, 1.5)
        with pytest.raises(ValueError, match="nonzero frequency"):
            sec.trig_amplitude(coef, 0.0)

    def test_zero_wronskian_rejected(self):
        with pytest.raises(ValueError, match="Wronskian must be nonzero"):
            ek.EPCoefficients(1.0, 0.0, 0.0, 0.0, 0.0)


class TestSectorFrequencies:
    def test_gauge_term_vanishes_on_axis(self):
        freqs = sec.sector_frequencies(2.0, QuantumNumbers(0, 4, 0.7), NATURAL)
        assert freqs.omega_theta_sq(0.0) == pytest.approx(16.0, abs=1e-15)
        assert freqs.omega_z_sq == pytest.approx(0.49)

    def test_radial_profile(self):
        freqs = sec.sector_frequencies(5.0, QuantumNumbers(0, 0, 0.0), BETA_ONE)
        assert freqs.omega_r_sq(2.0) == pytest.approx(5.0 - 4.0)

