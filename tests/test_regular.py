"""Shell-regularised sectors: closed forms, obstruction, branch rules."""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bmlandau import regular as rg
from bmlandau import specfun as sf
from bmlandau.core import PhysParams, QuantumNumbers, SampledProfile
from bmlandau.oracle import fd_residual, quad_singular

NATURAL = PhysParams()
BETA_ONE = PhysParams(B=2.0)


class TestRegularisedLabels:
    def test_langer_order(self):
        labels = rg.RegularisedLabels.from_quantum_numbers(QuantumNumbers(2, 3, 0.0))
        assert labels.nu == pytest.approx(math.sqrt(9.25))
        assert labels.a_r == -2.0
        assert labels.nu >= 0.5

    def test_quantisation_identity(self):
        labels = rg.RegularisedLabels.from_quantum_numbers(QuantumNumbers(1, 2, 0.0))
        k2 = labels.kappa_r_sq(BETA_ONE)
        assert 0.5 * (labels.nu + 1.0) - k2 / 4.0 == pytest.approx(labels.a_r, abs=1e-12)


class TestRadialRegularised:
    def test_ground_state_closed_form(self):
        # n_r = 0, l = 0: nu = 1/2 and 1F1(0, ..) = 1, so R = sqrt(r) e^{-beta r^2/2}
        R = rg.radial_regularised(QuantumNumbers(0, 0, 0.0), BETA_ONE)
        r = np.linspace(0.05, 2.5, 40)
        assert np.allclose(R(r), np.sqrt(r) * np.exp(-r * r / 2.0), atol=1e-15)

    def test_leading_order_normalisation(self):
        qn = QuantumNumbers(2, 1, 0.0)
        nu = rg.RegularisedLabels.from_quantum_numbers(qn).nu
        R = rg.radial_regularised(qn, BETA_ONE)
        r = 1e-7
        assert float(R(r)) / r**nu == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("qn", [QuantumNumbers(0, 0, 0.0), QuantumNumbers(1, 1, 0.0), QuantumNumbers(2, 3, 0.0)])
    def test_langer_corrected_ode(self, qn):
        labels = rg.RegularisedLabels.from_quantum_numbers(qn)
        k2 = labels.kappa_r_sq(BETA_ONE)
        nu = labels.nu
        R = rg.radial_regularised(qn, BETA_ONE)
        grid = np.arange(0.2, 3.0, 2e-4)
        chi = np.sqrt(grid) * R(grid)
        rep = fd_residual(
            SampledProfile(grid, chi),
            lambda y, dy, d2y, q: d2y + (k2 - (BETA_ONE.beta * q) ** 2 - (nu * nu - 0.25) / q**2) * y,
        )
        assert rep.max_abs < 1e-6


    def test_high_radial_order_against_mpmath(self):
        # n_r = 40 on r in [0, 12] (x = beta r^2 up to 144): each point within
        # hyp1f1's polynomial bound 1e-13 max(|M|, e^{x/2}) (b = nu + 1 > 1),
        # times the envelope r^nu e^{-x/2}
        qn = QuantumNumbers(40, 1, 0.0)
        nu = rg.RegularisedLabels.from_quantum_numbers(qn).nu
        r = np.linspace(0.0, 12.0, 400)
        got = rg.radial_regularised(qn, BETA_ONE)(r)
        for ri, value in zip(r.tolist(), got.tolist()):
            with mp.workdps(30):
                x = BETA_ONE.beta * mp.mpf(ri) ** 2
                envelope = mp.mpf(ri) ** nu * mp.exp(-x / 2)
                m = mp.hyp1f1(-40, nu + 1, x)
                want, bound = float(envelope * m), float(envelope * max(abs(m), mp.exp(x / 2)))
            assert abs(value - want) <= 1e-13 * bound


class TestAxialRegularised:
    def test_ode_residual(self):
        Z = rg.axial_regularised(1.0)
        grid = np.arange(0.2, 5.0, 2e-4)
        rep = fd_residual(
            SampledProfile(grid, Z(grid)),
            lambda y, dy, d2y, q: -d2y + y / (4.0 * q * q) - y,
        )
        assert rep.max_abs < 1e-6

    def test_small_z_power(self):
        Z = rg.axial_regularised(1.0)
        z1, z2 = 1e-4, 2e-4
        order = math.log(float(Z(z2)) / float(Z(z1))) / math.log(2.0)
        assert order == pytest.approx(0.5 + 1.0 / math.sqrt(2.0), abs=1e-6)

    def test_nodes_scale_inversely_with_wavenumber(self):
        def first_node(k):
            Z = rg.axial_regularised(k)
            z = np.linspace(0.5 / k, 25.0 / k, 20000)
            v = Z(z)
            sign_flip = np.where(np.diff(np.sign(v)) != 0)[0]
            return z[sign_flip[0]]

        assert first_node(1.0) / first_node(2.0) == pytest.approx(2.0, rel=1e-3)

    def test_domain_guards(self):
        with pytest.raises(ValueError, match="k_z > 0"):
            rg.axial_regularised(0.0)
        Z = rg.axial_regularised(1.0)
        with pytest.raises(ValueError, match="half-line"):
            Z(np.array([-0.5, 1.0]))


class TestAzimuthalWhittaker:
    def test_ode_residual_complex(self):
        l, phi = 1, 0.5
        grid = np.arange(0.2, 2.0, 1e-4)
        Theta = rg.azimuthal_whittaker(grid, l, phi, 1.0, 0.0)
        rep = fd_residual(
            SampledProfile(grid, Theta),
            lambda y, dy, d2y, q: d2y + (l * l + phi / q - 1.0 / (4.0 * q * q)) * y,
        )
        assert rep.max_abs < 1e-6

    def test_zero_flux_residual_tight(self):
        # kappa = 0 case; unit-normalized profile (the equation is linear)
        l, h = 1, 1.5e-4
        grid = np.arange(0.2, 2.0, h)
        Theta = rg.azimuthal_whittaker(grid, l, 0.0, 1.0, 0.0)
        Theta = Theta / np.max(np.abs(Theta))
        rep = fd_residual(
            SampledProfile(grid, Theta),
            lambda y, dy, d2y, q: d2y + (l * l - 1.0 / (4.0 * q * q)) * y,
        )
        assert rep.max_abs < 1e-7

    def test_generically_complex(self):
        value = rg.azimuthal_whittaker(0.7, 1, 0.5, 1.0, 0.0)
        assert abs(value.imag) > 1e-6

    def test_linearity(self):
        v1 = rg.azimuthal_whittaker(0.7, 1, 0.5, 1.0, 0.0)
        v2 = rg.azimuthal_whittaker(0.7, 1, 0.5, 2.0, 0.0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_degenerate_l(self):
        with pytest.raises(ValueError, match="Whittaker map degenerate"):
            rg.azimuthal_whittaker(0.5, 0, 0.5, 1.0, 0.0)

    def test_theta_zero_rejected(self):
        with pytest.raises(ValueError, match="theta = 0"):
            rg.azimuthal_whittaker(np.array([0.0, 0.5]), 1, 0.5, 1.0, 0.0)


def _seed_azimuthal_whittaker(theta, l, phi, c1, c2):
    """The amplitude as it was with separate M and W calls, kept as the reference.

    Verbatim except that M and W are named before their products, as the
    library names them: numpy may multiply a temporary of 16,384 or more
    complex points in place with the operands swapped, which rounds
    differently, so unnamed the reference would depend on the grid's length.
    """
    if l == 0:
        raise ValueError("Whittaker map degenerate (x = 0 for l = 0)")
    kappa = -1j * phi / (2.0 * l)
    th_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(th_arr == 0):
        raise ValueError("azimuthal amplitude undefined at theta = 0")
    x = 2j * l * th_arr
    out = np.zeros(th_arr.shape, dtype=complex)
    if c1 != 0:
        m = np.asarray(sf.whittaker_m(kappa, rg.WHITTAKER_MU, x))
        out = out + c1 * m
    if c2 != 0:
        w = np.asarray(sf.whittaker_w(kappa, rg.WHITTAKER_MU, x))
        out = out + c2 * w
    return out if np.asarray(theta).ndim else complex(out[0])


class TestWhittakerSweeps:
    @pytest.mark.parametrize("c1", [1.0, 0.8 + 0.1j, 0.0])
    @pytest.mark.parametrize(
        "theta", [np.arange(0.2, 2.0, 1e-4), np.linspace(-1.5, -0.1, 50), 0.7], ids=["18000", "50", "scalar"]
    )
    def test_c2_zero_equals_reference(self, theta, c1):
        for l, phi in ((1, 0.5), (2, 1.125), (-3, 0.0)):
            got = rg.azimuthal_whittaker(theta, l, phi, c1, 0.0)
            want = _seed_azimuthal_whittaker(theta, l, phi, c1, 0.0)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("c1", [1.0, 0.0])
    def test_small_grids_with_w_equal_reference(self, c1):
        # below numpy's temporary-elision size every product rounds as before
        for theta in (np.linspace(0.2, 2.0, 1000), 0.7):
            got = rg.azimuthal_whittaker(theta, 2, 0.8, c1, 0.3 + 0.2j)
            want = _seed_azimuthal_whittaker(theta, 2, 0.8, c1, 0.3 + 0.2j)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("c1, c2, n_sweeps", [(1.0, 0.3 + 0.2j, 2), (0.0, 0.5j, 2), (1.0, 0.0, 1), (0.0, 0.0, 0)])
    def test_one_sweep_per_distinct_kummer_function(self, sweeps, c1, c2, n_sweeps):
        grid = np.linspace(0.2, 2.0, 500)
        rg.azimuthal_whittaker(grid, 1, 0.5, c1, c2)
        # each Kummer function is one series sweep (|x| = 2 theta <= 2) and one continuation sweep
        n_series = int(np.count_nonzero(grid <= 1.0))
        assert sweeps == [n_series, grid.size - n_series] * n_sweeps


    @pytest.mark.parametrize(
        "evaluate, grid",
        [
            (lambda x: sf.whittaker_w(-0.25j, 1.0 / math.sqrt(2.0), x), 2j * np.linspace(0.1, 14.0, 20_000)),
            (lambda t: rg.azimuthal_whittaker(t, 1, 0.5, 0.8 + 0.3j, 0.0), np.linspace(0.1, 2.0, 20_000)),
            (lambda t: rg.azimuthal_whittaker(t, 1, 0.5, 0.8 + 0.3j, 0.5j), np.linspace(0.1, 2.0, 20_000)),
        ],
        ids=["whittaker_w", "theta_m", "theta_m_and_w"],
    )
    def test_point_does_not_depend_on_the_grid_length(self, evaluate, grid):
        # from 16,384 complex points numpy may multiply a temporary in place
        # with the operands swapped, which rounds differently; every product
        # is named, so a 20,000-point grid and its first 16,383 points agree
        # bit for bit
        head = grid[:16_383]
        assert evaluate(grid)[: head.size].tobytes() == evaluate(head).tobytes()


def _outcome(f, x):
    """f(x) as bytes (each of a tuple's arrays), or the type of what it raised."""
    try:
        value = f(x)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc)
    return [np.asarray(v).tobytes() for v in (value if isinstance(value, tuple) else (value,))]


def _tiled_outcome(f, x):
    """f on x tiled k times, with k the least that takes the tiled length
    past 16,384 points, and f(x) itself tiled k times, as _outcome gives them."""
    k = 16_384 // x.size + 1
    whole = _outcome(f, np.tile(x, k))
    alone = _outcome(f, x)
    if not isinstance(alone, type):
        alone = [np.tile(np.frombuffer(v, np.uint8), k).tobytes() for v in alone]
    return whole, alone


def _spaced(lo, hi):
    """50 to 300 evenly spaced points between two draws from [lo, hi]: many
    distinct points, so a product that rounds differently shows."""
    return st.builds(lambda a, b, n: np.linspace(a, b, n), st.floats(lo, hi), st.floats(lo, hi), st.integers(50, 300))


# points on a ray through 0 (+-i axis, real axis, oblique) with |x| <= 29.9,
# on the +i axis up to 200, or both
_direction = st.one_of(
    st.sampled_from([1j, -1j, 1.0, -1.0]), st.floats(-3.1, 3.1).map(lambda p: complex(np.exp(1j * p)))
)
_ray_points = st.builds(lambda t, d: t * d, _spaced(0.01, 29.9), _direction)
_axis_points = _spaced(0.01, 200.0).map(lambda t: 1j * t)
_kummer_x = st.one_of(
    _ray_points, _axis_points, st.builds(lambda u, v: np.concatenate([u, v]), _ray_points, _axis_points)
)
_sector_kappa = st.builds(lambda phi, l: -1j * phi / (2.0 * l), st.floats(0.0, 2.0), st.integers(1, 6))
_coefficient = st.one_of(st.just(0j), st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))


class TestLengthIndependence:
    """k copies of a few points keep every group's max|x|, its largest terms
    and its ray chains, so the series and the continuation run as they do
    on the points alone; only a product numpy does in place with its
    operands swapped (from 16,384 complex points, where it reuses a
    temporary) could make the tiled call round differently."""

    @settings(max_examples=15, deadline=None)
    @given(a=st.builds(complex, st.floats(-4.0, 4.0), st.floats(-3.0, 3.0)), b=st.floats(0.3, 4.0), x=_kummer_x)
    # every point in the series region |x| <= 2, and every point continued
    @example(a=0.5 + 0.2j, b=1.5, x=2j * np.linspace(0.05, 0.95, 300))
    @example(a=1.2 - 0.3j, b=2.4,
             x=np.concatenate([np.linspace(3.0, 29.0, 200) * (0.6 + 0.8j), 1j * np.linspace(3.0, 150.0, 100)]))
    def test_hyp1f1(self, a, b, x):
        whole, alone = _tiled_outcome(lambda x: sf.hyp1f1(a, b, x), x)
        assert whole == alone

    @settings(max_examples=15, deadline=None)
    @given(kappa=_sector_kappa, mu=st.sampled_from([rg.WHITTAKER_MU, -rg.WHITTAKER_MU]), x=_kummer_x)
    @example(kappa=-0.25j, mu=rg.WHITTAKER_MU, x=2j * np.linspace(0.2, 1.0, 300))
    def test_whittaker_m(self, kappa, mu, x):
        whole, alone = _tiled_outcome(lambda x: sf.whittaker_m(kappa, mu, x), x)
        assert whole == alone

    @settings(max_examples=15, deadline=None)
    @given(kappa=_sector_kappa, x=_kummer_x)
    @example(kappa=-0.25j, x=2j * np.linspace(0.2, 1.0, 300))
    def test_whittaker_mw(self, kappa, x):
        whole, alone = _tiled_outcome(lambda x: sf.whittaker_mw(kappa, rg.WHITTAKER_MU, x), x)
        assert whole == alone

    @settings(max_examples=15, deadline=None)
    @given(nu=st.floats(0.0, 6.0), x=_spaced(0.0, 1000.0))
    @example(nu=rg.AXIAL_ORDER, x=np.linspace(0.1, 0.9, 300))
    def test_bessel_j(self, nu, x):
        whole, alone = _tiled_outcome(lambda x: sf.bessel_j(nu, x), x)
        assert whole == alone

    @settings(max_examples=15, deadline=None)
    @given(
        theta=_spaced(0.01, 6.28),
        l=st.integers(1, 3), phi=st.floats(-2.0, 2.0), c1=_coefficient, c2=_coefficient,
    )
    @example(theta=np.linspace(0.2, 0.9, 300), l=1, phi=0.5, c1=1 + 0j, c2=0j)
    @example(theta=np.linspace(0.2, 2.0, 300), l=2, phi=1.125, c1=0.8 + 0.1j, c2=0.5j)
    def test_azimuthal_whittaker(self, theta, l, phi, c1, c2):
        whole, alone = _tiled_outcome(lambda t: rg.azimuthal_whittaker(t, l, phi, c1, c2), theta)
        assert whole == alone

    # each case maps a draw (a, b, z) to the function and its scalar point
    SCALAR_CASES = {
        "hyp1f1_real": lambda a, b, z: (lambda x: sf.hyp1f1(a.real, b, x), z.real),
        "hyp1f1": lambda a, b, z: (lambda x: sf.hyp1f1(a, b, x), z),
        # M_{kappa,mu} sums 1F1(a, b) with mu = (b - 1)/2, kappa = mu - a + 1/2
        "whittaker_m": lambda a, b, z: (lambda x: sf.whittaker_m((b - 1.0) / 2.0 - a + 0.5, (b - 1.0) / 2.0, x), z),
        "whittaker_mw": lambda a, b, z: (lambda x: sf.whittaker_mw((b - 1.0) / 2.0 - a + 0.5, (b - 1.0) / 2.0, x), z),
        "bessel_j": lambda a, b, z: (lambda x: sf.bessel_j(b, x), abs(z)),
        "azimuthal_whittaker": lambda a, b, z: (lambda t: rg.azimuthal_whittaker(t, 1, a.real, 1.0, a), abs(z) + 0.01),
    }

    @pytest.mark.parametrize("case", list(SCALAR_CASES))
    @settings(max_examples=100, deadline=None)
    @given(a=st.builds(complex, st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)), b=st.floats(0.2, 4.0),
           z=st.builds(complex, st.floats(-1.4, 1.4), st.floats(-1.4, 1.4)))
    def test_scalar_is_a_one_point_array(self, case, a, b, z):
        # a scalar or 0-d x is summed as a one-point array: f(x0) and
        # f(np.array(x0)) have the bits of f(np.array([x0]))[0]
        assume(b != round(b))  # W's connection formula needs 2 mu = b - 1 off the integers
        f, x0 = self.SCALAR_CASES[case](a, b, z)
        one_point = _outcome(lambda x: f(np.array([x])), x0)
        assert _outcome(f, x0) == one_point
        assert _outcome(f, np.array(x0)) == one_point


class TestThetaLocalBranch:
    def test_kappa_zero_reduction(self):
        p = rg.LocalBranchParams(A_theta=1.0, phi=0.8, kappa=0.0)
        th = np.linspace(0.05, 0.6, 56)
        want = np.sqrt(np.abs(th)) * np.abs(1.0 - 1.6 * th) ** (-0.5)
        assert np.allclose(rg.theta_local_branch(th, p), want, atol=1e-15)

    def test_square_root_node_behaviour(self):
        p = rg.LocalBranchParams(A_theta=1.0, phi=0.8, kappa=0.3)
        for th in (1e-5, 1e-6):
            assert rg.theta_local_branch(th, p) / math.sqrt(th) == pytest.approx(1.0, abs=1e-4)

    def test_log_density_slope(self):
        p = rg.LocalBranchParams(A_theta=1.3, phi=0.8, kappa=0.3)
        th = np.arange(0.2, 0.5, 1e-3)
        h = 5e-5
        fd = (
            np.log(rg.theta_local_branch(th + h, p) ** 2)
            - np.log(rg.theta_local_branch(th - h, p) ** 2)
        ) / (2 * h)
        assert np.max(np.abs(fd - rg.local_branch_log_density_slope(th, p))) < 1e-6

    def test_log_density_slope_second_order(self):
        p = rg.LocalBranchParams(A_theta=1.0, phi=0.8, kappa=0.3)
        th = np.arange(0.2, 0.5, 1e-3)
        errs = []
        for h in (2e-4, 1e-4):
            fd = (
                np.log(rg.theta_local_branch(th + h, p) ** 2)
                - np.log(rg.theta_local_branch(th - h, p) ** 2)
            ) / (2 * h)
            errs.append(np.max(np.abs(fd - rg.local_branch_log_density_slope(th, p))))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)

    def test_singularities_guarded(self):
        p = rg.LocalBranchParams(A_theta=1.0, phi=0.8, kappa=0.3)
        with pytest.raises(ValueError, match="regularisation point"):
            rg.theta_local_branch(0.0, p)
        with pytest.raises(ValueError, match="flux-controlled singularity"):
            rg.theta_local_branch(1.0 / 1.6, p)
        with pytest.raises(ValueError, match="A_theta"):
            rg.LocalBranchParams(A_theta=0.0, phi=0.8, kappa=0.3)

    @given(
        log_r=st.floats(math.log(1e-8), math.log(2.0)),
        c_theta=st.floats(-2.0, 2.0),
        frac=st.floats(1e-4, 1.0),
        sign=st.sampled_from((1.0, -1.0)),
    )
    @settings(max_examples=300, deadline=None)
    # r = 1e-6, C_theta = 1, theta = 1: 2.2e-5 relative in the 1/phi form
    @example(log_r=math.log(1e-6), c_theta=1.0, frac=0.05, sign=1.0)
    def test_against_mpmath(self, log_r, c_theta, frac, sign):
        # the docstring bound, natural units, 0 < |theta| <= min(20, 0.95/(2 phi))
        r = math.exp(log_r)
        p = rg.local_branch_params(1.0, r, c_theta, NATURAL)
        th = sign * frac * min(20.0, 0.95 / (2.0 * p.phi))
        got = rg.theta_local_branch(th, p)
        with mp.workdps(80):
            phi, kappa, t = mp.mpf(p.phi), mp.mpf(p.kappa), mp.mpf(th)
            want = mp.sqrt(abs(t)) * abs(1 - 2 * phi * t) ** (-(1 + kappa / (2 * phi**2)) / 2) * mp.exp(
                -kappa * t / (2 * phi)
            )
            rel = float(abs(got - want) / want)
        assert rel <= (1e-15 if r <= 1e-2 else 5e-14)

    def test_zero_flux_limit(self):
        # phi = 0: sqrt(A theta) e^{kappa theta^2/2}, the limit that the 1/phi form cannot take
        p = rg.LocalBranchParams(A_theta=2.0, phi=0.0, kappa=0.3)
        th = np.linspace(-3.0, 3.0, 61)[np.arange(61) != 30]
        want = np.sqrt(2.0 * np.abs(th)) * np.exp(0.15 * th * th)
        assert np.max(np.abs(rg.theta_local_branch(th, p) / want - 1.0)) <= 4e-16

    def test_log_remainder_against_mpmath(self):
        # both sides of the series switch at |x| = 1/4, and either side of the pole at x = -1
        xs = [0.0, 1e-300, -1e-8, 0.1, -0.2, np.nextafter(0.25, 0), 0.25, -0.25, np.nextafter(-0.25, 0),
              0.6, -0.9, -1.5, 4.0, 1e10, -1e200]
        got = rg.log_remainder(np.array(xs))
        for x, value in zip(xs, got.tolist()):
            with mp.workdps(700):  # log|1 + x| - x cancels to about x^2 = 1e-600
                want = -0.5 if x == 0 else (mp.log(abs(1 + mp.mpf(x))) - x) / mp.mpf(x) ** 2
                assert abs(value - want) <= 2e-15 * abs(want), x

    def test_non_finite_params_rejected(self):
        for phi, kappa in ((math.inf, 0.3), (0.8, -math.inf), (math.nan, 0.3), (0.8, math.nan)):
            with pytest.raises(ValueError, match="finite flux ratio and current"):
                rg.LocalBranchParams(A_theta=1.0, phi=phi, kappa=kappa)

    def test_overflow_refused_only_where_the_amplitude_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = rg.local_branch_params(1.0, 1.0, 3000.0, NATURAL)
            with pytest.raises(ValueError, match=r"overflows the float range at theta = 0\.9"):
                rg.theta_local_branch(np.array([0.1, 0.5, 0.9]), p)
            # e^{+-841} alone leaves the float range, the amplitude with A = 1e-300 or 1e300 does not
            for A, C in ((1e-300, 600.0), (1e300, -600.0)):
                got = rg.theta_local_branch(0.9, rg.local_branch_params(A, 1.0, C, NATURAL))
                with mp.workdps(50):
                    kappa, t = mp.mpf(C), mp.mpf(0.9)  # phi = 1/2
                    want = mp.sqrt(A * t) * abs(1 - t) ** (-(1 + 2 * kappa) / 2) * mp.exp(-kappa * t)
                    assert abs(got - want) <= 1e-12 * want

    def test_params_builder(self):
        p = rg.local_branch_params(1.0, 2.0, 0.5, NATURAL)
        assert p.phi == pytest.approx(NATURAL.beta * 4.0)
        assert p.kappa == pytest.approx(4.0 * 0.5)
        assert math.copysign(1.0, p.kappa) == math.copysign(1.0, 0.5)


class TestDampedProfiles:
    def test_radial_flat_at_zero_current(self):
        assert rg.damped_radial_profile(1.7, 0.0, NATURAL) == 1.0

    def test_radial_gaussian_integral(self):
        got = quad_singular(lambda r, i: r * rg.damped_radial_profile(r, -1.0, NATURAL), 0.0, 9.0, 1e-12)
        assert got == pytest.approx(0.5, abs=1e-11)

    def test_radial_overflow_raises(self):
        # C_r r^2/hbar = 1e5 at r = 10: the density would be inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"C_r r\^2/hbar reaches 100000, above log\(float max\) = 709\.783$"):
                rg.damped_radial_profile(np.array([0.0, 5.0, 10.0]), 1000.0, NATURAL)
            with pytest.raises(ValueError, match="C_r"):
                rg.damped_radial_profile(1e200, 1.0, NATURAL)

    def test_radial_at_the_overflow_limit_is_finite(self):
        # the largest exponent below the limit still gives a finite density,
        # and a huge negative exponent underflows to 0 without a warning
        limit = math.log(sys.float_info.max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(rg.damped_radial_profile(1.0, limit, NATURAL))
            assert rg.damped_radial_profile(np.array([1e200]), -1.0, NATURAL).tolist() == [0.0]

    def test_radial_normalisability_flag(self):
        assert rg.radial_profile_normalisable(-0.1)
        assert not rg.radial_profile_normalisable(0.1)
        assert not rg.radial_profile_normalisable(0.0)

    def test_axial_log_derivative(self):
        h = 1e-6
        ld = (
            rg.damped_axial_profile(1.0 + h, -1.0, NATURAL) - rg.damped_axial_profile(1.0 - h, -1.0, NATURAL)
        ) / (2 * h * rg.damped_axial_profile(1.0, -1.0, NATURAL))
        assert ld == pytest.approx(-0.5, abs=1e-8)

    def test_axial_node_behaviour(self):
        for z in (1e-4, 1e-6):
            assert rg.damped_axial_profile(z, -1.0, NATURAL) / math.sqrt(z) == pytest.approx(1.0, abs=1e-4)

    def test_axial_zero_current_is_pure_square_root(self):
        z = np.linspace(0.1, 2.0, 20)
        assert np.allclose(rg.damped_axial_profile(z, 0.0, NATURAL), np.sqrt(z), atol=1e-15)

    @pytest.mark.parametrize("c_z", [-1e300, 1e300])
    def test_axial_overflowing_exponent_is_zero(self, c_z):
        # -|C_z| z^2 overflows to -inf past float range: the envelope is 0, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rg.damped_axial_profile(np.array([0.0, 5e9, -1e10]), c_z, NATURAL)
            assert got.tolist() == [0.0, 0.0, 0.0]
            assert rg.damped_axial_profile(1e200, -1.0, NATURAL) == 0.0

    def test_axial_envelope_with_hbar_near_float_max(self):
        # 2 hbar would overflow to inf and -inf / inf give nan: the envelope is 0, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rg.damped_axial_profile(np.array([0.0, 5e9, 1e10]), 1e300, PhysParams(hbar=1e308))
        assert got.tolist() == [0.0, 0.0, 0.0]


class TestBranchAssignment:
    def test_componentwise(self):
        branch, label = rg.branch_assignment(-1.0, -2.0)
        assert branch.C_theta == pytest.approx(3.0)
        assert label == "componentwise"

    def test_compensating(self):
        branch, label = rg.branch_assignment(-1.0, 1.0)
        assert branch.C_theta == 0.0
        assert label == "compensating"

    def test_inadmissible(self):
        branch, label = rg.branch_assignment(1.0, 1.0)
        assert branch.C_theta == pytest.approx(-2.0)
        assert label == "inadmissible"

    def test_mixed(self):
        _, label = rg.branch_assignment(-1.0, 0.5)
        assert label == "mixed"

    @given(c_r=st.floats(-10, 10), c_z=st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_zero_sum_and_sign_rules(self, c_r, c_z):
        branch, label = rg.branch_assignment(c_r, c_z)
        assert abs(branch.C_r + branch.C_theta + branch.C_z) <= 1e-14 * max(
            1.0, abs(c_r), abs(c_z)
        )
        if label == "componentwise":
            assert branch.C_theta > 0
        if label == "inadmissible":
            assert branch.C_theta < 0
        if label == "compensating":
            assert branch.C_theta == 0.0
