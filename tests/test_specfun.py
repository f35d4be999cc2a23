"""Special-function layer: series values, identities, error behaviour."""

import cmath
import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bmlandau import specfun as sf

SQ2 = 1.0 / math.sqrt(2.0)


class TestHyp1f1:
    def test_empty_series_a_zero(self):
        assert sf.hyp1f1(0, 0.5, 3.7) == 1.0

    def test_polynomial_a_minus_one(self):
        # 1 - 2x at x = 1
        assert sf.hyp1f1(-1, 0.5, 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_exponential_identity(self):
        assert sf.hyp1f1(1, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_polynomial_termination_is_exact(self):
        # degree-3 polynomial evaluated far outside the series range
        got = sf.hyp1f1(-3, 2.0, 50.0)
        coeffs = [1.0, (-3.0) / 2.0 * 50.0]
        coeffs.append(coeffs[1] * (-2.0) * 50.0 / (3.0 * 2.0))
        coeffs.append(coeffs[2] * (-1.0) * 50.0 / (4.0 * 3.0))
        assert got == pytest.approx(sum(coeffs), rel=1e-13)

    def test_against_mpmath_real_and_complex(self):
        for a, b, x in [(0.3, 1.7, 4.0), (2.5, 0.5, -6.0), (0.5, 1.5, 9.0), (0.25, 1.25, 10j)]:
            want = complex(mp.hyp1f1(a, b, complex(x)))
            got = complex(sf.hyp1f1(a, b, x))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_array_argument_matches_scalar(self):
        xs = np.linspace(-3.0, 8.0, 13)
        arr = sf.hyp1f1(0.4, 1.3, xs)
        for x, v in zip(xs, arr):
            assert v == pytest.approx(sf.hyp1f1(0.4, 1.3, float(x)), rel=1e-13)

    def test_pole_of_kummer_function(self):
        with pytest.raises(ValueError, match="pole of Kummer"):
            sf.hyp1f1(0.5, -2, 1.0)
        with pytest.raises(ValueError, match="pole of Kummer"):
            sf.hyp1f1(0.5, -2.0, 1.0)  # float b hits the pole mid-series

    def test_polynomial_with_smaller_magnitude_allowed_over_pole(self):
        # a = -1 terminates the series before b = -3 reaches its pole
        got = sf.hyp1f1(-1, -3, 2.0)
        assert got == pytest.approx(1.0 + (-1.0) / (-3.0) * 2.0, rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_polynomial_ending_at_the_pole_index(self, n):
        # the degree-n sum divides by b + k for k < n only, so b = -n is allowed:
        # 1F1(-n, -n; x) = sum_{k <= n} x^k / k!
        for x in (1.0, -2.5, 7.0, 1.0 + 2.0j, -3j, 4.0 - 4.0j):
            with mp.workdps(30):
                want = complex(mp.hyp1f1(-n, -n, x))
            got = sf.hyp1f1(-n, float(-n), x)
            assert type(got) is (complex if isinstance(x, complex) else float)
            scale = sum(abs(x) ** k / math.factorial(k) for k in range(n + 1))
            assert abs(got - want) <= 1e-15 * scale
        with pytest.raises(ValueError, match="pole of Kummer"):
            sf.hyp1f1(-n - 1, float(-n), 1.0)

    @pytest.mark.parametrize(
        "a, b, x, dtype",
        [(0.5, 1.5, np.array([]), float), (-2, 1.5, np.array([]), float),
         (0.5 + 1j, 1.5, np.array([]), complex), (0.5, 1.5, np.empty((2, 0), dtype=complex), complex)],
    )
    def test_empty_array(self, a, b, x, dtype):
        got = sf.hyp1f1(a, b, x)
        assert got.shape == x.shape and got.dtype == dtype

    def test_out_of_validated_range(self):
        with pytest.raises(ValueError, match="validated range"):
            sf.hyp1f1(0.5, 1.5, 31.0)

    @pytest.mark.parametrize(
        "x, region",
        [(30.5 * cmath.exp(0.4j), "complex x off the imaginary axis"), (30.5, "real x"),
         (2000.5j, "x on the imaginary axis")],
    )
    def test_out_of_range_names_its_region(self, x, region):
        with pytest.raises(ValueError, match=f"^hyp1f1: {region} out of validated range"):
            sf.hyp1f1(0.5, 1.5, x)
        with pytest.raises(ValueError, match=f"^hyp1f1: {region} out of validated range"):
            sf.hyp1f1(0.5, 1.5, np.array([0 * x, x]))

    def test_series_budget_exceeded(self):
        with pytest.raises(RuntimeError, match="series budget exceeded"), _series_limits(1e-15, 5):
            sf.hyp1f1(0.5, 1.5, 25.0)

    def test_series_budget_exceeded_at_the_shipped_limits(self):
        with pytest.raises(RuntimeError, match="^series budget exceeded: 1F1 did not converge in 500 terms$"):
            sf.hyp1f1(1e6, 1.0, 1.0)

    def test_contiguity_relation(self):
        # b F(a,b) - b F(a-1,b) = x F(a,b+1)
        for a, b, x in [(0.7, 1.1, 3.0), (2.0, 0.6, -5.0), (1.3, 2.2, 7j)]:
            lhs = b * sf.hyp1f1(a, b, x) - b * sf.hyp1f1(a - 1.0, b, x)
            rhs = x * sf.hyp1f1(a, b + 1.0, x)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_derivative_contiguous_relation(self):
        a, b, x = 0.7, 1.4, 2.0
        h = 1e-6
        fd = (sf.hyp1f1(a, b, x + h) - sf.hyp1f1(a, b, x - h)) / (2 * h)
        assert sf.hyp1f1_deriv(a, b, x) == pytest.approx(fd, rel=1e-8)


class TestLnGamma:
    def test_gamma_one(self):
        assert abs(sf.ln_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        assert sf.ln_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)
        assert abs(sf.ln_gamma(0.5).imag) < 1e-14

    def test_gamma_five(self):
        assert sf.ln_gamma(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)

    def test_recurrence_exponentiated(self):
        for z in (0.3, 2.7, 0.4 + 1.1j, -0.8 + 0.3j):
            lhs = cmath.exp(sf.ln_gamma(z + 1.0))
            rhs = z * cmath.exp(sf.ln_gamma(z))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_reflection_on_unit_interval(self):
        for z in np.linspace(0.05, 0.95, 19):
            value = (
                math.exp(sf.ln_gamma(float(z)).real + sf.ln_gamma(1.0 - float(z)).real)
                * math.sin(math.pi * z)
                / math.pi
            )
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_mpmath_off_axis(self):
        for z in (0.3 + 0.7j, 2.0 - 1.5j, 4.1 + 0.2j):
            want = complex(mp.loggamma(z))
            assert abs(sf.ln_gamma(z) - want) <= 1e-10

    def test_gamma_pole(self):
        for z in (0, -1, -3.0, 0.0):
            with pytest.raises(ValueError, match="gamma pole"):
                sf.ln_gamma(z)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-5.0, 0.5, exclude_max=True), y=st.floats(-1e3, 1e3))
    @example(x=-0.2, y=240.0)  # sin(pi z) overflows past |Im z| = 226
    @example(x=-4.7, y=-1e3)
    def test_reflection_matches_mpmath_at_large_imaginary_part(self, x, y):
        # within 0.01 of a pole the rounding of pi z costs more than 1e-12
        z = complex(x, y)
        assume(abs(z - min(round(x), 0)) >= 0.01)
        got = sf.ln_gamma(z)
        want = complex(mp.loggamma(z))
        assert abs(got.real - want.real) <= 1e-12 * abs(want)
        assert abs(math.remainder(got.imag - want.imag, 2.0 * math.pi)) <= 1e-12 * abs(want)


    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 30), offset=st.floats(1e-12, 0.3), side=st.sampled_from([1.0, -1.0]),
           y=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)))
    @example(n=4, offset=1e-8, side=1.0, y=0.0)  # z = -4 + 1e-8: 9.1e-12 before the reduction
    @example(n=3, offset=0.0, side=1.0, y=1e-9)  # z = -3 + 1e-9 i: its imaginary part
    @example(n=20, offset=1e-10, side=1.0, y=-1e-12)
    def test_near_the_poles_against_mpmath(self, n, offset, side, y):
        # sin(pi z) is taken at z - n, exact, so the distance to the pole n survives
        z = complex(-n + side * offset, y)
        assume(not sf._hits_gamma_pole(z))
        with mp.workdps(40):
            want = complex(mp.loggamma(mp.mpc(z)))
        got = sf.ln_gamma(z)
        scale = max(1.0, abs(want))
        assert abs(got.real - want.real) <= 4e-15 * scale
        assert abs(math.remainder(got.imag - want.imag, 2.0 * math.pi)) <= 4e-15 * scale


class TestWhittakerM:
    def test_reduces_to_sinh(self):
        # M_{0,1/2}(x) = 2 sinh(x/2)
        assert sf.whittaker_m(0.0, 0.5, 2.0) == pytest.approx(2.0 * math.sinh(1.0), rel=1e-13)

    def test_zero_limit(self):
        assert sf.whittaker_m(0.0, 0.5, 0.0) == 0.0
        assert abs(sf.whittaker_m(0.0, 0.5, 1e-12)) < 1e-11

    def test_ode_residual_complex_argument(self):
        kappa, mu = -0.3j, SQ2
        x0 = 2j * 0.7
        direction = x0 / abs(x0)
        h = 1e-2
        vals = [sf.whittaker_m(kappa, mu, x0 + k * h * direction) for k in (-2, -1, 0, 1, 2)]
        d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        m_xx = d2 / direction**2
        resid = m_xx + (-0.25 + kappa / x0 + (0.25 - mu * mu) / x0**2) * vals[2]
        assert abs(resid) < 1e-8

    def test_empty_array(self):
        got = sf.whittaker_m(-0.25j, SQ2, np.empty((0, 3)))
        assert got.shape == (0, 3) and got.dtype == complex

    def test_zeros_in_an_array(self):
        x = np.array([[0.0, 1.0, 2.5j], [0.7 - 0.2j, 0.0, 3.0]])
        with np.errstate(all="raise"):
            got = sf.whittaker_m(0.3, 0.8, x)
        assert got.shape == x.shape
        assert np.array_equal(got[x == 0], [0j, 0j])
        assert np.array_equal(got[x != 0], sf.whittaker_m(0.3, 0.8, x[x != 0]))
        with pytest.raises(ValueError, match="singular at x = 0"):
            sf.whittaker_m(0.3, -0.8, np.array([0.0, 1.0]))

    def test_against_mpmath(self):
        for kappa, mu, x in [(0.3, SQ2, 1.2), (-0.25j, SQ2, 1j), (0.1, 0.9, 2.5)]:
            want = complex(mp.whitm(kappa, mu, x))
            assert abs(sf.whittaker_m(kappa, mu, x) - want) <= 1e-12 * max(1.0, abs(want))


class TestWhittakerW:
    def test_finite_value_and_ode(self):
        kappa, mu, x0 = 0.0, SQ2, 1.0
        h = 1e-2
        vals = [sf.whittaker_w(kappa, mu, x0 + k * h) for k in (-2, -1, 0, 1, 2)]
        d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        resid = d2 + (-0.25 + kappa / x0 + (0.25 - mu * mu) / x0**2) * vals[2]
        assert np.isfinite(vals[2].real)
        assert abs(resid) < 1e-8

    def test_wronskian_with_m_nonzero(self):
        kappa, mu, x = 0.0, SQ2, 1.0
        h = 1e-5
        dm = (sf.whittaker_m(kappa, mu, x + h) - sf.whittaker_m(kappa, mu, x - h)) / (2 * h)
        dw = (sf.whittaker_w(kappa, mu, x + h) - sf.whittaker_w(kappa, mu, x - h)) / (2 * h)
        wr = sf.whittaker_m(kappa, mu, x) * dw - sf.whittaker_w(kappa, mu, x) * dm
        assert abs(wr) > 1e-6

    def test_complex_value_on_flux_arguments(self):
        # kappa = -i 0.5/(2*1), x = 2i*1*0.5
        value = sf.whittaker_w(-0.25j, SQ2, 1j)
        assert abs(value.imag) > 1e-10

    def test_against_mpmath(self):
        for kappa, mu, x in [(0.0, SQ2, 1.0), (0.2, SQ2, 2.5), (-0.25j, SQ2, 1j)]:
            want = complex(mp.whitw(kappa, mu, x))
            assert abs(sf.whittaker_w(kappa, mu, x) - want) <= 1e-12 * max(1.0, abs(want))

    def test_degenerate_connection(self):
        with pytest.raises(ValueError, match="connection formula degenerate"):
            sf.whittaker_w(0.0, 0.5, 1.0)

    @pytest.mark.parametrize(
        "kappa, mu, x",
        [(0.0, SQ2, 1.0), (0.2, SQ2, 2.5), (-0.25j, SQ2, 1j), (-0.3j, SQ2, 2j * np.linspace(0.2, 2.0, 300)),
         (0.1, 0.3, np.linspace(0.5, 4.0, 64))],
    )
    def test_pair_is_m_and_connection_formula(self, kappa, mu, x):
        # M is whittaker_m's value; W equals the connection formula as
        # whittaker_w wrote it with two separate M calls (the grids stay
        # below numpy's temporary-elision size, where both round alike)
        m, w = sf.whittaker_mw(kappa, mu, x)
        assert np.asarray(m).tobytes() == np.asarray(sf.whittaker_m(kappa, mu, x)).tobytes()
        kappa, mu = complex(kappa), complex(mu)
        two_mu = 2.0 * mu
        c_plus = cmath.exp(sf.ln_gamma(-two_mu)) * sf.rgamma(0.5 - mu - kappa)
        c_minus = cmath.exp(sf.ln_gamma(two_mu)) * sf.rgamma(0.5 + mu - kappa)
        want = c_plus * sf.whittaker_m(kappa, mu, x) + c_minus * sf.whittaker_m(kappa, -mu, x)
        assert type(w) is type(want)
        assert np.asarray(w).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(sf.whittaker_w(kappa, mu, x)).tobytes() == np.asarray(w).tobytes()

    def test_pair_makes_two_sweeps(self, sweeps):
        x = 2j * np.linspace(0.2, 2.0, 300)
        sf.whittaker_mw(-0.25j, SQ2, x)
        # each M is one series sweep (|x| <= 2) and one continuation sweep
        n_series = int(np.count_nonzero(np.abs(x) <= 2.0))
        assert sweeps == [n_series, 300 - n_series] * 2


class TestBesselJ:
    def test_value_at_zero(self):
        assert sf.bessel_j(0.0, 0.0) == 1.0
        assert sf.bessel_j(0.7, 0.0) == 0.0

    def test_half_order_at_pi_over_two(self):
        assert sf.bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-13)

    def test_half_order_identity_range(self):
        xs = np.linspace(0.1, 20.0, 301)
        got = np.asarray(sf.bessel_j(0.5, xs))
        want = np.sqrt(2.0 / (math.pi * xs)) * np.sin(xs)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-8)
        assert np.max(rel) < 1e-10

    def test_irrational_order_ode_residual(self):
        nu, x0 = SQ2, 3.0
        h = 1e-2
        vals = [sf.bessel_j(nu, x0 + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        resid = x0 * x0 * d2 + x0 * d1 + (x0 * x0 - nu * nu) * vals[2]
        assert abs(resid) < 1e-8

    def test_against_mpmath(self):
        for nu, x in [(0.0, 1.0), (SQ2, 5.0), (2.3, 17.0)]:
            assert sf.bessel_j(nu, x) == pytest.approx(float(mp.besselj(nu, x)), rel=1e-11, abs=1e-13)

    def test_empty_array(self):
        got = sf.bessel_j(0.5, np.array([]))
        assert got.shape == (0,) and got.dtype == float

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.bessel_j(-0.5, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_j(0.5, -1.0)
        with pytest.raises(ValueError, match="validated range"):
            sf.bessel_j(0.5, 1000.5)

    @pytest.mark.parametrize("nu, x", [(60.0, 100.0), (40.0, 30.0), (6.000001, 1.0)])
    def test_order_past_six_refused(self, nu, x):
        # J_60(100) came out as 8.8e35 (mpmath: 1.06e-3) and J_40(30) off by 3.1e-2
        with pytest.raises(ValueError, match=r"^bessel_j: order nu = .* out of validated range 0 <= nu <= 6$"):
            sf.bessel_j(nu, x)

    def test_one_series_and_one_continuation_sweep(self, sweeps):
        # J needs 1F1 at 2ix: the series for x <= 1, one ray of the continuation beyond
        x = np.linspace(0.01, 5.0, 500)
        sf.bessel_j(SQ2, x)
        n_series = int(np.count_nonzero(x <= 1.0))
        assert sweeps == [n_series, 500 - n_series]


# --- the shared series kernel ------------------------------------------------
#
# Reference: the term loop of hyp1f1 as it was before _sum_series, copied
# verbatim (module names prefixed with ``sf.``) except that the work
# dtypes are float64 and complex128 and that a polynomial may end at the
# pole index.  It runs the array convergence test on every term, so any
# difference in a stopping term, a result bit or an error shows against
# it.  A term counts as small only while the scalar growth bound
# |c_{k+1}/c_k| max|x| is below 1 (or nan, where the library trusts no
# bound), as in the library: a tiny first term may precede growing ones.
# As in the library, too, an overflowed term never counts as small, so a
# sum that overflows float64 runs to the term budget.
# The library sums this series for complex arguments with |x| <= 2
# and real non-polynomial 1F1 at x >= 0; its other regions are checked
# against mpmath below.


@np.errstate(over="ignore", invalid="ignore")  # as _sum_series: _check_finite reports overflow
def _seed_hyp1f1(a, b, x, rel_tol=1e-15, max_terms=500):
    polynomial = sf._is_nonpositive_integer(a)
    if sf._hits_gamma_pole(b):
        if not (polynomial and -int(a) <= -round(complex(b).real)):
            raise ValueError("pole of Kummer function: b is a non-positive integer")

    x_arr = np.asarray(x)
    is_complex = np.iscomplexobj(a) or np.iscomplexobj(b) or np.iscomplexobj(x_arr)
    work = np.complex128 if is_complex else np.float64

    if not polynomial and x_arr.size and np.max(np.abs(x_arr)) > sf.SERIES_RANGE:
        raise ValueError(
            f"use of ascending series out of validated range |x| <= {sf.SERIES_RANGE:g}"
        )

    aw = work(complex(a)) if is_complex else work(float(a))
    bw = work(complex(b)) if is_complex else work(float(b))
    xw = x_arr.astype(work)
    x_max = float(np.max(np.abs(x_arr))) if x_arr.size else 0.0
    if not sf._moderate(a, b, x_max):
        x_max = math.nan

    term = np.ones_like(xw)
    total = term.copy()
    n_exact = -int(a) if polynomial else None
    small_streak = 0
    k = 0
    while True:
        if polynomial and k >= n_exact:
            break
        if k >= max_terms:
            raise RuntimeError(
                f"series budget exceeded: 1F1 did not converge in {max_terms} terms"
            )
        denom = (bw + k) * (k + 1)
        if denom == 0:
            raise ValueError("pole of Kummer function: b is a non-positive integer")
        # the factor named, as the library names it: numpy never multiplies
        # it in place with the operands swapped, so no bit depends on the size
        factor = (aw + k) * xw / denom
        term = term * factor
        total = total + term
        growth = abs(complex(a) + k) / abs(complex(b) + k) * (x_max / (k + 1))
        k += 1
        if not polynomial:
            term_max = np.max(np.abs(term))
            if np.isfinite(term_max) and term_max <= rel_tol * np.max(np.abs(total)) and not growth >= 1.0:
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0

    out = total.astype(complex if is_complex else float)
    sf._check_finite(out, "hyp1f1")
    return out if out.ndim else out.item()


def _real_transformed_reference(a, b, x):
    """Real non-polynomial 1F1 with the Kummer transformation written out for floats.

    A verbatim copy of the real branch of hyp1f1 from before real and
    complex 1F1 shared one transformation: the series at x >= 0, and
    e^x 1F1(b - a, b; -x) with b - a a two-float sum at x < 0.
    """
    a, b = float(a), float(b)
    c, c_lo = sf._two_diff(b, a)
    x_arr = np.asarray(x).astype(float)
    out = sf._by_region(
        x_arr,
        x_arr < 0,
        lambda x: sf._kummer_series(a, b, x, np.float64),
        lambda x: np.exp(x) * sf._kummer_series(c, b, -x, np.float64, a_lo=c_lo),
    )
    sf._check_finite(out, "hyp1f1")
    return out if out.ndim else out.item()


def _outcome(fn, *args):
    """Result type, dtype and bytes, or the exception type and message."""
    try:
        value = fn(*args)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    arr = np.asarray(value)
    return ("value", type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes())


def _series_limits(rel_tol, max_terms):
    """The library's series limits set to (rel_tol, max_terms) for the block."""
    return mock.patch.multiple(sf, _REL_TOL=rel_tol, _MAX_TERMS=max_terms)


def _library_outcome(ctl, fn, *args):
    """_outcome of a library call run under the series limits ctl = (rel_tol, max_terms)."""
    with _series_limits(*ctl):
        return _outcome(fn, *args)


_SHIPPED = (1e-15, 500)  # the library's fixed series limits
# (rel_tol, max_terms) pairs
_controls = st.one_of(
    st.just(_SHIPPED),
    st.tuples(st.sampled_from([1e-8, 1e-15, 1e-20, 1e-25]), st.integers(1, 60)),
)
# series limits at least as tight as the shipped ones, with the budget to reach them
_tight_controls = st.one_of(
    st.just(_SHIPPED), st.tuples(st.sampled_from([1e-15, 1e-20, 1e-25]), st.just(500))
)
_real = st.floats(-30.0, 30.0, allow_subnormal=False)
_real_nonneg = st.floats(0.0, 30.0, allow_subnormal=False)
# complex arguments of the series region |x| <= 2
_small = st.floats(-2.0, 2.0, allow_subnormal=False)
_component = st.floats(-1.4, 1.4, allow_subnormal=False)
_complex = st.builds(complex, _component, _component)


def _with_zeros(values):
    return st.lists(st.one_of(values, st.just(0.0)), min_size=1, max_size=12)


# the arguments on which hyp1f1 sums the Kummer series of x itself: real
# x >= 0, and complex x with |x| <= 2 (imaginary axis included)
_series_x = st.one_of(
    _real_nonneg,
    _complex,
    st.builds(1j.__mul__, _small),
    _with_zeros(_real_nonneg).map(np.array),
    _with_zeros(_complex).map(lambda v: np.array(v, dtype=complex)),
    _with_zeros(_small).map(lambda v: 1j * np.array(v)),
)
# real x < 0, alone or in an array with points of either sign
_negative_x = st.one_of(
    st.floats(-30.0, 0.0, exclude_max=True, allow_subnormal=False),
    _with_zeros(_real).map(np.array).filter(lambda v: bool(np.any(v < 0))),
)
_param = st.floats(-6.0, 6.0, allow_subnormal=False)
_kummer_a = st.one_of(_param, st.builds(complex, _param, _param), st.integers(-8, 0))
_kummer_b = st.one_of(
    st.floats(0.05, 6.0), st.builds(complex, _param, _param.filter(lambda v: v != 0))
)
_wide = st.floats(-100.0, 100.0, allow_subnormal=False)
# complex 1F1 beyond the series: real b at least 0.05 from a pole, |Re a| <= 6, |Im a| <= 3
_complex_a = st.one_of(_param, st.builds(complex, _param, st.floats(-3.0, 3.0)))
_real_b = st.floats(-5.5, 6.0).filter(lambda v: min(abs(v + k) for k in range(7)) >= 0.05)
# the rays seen in use (+-i axis, real axis) and any other direction, |x| <= 30
_ray = st.one_of(
    st.sampled_from([1j, -1j, 1.0, -1.0]), st.floats(-math.pi, math.pi).map(lambda p: cmath.exp(1j * p))
)


def _on_a_ray(distance):
    """A complex scalar or array of complex points t d, t drawn from ``distance``, d from _ray."""
    return st.one_of(
        st.builds(lambda t, d: complex(t * d), distance, _ray),
        st.builds(lambda ts, d: np.array(ts) * complex(d), st.lists(distance, min_size=1, max_size=6), _ray),
    )


# |x| just below 30, as a direction exp(i p) may exceed modulus 1 by an ulp
_complex_x = _on_a_ray(st.floats(0.0, 30.0 - 1e-13))
# the +-i axis beyond |x| = 30, up to the axis range 2000
_far = st.floats(30.0, 2000.0, exclude_min=True)
_axis = st.sampled_from([1j, -1j])
_axis_x = st.one_of(
    st.builds(lambda t, d: complex(t * d), _far, _axis),
    st.builds(lambda ts, d: np.array(ts) * d, st.lists(_far, min_size=1, max_size=4), _axis),
)


def _off_recessive(a):
    """a at least 0.05 from 0, -1, -2, ..., where 1F1 is nearly a recessive polynomial."""
    return abs(a - min(round(complex(a).real), 0)) >= 0.05


# the azimuthal sector: kappa = -i phi / (2 l), or a real kappa
_sector_kappa = st.one_of(
    st.builds(lambda phi, l: -1j * phi / (2.0 * l), st.floats(0.0, 2.0), st.integers(1, 15)),
    st.floats(-1.0, 1.0),
)


def _abs_term_sum(a, b, x):
    """sum_k |(a)_k| |x|^k / (|(b)_k| k!) in float64 (positive terms, no cancellation)."""
    term = total = 1.0
    k = 0
    while term > 1e-17 * total or k <= abs(a):
        term *= abs(a + k) * abs(x) / (abs(b + k) * (k + 1))
        total += term
        k += 1
    return total


def _kummer_scale(a, b, x):
    """The scale of hyp1f1's series error bound: the absolute-term sum, times e^x for x < 0."""
    return _abs_term_sum(a, b, x) if x >= 0 else math.exp(x) * _abs_term_sum(b - a, b, -x)


def _mp_hyp1f1(a, b, x):
    with mp.workdps(30):
        return float(mp.hyp1f1(a, b, x))


def _mp_kummer_polynomial(n, b, x):
    """1F1(-n, b; x) as its finite sum at 80 digits (mpmath's hyp1f1 rejects exact zeros)."""
    with mp.workdps(80):
        term = total = mp.mpf(1)
        for k in range(n):
            term *= (k - n) * mp.mpf(x) / ((mp.mpf(b) + k) * (k + 1))
            total += term
        return float(total)


def _mp_hyp1f1_pair(a, b, x):
    """(1F1(a, b; x), d/dx 1F1(a, b; x)) at 30 digits, as Python complex."""
    with mp.workdps(30):
        return complex(mp.hyp1f1(a, b, x)), complex(a / mp.mpf(1) / b * mp.hyp1f1(a + 1, b + 1, x))


def _mp_besselj(nu, x):
    with mp.workdps(30):
        return float(mp.besselj(nu, x))


def _assert_sector_m(kappa, mu, x, tol):
    """whittaker_m(kappa, mu, x) within tol(x) of |e^{-x/2} x^{mu+1/2}| (|1F1| + |1F1'|) of mpmath.

    M = e^{-x/2} x^{mu+1/2} 1F1(mu - kappa + 1/2, 1 + 2 mu; x); the bound
    adds the rounding of the power exp((mu + 1/2) log x),
    2 eps (1 + |(mu + 1/2) log x|) |M|, and for a subnormal M (tiny x with
    mu > 0) the spacing of the subnormal grid, 2^-1074, for each of the
    three roundings into it (the power and two products).  mpmath has no
    signed zero and puts the cut at arg x = pi; a -0 imaginary part on the
    negative axis is the cut's lower side, arg x = -pi, as numpy's log reads
    it, so there the reference turns by exp(-2 pi i (mu + 1/2)).
    """
    a, b = mu - kappa + 0.5, 1.0 + 2.0 * mu
    assume(_off_recessive(a) and _off_recessive(b - a))
    got = np.atleast_1d(sf.whittaker_m(kappa, mu, x))
    for xi, value in zip(np.atleast_1d(x).tolist(), got.tolist()):
        want, want_d = _mp_hyp1f1_pair(a, b, xi)
        below_cut = xi.real < 0 and xi.imag == 0 and math.copysign(1.0, xi.imag) < 0
        with mp.workdps(30):
            turn = mp.exp(-2j * mp.pi * (mu + 0.5)) if below_cut else 1
            prefactor = abs(complex(turn * mp.exp(-mp.mpc(xi) / 2) * mp.power(mp.mpc(xi), mu + 0.5)))
            want_m = complex(turn * mp.whitm(kappa, mu, xi))
        power = 4.4e-16 * (1.0 + abs((mu + 0.5) * cmath.log(xi))) * abs(want_m) + 3 * 2.0**-1074
        assert abs(value - want_m) <= tol(xi) * prefactor * (abs(want) + abs(want_d)) + power


class TestSeriesKernel:
    @settings(max_examples=300, deadline=None)
    @given(a=_kummer_a, b=_kummer_b, x=_series_x, ctl=_controls)
    @example(a=4.0, b=2.2250738585072014e-308j, x=0.75, ctl=(1e-15, 500))  # the sum overflows
    def test_hyp1f1_bitwise_equal_to_reference(self, a, b, x, ctl):
        # an integer-typed a with real b and x runs the recurrence instead, and
        # a complex call continues Kummer's equation beyond |x| = 2
        real_call = isinstance(b, float) and not np.iscomplexobj(x) and not isinstance(a, complex)
        assume(not (isinstance(a, int) and real_call))
        assume(real_call or isinstance(a, int) or np.all(np.abs(x) <= 2.0))
        assert _library_outcome(ctl, sf.hyp1f1, a, b, x) == _outcome(_seed_hyp1f1, a, b, x, *ctl)

    @settings(max_examples=150, deadline=None)
    @given(a=_param, b=st.floats(0.05, 6.0), x=_negative_x, ctl=_tight_controls)
    @example(a=0.5, b=1.5, x=-30.0, ctl=_SHIPPED)
    @example(a=2.5, b=1.5, x=np.array([0.0, 30.0, -30.0]), ctl=_SHIPPED)
    @example(a=2.5, b=1.5, x=np.array([-10.0, 10.0]), ctl=_SHIPPED)
    @example(a=1.0501162083011626, b=0.05, x=-14.0, ctl=_SHIPPED)  # b - a + 1 near 0
    # a tiny but nonzero: at x > 0 the first terms are tiny, the later ones grow
    @example(a=4.1356173556891693e-22, b=1.0, x=np.array([-23.0, 23.0]), ctl=_SHIPPED)
    @example(a=2.05e-26, b=0.0625, x=np.array([-27.0, 27.0]), ctl=_SHIPPED)
    def test_hyp1f1_negative_axis_against_mpmath(self, a, b, x, ctl):
        # every point, of either sign, within the docstring bound 1e-13 * scale
        with _series_limits(*ctl):
            got = np.atleast_1d(sf.hyp1f1(a, b, x))
        for xi, value in zip(np.atleast_1d(x).tolist(), got.tolist()):
            assert abs(value - _mp_hyp1f1(a, b, xi)) <= 1e-13 * _kummer_scale(a, b, xi)

    @settings(max_examples=150, deadline=None)
    @given(a=_param, b=_real_b, x=_negative_x, ctl=_tight_controls)
    @example(a=1.0501162083011626, b=0.05, x=np.array([-14.0, 0.0, 14.0]), ctl=_SHIPPED)
    @example(a=2.5, b=-1.5, x=-30.0, ctl=_SHIPPED)
    def test_hyp1f1_negative_axis_bitwise_equal_to_reference(self, a, b, x, ctl):
        # the shared transformation gives every bit, stopping term and error
        # of the float-only statement of it
        want = _library_outcome(ctl, _real_transformed_reference, a, b, x)
        assert _library_outcome(ctl, sf.hyp1f1, a, b, x) == want

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.integers(-60, 0),
        b=st.floats(0.05, 50.0),
        x=st.one_of(_wide, _with_zeros(_wide).map(np.array)),
        ctl=_controls,
    )
    @example(a=-3, b=2.0, x=np.array([0.0, 25.0]), ctl=(1e-15, 2))
    def test_hyp1f1_polynomial_against_mpmath(self, a, b, x, ctl):
        # the recurrence has no term budget: any series limits give the same bits
        got = _library_outcome(ctl, sf.hyp1f1, a, b, x)
        assert got == _outcome(sf.hyp1f1, a, b, x)
        values = np.atleast_1d(sf.hyp1f1(a, b, x))
        for xi, value in zip(np.atleast_1d(x).tolist(), values.tolist()):
            want = _mp_kummer_polynomial(-a, b, xi)
            assert abs(value - want) <= 1e-13 * max(abs(want), math.exp(xi / 2.0)) / min(b, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        nu=st.one_of(st.floats(0.0, 6.0), st.just(SQ2)),
        x=st.one_of(st.floats(0.0, 1000.0), _with_zeros(st.floats(0.0, 1000.0)).map(np.array)),
        ctl=_tight_controls,
    )
    @example(nu=SQ2, x=30.0, ctl=_SHIPPED)
    @example(nu=0.5, x=np.array([0.0, 2.4048, 30.0]), ctl=(1e-25, 60))
    @example(nu=0.0, x=np.array([9.0, 5e-324]), ctl=_SHIPPED)  # x/2 underflows to 0
    @example(nu=0.03125, x=np.array([9.0, 5e-324]), ctl=(1e-15, 500))
    @example(nu=6.0, x=np.array([1.0, 1000.0]), ctl=_SHIPPED)
    def test_bessel_j_against_mpmath(self, nu, x, ctl):
        # the docstring bound: 1e-14 absolute for nu in [0, 6] and x <= 1000
        with _series_limits(*ctl):
            got = np.atleast_1d(sf.bessel_j(nu, x))
        for xi, value in zip(np.atleast_1d(x).tolist(), got.tolist()):
            assert abs(value - _mp_besselj(nu, xi)) <= 1e-14

    @settings(max_examples=150, deadline=None)
    @given(a=_complex_a, b=_real_b, x=_complex_x, ctl=_tight_controls)
    @example(a=0.5, b=1.5, x=30j, ctl=_SHIPPED)
    @example(a=0.25 + 0.5j, b=1 + SQ2, x=30j, ctl=(1e-20, 40))
    @example(a=0.3 + 0.2j, b=1.7, x=np.array([5j, 10j, 3 + 4j, -10 + 0j]), ctl=_SHIPPED)
    @example(a=1 - SQ2 + 0.1j, b=1 - 2 * SQ2, x=complex(-30.0), ctl=_SHIPPED)
    def test_complex_hyp1f1_against_mpmath(self, a, b, x, ctl):
        # the docstring bounds: 1e-14 of the absolute-term sum for |x| <= 2,
        # 1e-13 of |M| + |M'| beyond, for a and b - a off the non-positive
        # integers; the continuation has its own limits
        assume(_off_recessive(a) and _off_recessive(b - a))
        with _series_limits(*ctl):
            got = np.atleast_1d(sf.hyp1f1(a, b, x))
        for xi, value in zip(np.atleast_1d(x).tolist(), got.tolist()):
            want, want_d = _mp_hyp1f1_pair(a, b, xi)
            if abs(xi) <= 2.0:
                bound = 1e-14 * _abs_term_sum(a, b, xi)
            else:
                bound = 1e-13 * (abs(want) + abs(want_d))
            assert abs(value - want) <= bound

    @settings(max_examples=40, deadline=None)
    @given(a=_complex_a, b=_real_b, x=_axis_x)
    @example(a=0.5, b=1.5, x=2000j)
    @example(a=-2.33 - 2.06j, b=-5.4, x=np.array([-30.5j, -2000j]))
    def test_complex_hyp1f1_on_the_axis_against_mpmath(self, a, b, x):
        # the docstring bound on the +-i axis up to |x| = 2000: 1e-13 of |M| + |M'|
        assume(_off_recessive(a) and _off_recessive(b - a))
        got = np.atleast_1d(sf.hyp1f1(a, b, x))
        for xi, value in zip(np.atleast_1d(x).tolist(), got.tolist()):
            want, want_d = _mp_hyp1f1_pair(a, b, xi)
            assert abs(value - want) <= 1e-13 * (abs(want) + abs(want_d))

    @settings(max_examples=100, deadline=None)
    @given(kappa=_sector_kappa, mu=st.sampled_from([SQ2, -SQ2]), x=_complex_x.filter(lambda x: np.all(x != 0)))
    @example(kappa=-0.25j, mu=SQ2, x=np.array([0.4j, 4j, 30j, -30j]))
    @example(kappa=1.0, mu=SQ2, x=np.array([0.0057 - 0.0082j, 5e-324j]))
    @example(kappa=0.0, mu=SQ2, x=np.array([8.187872454654166e-261 + 2.090707083284197e-261j]))  # subnormal M
    # a -0 imaginary part on the negative axis: the lower side of the cut
    @example(kappa=0.0, mu=-SQ2, x=complex(-5e-324, -0.0))
    @example(kappa=0.3, mu=SQ2, x=np.array([complex(-2.5, -0.0), complex(-2.5, 0.0), complex(-5e-324, -0.0)]))
    def test_whittaker_m_sector_against_mpmath(self, kappa, mu, x):
        # the docstring bound 1e-15 (|x| <= 4) and 1e-14 (|x| <= 30)
        _assert_sector_m(kappa, mu, x, lambda xi: 1e-15 if abs(xi) <= 4.0 else 1e-14)

    @settings(max_examples=30, deadline=None)
    @given(kappa=_sector_kappa, mu=st.sampled_from([SQ2, -SQ2]), x=_axis_x)
    @example(kappa=-0.25j, mu=SQ2, x=np.array([30.5j, 2000j, -2000j]))
    @example(kappa=-0.06865750930559383j, mu=-SQ2, x=2000j)
    def test_whittaker_m_sector_on_the_axis_against_mpmath(self, kappa, mu, x):
        # the docstring bound on the +-i axis up to |x| = 2000: 1e-13
        _assert_sector_m(kappa, mu, x, lambda xi: 1e-13)

    def test_continuation_point_does_not_depend_on_the_grid(self):
        # nodes depend only on (a, b) and the ray: array and scalar calls agree bitwise,
        # on grids long enough for numpy's vector loops and temporary elision; the +i
        # axis runs on to |x| = 2000 in descending order, so its points reach the
        # sweep's nodes out of order
        a, b = 0.3 + 0.2j, 1.7
        t = np.linspace(2.01, 29.0, 20_000)
        far = np.linspace(2000.0, 29.5, 4_000)
        x = np.concatenate([1j * t, t * (3 + 4j) / 5, -t * np.exp(0.3j), [-12 + 0j], 1j * far])
        got = sf.hyp1f1(a, b, x)
        for i in range(0, x.size, 211):
            assert sf.hyp1f1(a, b, complex(x[i])) == got[i]

    def test_overflowed_term_is_never_small(self):
        small, _ = sf._array_test(np.array([math.inf, 1.0]), np.array([math.inf, 2.0]))
        assert not small

    def test_budget_fires_at_the_same_term(self):
        # the reference converges after some K terms: K - 1 must fail in
        # both, K must succeed in both
        a, b, x = 0.3 + 0.2j, 1.7, 2j * np.linspace(0.05, 1.0, 50)
        for k_max in range(1, 200):
            ctl = (1e-20, k_max)
            ref = _outcome(_seed_hyp1f1, a, b, x, *ctl)
            assert _library_outcome(ctl, sf.hyp1f1, a, b, x) == ref
            if ref[0] == "value":
                break
        else:
            pytest.fail("reference never converged")
        assert k_max > 20  # the budget fired on every shorter series

    @pytest.mark.parametrize("l, theta_max", [(1, 2.0), (15, 1.0)])
    def test_array_tests_skipped_on_imaginary_grid(self, monkeypatch, l, theta_max):
        # hyp1f1 of M_{kappa, 1/sqrt2}(2 i l theta), as in the azimuthal sector
        calls = []
        exact = sf._array_test

        def counting(*args):
            calls.append(1)
            return exact(*args)

        monkeypatch.setattr(sf, "_array_test", counting)
        kappa = -0.5j / (2.0 * l)
        x = 2j * l * np.linspace(0.2 / l, theta_max, 100_000)
        got = sf.hyp1f1(SQ2 - kappa + 0.5, 1.0 + 2.0 * SQ2, x)
        monkeypatch.undo()
        # the series sweeps |x| <= 2 (about 25 terms); the continuation beyond makes no array test
        series = np.abs(x) <= 2.0
        assert np.array_equal(got[series], _seed_hyp1f1(SQ2 - kappa + 0.5, 1.0 + 2.0 * SQ2, x[series]))
        assert len(calls) <= 4


class TestNonFiniteArgument:
    @pytest.mark.parametrize(
        "x", [math.nan, math.inf, -math.inf, complex(math.nan, 1.0), complex(0.0, math.inf),
              np.array([1.0, math.nan]), np.array([1j, complex(math.inf, 0.0)])]
    )
    def test_hyp1f1_rejects(self, x):
        with pytest.raises(ValueError, match="non-finite argument"):
            sf.hyp1f1(0.5, 1.5, x)
        with pytest.raises(ValueError, match="non-finite argument"):
            sf.hyp1f1(-2, 1.5, x)  # polynomial

    @pytest.mark.parametrize(
        "a, b",
        [(math.nan, 1.0), (1.0, math.inf), (0.5, -math.inf), (complex(0.5, math.nan), 1.0), (-2, math.nan),
         (np.array([0.5, math.nan]), 1.5), (0.5, np.array([[1.5], [math.inf]]))],
    )
    def test_hyp1f1_rejects_non_finite_parameters(self, a, b):
        # a nan a once ran the series to its budget, and an infinite b returned 1.0
        with pytest.raises(ValueError, match="^hyp1f1: non-finite argument$"):
            sf.hyp1f1(a, b, 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, np.array([1.0, math.nan]), np.array([0.0, math.inf])])
    def test_bessel_j_rejects(self, x):
        with pytest.raises(ValueError, match="non-finite argument"):
            sf.bessel_j(0.5, x)

    def test_whittaker_m_rejects(self):
        with pytest.raises(ValueError, match="non-finite argument"):
            sf.whittaker_m(0.0, SQ2, complex(0.0, math.nan))


def _broadcast_outcome_equals_groups(a, b, x):
    """hyp1f1(a, b, x) equals, group by group, the call at that (a, b) on the group's points.

    A group is one distinct (a, b) bit pattern; its points are x broadcast
    with a and b, taken in order.  Where such a call raises, the broadcast
    call raises the same exception type.
    """
    got = _outcome(sf.hyp1f1, a, b, x)
    a_b, b_b, x_b = np.broadcast_arrays(np.asarray(a), np.asarray(b), np.asarray(x))
    groups = {}
    for index in np.ndindex(a_b.shape):
        groups.setdefault((a_b[index].tobytes(), b_b[index].tobytes()), []).append(index)
    wants = [_outcome(sf.hyp1f1, a_b[at[0]].item(), b_b[at[0]].item(), np.array([x_b[i] for i in at]))
             for at in groups.values()]
    raised = [want[1] for want in wants if want[0] == "raised"]
    if raised:
        assert got[0] == "raised" and got[1] in raised
        return
    assert got[0] == "value" and got[3] == a_b.shape
    values = np.frombuffer(got[4], dtype=got[2]).reshape(got[3])
    for at, want in zip(groups.values(), wants):
        assert np.array([values[i] for i in at]).tobytes() == want[4]


# parameter rows: generic a, a near or at 0, -1, -2 (the near-polynomial
# groups), complex a; each row may repeat
_row_a = st.one_of(
    _param, st.builds(complex, _param, st.floats(-3.0, 3.0)),
    st.sampled_from([0.0, -1.0, -2.0, -2.0 + 0.01j, -1.0 + 1e-9j, -2.0 + 1e-8j, 0.02 - 0.01j]),
)
_rows = st.lists(st.tuples(_row_a, _real_b), min_size=1, max_size=4).flatmap(
    lambda rows: st.lists(st.sampled_from(rows), min_size=1, max_size=6)
)
_broadcast_x = st.one_of(
    st.lists(st.floats(-29.5, 29.5, allow_subnormal=False), min_size=0, max_size=6).map(np.array),
    st.lists(st.builds(lambda t, d: complex(t * d), st.floats(0.0, 2.0), _ray), min_size=1, max_size=6).map(np.array),
    st.lists(st.builds(lambda t, d: complex(t * d), st.floats(0.0, 29.9), _ray), min_size=1, max_size=6).map(np.array),
    _on_a_ray(st.floats(2.0, 29.9)),
    st.floats(-29.5, 29.5, allow_subnormal=False),
)


class TestBroadcast:
    @settings(max_examples=100, deadline=None)
    @given(rows=_rows, x=_broadcast_x)
    # the contiguity check's grids, real and complex
    @example(rows=[(a + da, b + db) for da, db in ((0.0, 0.0), (-1.0, 0.0), (0.0, 1.0))
                   for a in (0.3, 1.0, 2.5, -0.7) for b in (0.5, 1.7, 3.0)],
             x=np.array([-10.0, -2.0, 0.3, 4.0, 10.0]))
    @example(rows=[(1.0, 0.5), (0.0, 0.5), (-0.7, 1.7), (1.0, 0.5)], x=np.array([5j, 10j, 3.0 + 4.0j]))
    # near-polynomial rows beside generic ones, on the real axis and oblique rays of both half planes
    @example(rows=[(-2.0 + 0.01j, 0.25), (-2.0, 0.25), (0.5, 0.25), (-2.0 + 0.01j, 0.25)],
             x=np.array([29.0 * cmath.exp(0.8j), -12.0 + 0j, 1.5j, 25.0 * cmath.exp(2.9j), 3.0 + 0j]))
    @example(rows=[(0.5, 1.5), (-0.0, 1.5), (0.0, 1.5)], x=np.array([-3.0, 0.0, 2.0]))
    @example(rows=[(0.5, 1.5), (1.5, 2.5)], x=np.array([]))
    @example(rows=[(0.5, 1.5), (1.5 + 1j, 2.5)], x=3.0)
    def test_rows_equal_their_own_calls(self, rows, x):
        # (R, 1) rows against the x grid, and (R,) rows against each x alone
        a = np.array([a for a, _ in rows])
        b = np.array([b for _, b in rows])
        _broadcast_outcome_equals_groups(a[:, None], b[:, None], x)
        for xi in np.atleast_1d(x)[:2]:
            _broadcast_outcome_equals_groups(a, b, xi)

    def test_shapes(self):
        got = sf.hyp1f1(np.array([[0.5], [1.5]]), 2.0, np.linspace(-1.0, 1.0, 3))
        assert got.shape == (2, 3) and got.dtype == float
        assert sf.hyp1f1(np.array([0.5, 1.5]), np.array([2.0, 2.0]), 1j).shape == (2,)
        empty = sf.hyp1f1(np.array([[0.5], [1.5j]]), 2.0, np.array([]))
        assert empty.shape == (2, 0) and empty.dtype == complex
        assert isinstance(sf.hyp1f1(0.5, 2.0, 1.0), float)  # scalar parameters and x: a scalar

    @pytest.mark.parametrize("n", [1000, 20_000])
    def test_groups_shared_or_alone_keep_their_own_rounding(self, n):
        # every group shares one sweep (series and continuation), a complex
        # series group of 16,384 points or more too: with each series factor
        # named, no product runs in place, so each group keeps its own
        # call's bits
        x = np.concatenate([2j * np.linspace(0.01, 1.0, n), 3.0 * np.exp(1j * np.linspace(-3.0, 3.0, 7))])
        a, b = np.array([[0.5 + 0.2j], [1.5 - 0.1j], [0.7]]), np.array([[1.2], [2.4], [0.9]])
        got = sf.hyp1f1(a, b, x)
        for row in range(3):
            assert got[row].tobytes() == sf.hyp1f1(complex(a[row, 0]), float(b[row, 0]), x).tobytes()

    def test_integer_array_a_is_refused(self):
        for a in (np.array([-2, -1]), [0, 1], np.array(-2)):
            with pytest.raises(ValueError, match="the polynomial case takes a scalar integer a"):
                sf.hyp1f1(a, 1.5, 1.0)

    def test_pole_in_any_group(self):
        with pytest.raises(ValueError, match="^pole of Kummer function"):
            sf.hyp1f1(np.array([0.5, 0.5]), np.array([1.5, -2.0]), 1.0)
        with pytest.raises(ValueError, match="^pole of Kummer function"):
            sf.hyp1f1(-3, np.array([-3.0, -2.0]), 2.0)  # degree 3 reaches the pole -2
        # a polynomial of degree n passes b = -m >= n in every group
        for b in (np.array([-3.0, 2.0, -3.0]), np.array([-3.0 + 0j, 2.0])):
            got = sf.hyp1f1(-1, b, 2.0)
            assert got.tolist() == [sf.hyp1f1(-1, b_k, 2.0) for b_k in b.tolist()]
