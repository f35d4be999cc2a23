"""Oracle layer: integrator accuracy, residual evaluator, quadrature."""

import math

import numpy as np
import pytest

from bmlandau import oracle
from bmlandau.core import SampledProfile
from bmlandau.oracle import IVPProblem, fd_residual, integrate_ivp, quad_singular, quad_singular_array


class TestIntegrator:
    def test_exponential(self):
        sol = integrate_ivp(IVPProblem(1, lambda y, t: y, [1.0], (0.0, 1.0), 1e-10, 1e-12))
        assert abs(sol(1.0)[0] - math.e) < 1e-9

    def test_sine_system(self):
        rhs = lambda y, t: np.array([y[1], -y[0]])
        sol = integrate_ivp(IVPProblem(2, rhs, [0.0, 1.0], (0.0, math.pi), 1e-10, 1e-12))
        assert abs(sol(math.pi)[0]) < 1e-8

    def test_dense_output_accuracy(self):
        rhs = lambda y, t: np.array([y[1], -y[0]])
        sol = integrate_ivp(IVPProblem(2, rhs, [0.0, 1.0], (0.0, math.pi), 1e-10, 1e-12))
        ts = np.linspace(0.0, math.pi, 777)
        assert np.max(np.abs(sol(ts)[:, 0] - np.sin(ts))) < 1e-7

    def test_global_error_scales_with_tolerance(self):
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            sol = integrate_ivp(IVPProblem(1, lambda y, t: y, [1.0], (0.0, 1.0), tol, tol * 1e-2))
            errs.append(abs(sol(1.0)[0] - math.e))
        assert errs[0] > errs[1] > errs[2]
        for err, tol in zip(errs, (1e-6, 1e-8, 1e-10)):
            assert err < 100.0 * tol

    def test_backward_span(self):
        sol = integrate_ivp(IVPProblem(1, lambda y, t: y, [math.e], (1.0, 0.0), 1e-10, 1e-12))
        assert abs(sol(0.0)[0] - 1.0) < 1e-9

    def test_max_step_respected(self):
        sol = integrate_ivp(
            IVPProblem(1, lambda y, t: y, [1.0], (0.0, 1.0), 1e-6, 1e-8, max_step=0.01)
        )
        assert np.max(np.abs(np.diff(sol.ts))) <= 0.01 + 1e-12

    def test_stall_near_singularity(self):
        # y' = y^2, y(0)=1 blows up at t=1
        with pytest.raises(RuntimeError, match="integration stalled"):
            integrate_ivp(IVPProblem(1, lambda y, t: y * y, [1.0], (0.0, 2.0), 1e-10, 1e-12))

    def test_profiles_export(self):
        rhs = lambda y, t: np.array([y[1], -y[0]])
        sol = integrate_ivp(IVPProblem(2, rhs, [0.0, 1.0], (0.0, 1.0), 1e-9, 1e-11))
        profs = sol.profiles("t", np.linspace(0.0, 1.0, 11), names=["sin", "cos"])
        assert len(profs) == 2
        assert profs[0].metadata["component"] == "sin"
        assert np.allclose(profs[0].values, np.sin(profs[0].grid), atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            IVPProblem(1, lambda y, t: y, [1.0], (0.0, 0.0), 1e-8, 1e-10)
        with pytest.raises(ValueError):
            IVPProblem(2, lambda y, t: y, [1.0], (0.0, 1.0), 1e-8, 1e-10)


class TestFdResidual:
    def test_sine_residual_second_order(self):
        ode = lambda y, dy, d2y, q: d2y + y
        reports = []
        for h in (1e-3, 5e-4):
            grid = np.arange(0.0, 2.0, h)
            reports.append(fd_residual(SampledProfile("q", grid, np.sin(grid)), ode))
        assert reports[0].max_abs < 1e-6
        ratio = reports[0].max_abs / reports[1].max_abs
        assert 3.5 <= ratio <= 4.5

    def test_corruption_sensitivity(self):
        ode = lambda y, dy, d2y, q: d2y + y
        grid = np.arange(0.0, 2.0, 1e-3)
        clean = fd_residual(SampledProfile("q", grid, np.sin(grid)), ode).max_abs
        bad = np.sin(grid)
        bad[len(bad) // 2] *= 1.01
        corrupted = fd_residual(SampledProfile("q", grid, bad), ode).max_abs
        assert corrupted > 100.0 * clean

    def test_needs_uniform_grid(self):
        grid = np.array([0.0, 0.1, 0.25, 0.4, 0.6])
        with pytest.raises(ValueError, match="uniform"):
            fd_residual(SampledProfile("q", grid, np.sin(grid)), lambda y, dy, d2y, q: d2y)

    def test_needs_five_points(self):
        grid = np.linspace(0, 1, 4)
        with pytest.raises(ValueError, match="5 grid points"):
            fd_residual(SampledProfile("q", grid, np.sin(grid)), lambda y, dy, d2y, q: d2y)


class TestQuadSingular:
    def test_inverse_sqrt_at_origin(self):
        assert quad_singular(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, -0.5, 1e-10) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_arcsine_kernel_offset_aware(self):
        f = lambda x, d: 1.0 / math.sqrt((-d) * (1.0 + x)) if d < 0 else 1.0 / math.sqrt(1.0 - x * x)
        got = quad_singular(f, 0.0, 1.0, -0.5, 1e-10, offset_aware=True)
        assert got == pytest.approx(math.pi / 2.0, abs=1e-10)

    @pytest.mark.parametrize("degree", range(0, 11))
    def test_polynomial_times_inverse_sqrt(self, degree):
        # int_0^1 x^n / sqrt(1-x) dx = B(n+1, 1/2)
        exact = math.gamma(degree + 1) * math.gamma(0.5) / math.gamma(degree + 1.5)
        f = lambda x, d: (x**degree) / math.sqrt(-d if d < 0 else 1.0 - x)
        got = quad_singular(f, 0.0, 1.0, -0.5, 1e-11, offset_aware=True)
        assert got == pytest.approx(exact, abs=1e-10)

    def test_smooth_interval(self):
        got = quad_singular(math.sin, 2.0, 5.0, 0.0, 1e-12)
        assert got == pytest.approx(math.cos(2.0) - math.cos(5.0), abs=1e-12)

    def test_orientation(self):
        fwd = quad_singular(lambda x: x * x, 0.0, 2.0, 0.0, 1e-12)
        assert quad_singular(lambda x: x * x, 2.0, 0.0, 0.0, 1e-12) == pytest.approx(-fwd, abs=1e-13)

    def test_empty_interval(self):
        assert quad_singular(lambda x: 1.0, 1.3, 1.3, 0.0, 1e-12) == 0.0

    def test_nonintegrable_order_rejected(self):
        with pytest.raises(ValueError, match="endpoint_order"):
            quad_singular(lambda x: 1.0 / x, 0.0, 1.0, -1.0, 1e-8)

    def test_budget_exceeded(self):
        # unresolvable at a nonzero endpoint without offset-aware evaluation
        with pytest.raises(RuntimeError, match="quadrature budget exceeded"):
            quad_singular(lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0, -0.5, 1e-13, max_level=4)


def scalar_node(tk, a, b):
    """Scalar tanh-sinh node (x, d, w) at t = tk on (a, b), the table reference."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = 0.5 * math.pi * math.sinh(tk)
    e2 = math.exp(-2.0 * abs(u))
    w = half * 0.5 * math.pi * math.cosh(tk) * 4.0 * e2 / (1.0 + e2) ** 2
    if w == 0.0:
        return None
    offset = half * 2.0 * e2 / (1.0 + e2)
    if tk > 0:
        return b - offset, -offset, w
    if tk < 0:
        return a + offset, offset, w
    return mid, mid - a, w


def scalar_level(level, a, b):
    """Nodes of one level in the order the tables lay them out: centre, +t, -t."""
    h = 2.0**-level
    ks = range(1, int(oracle._TS_TMAX / h) + 1, 1 if level == 0 else 2)
    plus = [scalar_node(k * h, a, b) for k in ks]
    minus = [scalar_node(-k * h, a, b) for k in ks]
    centre = [scalar_node(0.0, a, b)] if level == 0 else []
    return np.array([n for n in centre + plus + minus if n is not None])


def ulps(got, want):
    return np.max(np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want))))


class TestLevelTables:
    # quadrature_roundtrip reaches level 12, the default max_level
    LEVELS = range(0, 13)

    @pytest.mark.parametrize("level", LEVELS)
    def test_power_of_two_half_width_within_one_ulp(self, level):
        # half = 1/2 scales exactly, so the tables reproduce the scalar
        # formula bit for bit except in the last place of subnormal weights
        want = scalar_level(level, 0.0, 1.0)
        x, d, w = oracle._level_nodes(level, 0.0, 1.0)
        assert len(x) == len(want)
        for got, col in ((x, 0), (d, 1), (w, 2)):
            assert ulps(got, want[:, col]) <= 1.0

    @pytest.mark.parametrize("level", LEVELS)
    def test_general_half_width_rounding_only(self, level):
        # half = 3/2: the scalar formula multiplies by half first, the
        # tables last, so products of the same factors round in a
        # different order (a few ulp at most); the node set is the same
        want = scalar_level(level, 2.0, 5.0)
        x, d, w = oracle._level_nodes(level, 2.0, 5.0)
        assert len(x) == len(want)
        assert ulps(x, want[:, 0]) <= 1.0
        assert ulps(d, want[:, 1]) <= 2.0
        assert ulps(w, want[:, 2]) <= 4.0

    def test_cache_keys_are_levels_only(self):
        for a, b in ((0.0, 1.0), (2.0, 5.0), (-3.0, 0.25), (1e-3, 7.0)):
            quad_singular(math.sin, a, b, 0.0, 1e-12)
            quad_singular_array(lambda x, d: np.sin(x), a, b, 0.0, 1e-12)
        keys = set(oracle._TS_LEVELS)
        assert keys <= set(range(0, 13))
        assert all(type(k) is int for k in keys)
        # one (offset, weight) pair per level, for t > 0 only
        for offsets, weights in oracle._TS_LEVELS.values():
            assert offsets.shape == weights.shape
            assert np.all((offsets > 0) & (offsets <= 1.0) & (weights > 0))


class TestArrayCore:
    def test_smooth_interval_agrees_with_scalar_adapter(self):
        arr = quad_singular_array(lambda x, d: np.sin(x), 2.0, 5.0, 0.0, 1e-12)
        scal = quad_singular(math.sin, 2.0, 5.0, 0.0, 1e-12)
        assert arr == pytest.approx(scal, abs=1e-14)
        assert arr == pytest.approx(math.cos(2.0) - math.cos(5.0), abs=1e-12)

    def test_arcsine_kernel_agrees_with_scalar_adapter(self):
        f = lambda x, d: 1.0 / math.sqrt((-d) * (1.0 + x)) if d < 0 else 1.0 / math.sqrt(1.0 - x * x)

        def fa(x, d):
            # np.where evaluates both branches; the unused one may divide by 0
            with np.errstate(divide="ignore"):
                return np.where(d < 0, 1.0 / np.sqrt(np.abs(d) * (1.0 + x)), 1.0 / np.sqrt(1.0 - x * x))

        scal = quad_singular(f, 0.0, 1.0, -0.5, 1e-10, offset_aware=True)
        arr = quad_singular_array(fa, 0.0, 1.0, -0.5, 1e-10, offset_aware=True)
        assert arr == pytest.approx(scal, abs=1e-14)
