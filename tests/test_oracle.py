"""Oracle layer: integrator accuracy, residual evaluator, quadrature."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bmlandau import flux as fx
from bmlandau import oracle
from bmlandau import specfun as sf
from bmlandau.core import PhysParams, SampledProfile
from bmlandau.oracle import IVPProblem, fd_residual, integrate_ivp, quad_singular


class TestIntegrator:
    def test_exponential(self):
        sol = integrate_ivp(IVPProblem(lambda y, t: y, [1.0], (0.0, 1.0), 1e-10, 1e-12))
        assert abs(sol(1.0)[0] - math.e) < 1e-9

    def test_sine_system(self):
        rhs = lambda y, t: np.array([y[1], -y[0]])
        sol = integrate_ivp(IVPProblem(rhs, [0.0, 1.0], (0.0, math.pi), 1e-10, 1e-12))
        assert abs(sol(math.pi)[0]) < 1e-8

    def test_dense_output_accuracy(self):
        rhs = lambda y, t: np.array([y[1], -y[0]])
        sol = integrate_ivp(IVPProblem(rhs, [0.0, 1.0], (0.0, math.pi), 1e-10, 1e-12))
        ts = np.linspace(0.0, math.pi, 777)
        assert np.max(np.abs(sol(ts)[:, 0] - np.sin(ts))) < 1e-7

    def test_global_error_scales_with_tolerance(self):
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            sol = integrate_ivp(IVPProblem(lambda y, t: y, [1.0], (0.0, 1.0), tol, tol * 1e-2))
            errs.append(abs(sol(1.0)[0] - math.e))
        assert errs[0] > errs[1] > errs[2]
        for err, tol in zip(errs, (1e-6, 1e-8, 1e-10)):
            assert err < 100.0 * tol

    def test_backward_span(self):
        sol = integrate_ivp(IVPProblem(lambda y, t: y, [math.e], (1.0, 0.0), 1e-10, 1e-12))
        assert abs(sol(0.0)[0] - 1.0) < 1e-9

    def test_max_step_respected(self):
        sol = integrate_ivp(
            IVPProblem(lambda y, t: y, [1.0], (0.0, 1.0), 1e-6, 1e-8, max_step=0.01)
        )
        assert np.max(np.abs(np.diff(sol.ts))) <= 0.01 + 1e-12

    def test_stall_near_singularity(self):
        # y' = y^2, y(0)=1 blows up at t=1
        with pytest.raises(RuntimeError, match="integration stalled"):
            integrate_ivp(IVPProblem(lambda y, t: y * y, [1.0], (0.0, 2.0), 1e-10, 1e-12))

    def test_dense_output_of_any_shape(self):
        rhs = lambda y, t: np.array([y[1], -y[0]])
        sol = integrate_ivp(IVPProblem(rhs, [0.0, 1.0], (0.0, math.pi), 1e-10, 1e-12))
        ts = np.linspace(0.0, math.pi, 5 * 41).reshape(5, 41)
        assert np.array_equal(sol(ts), sol(ts.ravel()).reshape(5, 41, 2))
        assert sol(1.0).shape == (2,) and np.array_equal(sol(1.0), sol(np.array([1.0]))[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            IVPProblem(lambda y, t: y, [1.0], (0.0, 0.0), 1e-8, 1e-10)
        with pytest.raises(ValueError):
            IVPProblem(lambda y, t: y, [[1.0]], (0.0, 1.0), 1e-8, 1e-10)

    def test_rhs_output_shape_checked_on_every_call(self):
        # right on the first call, one component short afterwards: this
        # must not broadcast into a two-component state
        calls = []

        def rhs(y, t):
            calls.append(t)
            return [y[1], -y[0]] if len(calls) == 1 else [-y[0]]

        with pytest.raises(ValueError, match="rhs output size does not match state dimension"):
            integrate_ivp(IVPProblem(rhs, [0.0, 1.0], (0.0, 1.0), 1e-10, 1e-12))
        assert len(calls) == 2

    def test_nan_rhs_stalls(self):
        # the nan sits in the second component, where Python's max would drop it
        rhs = lambda y, t: [1.0, math.nan if t > 0.5 else 1.0]
        with pytest.raises(RuntimeError, match=r"integration stalled near coordinate 0\.4999"):
            integrate_ivp(IVPProblem(rhs, [0.0, 0.0], (0.0, 1.0), 1e-10, 1e-12))

    def test_overflowing_state_stalls(self):
        # y = 1e308 (1 + t) leaves the float range at t = 0.7977; float
        # arithmetic gives inf there without a warning
        with pytest.raises(RuntimeError, match=r"integration stalled near coordinate 0\.797"):
            integrate_ivp(IVPProblem(lambda y, t: [1e308], [1e308], (0.0, 1.0), 1e-10, 1e-12))

    @pytest.mark.parametrize(
        "rhs, y0, span, tols, max_step, rejects",
        [
            (lambda y, t: y, [1.0], (0.0, 1.0), (1e-6, 1e-8), 0.01, False),
            # the controller rejects steps in the fast transient and one in the sine
            (lambda y, t: -50.0 * (y - np.cos(t)), [0.0], (0.0, 3.0), (1e-8, 1e-10), math.inf, True),
            (lambda y, t: [y[1], -y[0]], [0.0, 1.0], (math.pi, 0.0), (1e-10, 1e-12), math.inf, True),
        ],
    )
    def test_stats(self, rhs, y0, span, tols, max_step, rejects):
        calls = []

        def counted(y, t):
            calls.append(t)
            return rhs(y, t)

        sol = integrate_ivp(IVPProblem(counted, y0, span, *tols, max_step=max_step))
        st = sol.stats
        assert st.nfev == len(calls) == 1 + 6 * (st.accepted + st.rejected)  # FSAL
        assert st.accepted == len(sol.ts) - 1
        assert (st.rejected > 0) == rejects
        steps = np.abs(np.diff(sol.ts))
        assert 0.0 < st.h_min <= st.h_max <= max_step
        assert st.h_min == pytest.approx(steps.min(), rel=1e-12)
        assert st.h_max == pytest.approx(steps.max(), rel=1e-12)


class TestDormandPrinceTableau:
    """One step of the written-out stages against what the 5(4) pair integrates exactly.

    A wrong coefficient still converges, only more slowly, so the
    integrator tests alone would not see it.
    """

    @pytest.mark.parametrize("k", range(6))
    def test_polynomial_chain_exact(self, k):
        # u' = v, v' = t^k from t = 0.5 over h = 0.5: the weights b5 at the
        # nodes c integrate v exactly for k <= 4 (this pins b5 and c), and
        # u, a polynomial of degree k + 2, for k <= 3 (this pins the sums
        # of b5_i a_ij c_j^k); neither is exact one degree higher
        t, h = 0.5, 0.5
        y_new, f_new, _ = oracle._dp_step(lambda y, t: [y[1], t**k], t, [1.0, 2.0], [2.0, t**k], h)
        v = 2.0 + ((t + h) ** (k + 1) - t ** (k + 1)) / (k + 1)
        u = 1.0 + 2.0 * h + (((t + h) ** (k + 2) - t ** (k + 2)) / (k + 2) - h * t ** (k + 1)) / (k + 1)
        assert (y_new[1] == pytest.approx(v, rel=1e-15, abs=0.0)) == (k <= 4)
        assert (y_new[0] == pytest.approx(u, rel=1e-15, abs=0.0)) == (k <= 3)
        assert f_new == [y_new[1], 1.0]

    def test_stage_times_are_row_sums(self):
        # c_i = sum_j a_ij: carrying t as a state component with t' = 1
        # gives the step that reads t from the stage times.  b_2 = 0 hides
        # c_2 from every linear test, not from this one
        g = lambda y, t: math.cos(t) * y
        y_new = oracle._dp_step(lambda y, t: [g(y[0], t)], 0.5, [1.0], [g(1.0, 0.5)], 0.5)[0]
        aug = oracle._dp_step(lambda y, t: [g(y[0], y[1]), 1.0], 0.0, [1.0, 0.5], [g(1.0, 0.5), 1.0], 0.5)[0]
        assert y_new[0] == pytest.approx(aug[0], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("h", [0.5, -0.3, 1.0])
    def test_linear_step_is_the_stability_polynomial(self, h):
        # y' = y from 1: one step gives R(h) = sum_{n<=5} h^n/n! + h^6/600,
        # the stability polynomial of DP5, which pins the a_ij
        y_new, f_new, _ = oracle._dp_step(lambda y, t: list(y), 0.0, [1.0], [1.0], h)
        R = sum(h**n / math.factorial(n) for n in range(6)) + h**6 / 600
        assert y_new[0] == pytest.approx(R, rel=1e-15, abs=0.0)
        assert f_new == y_new  # the last stage is the rhs at the new state

    @pytest.mark.parametrize("k", range(6))
    def test_error_estimate_vanishes_through_degree_three(self, k):
        # both b5 and b4 integrate degree <= 3 exactly, so their difference
        # E = b5 - b4 sees nothing there; degree 4 is where b4 stops
        err = oracle._dp_step(lambda y, t: [t**k], 0.5, [1.0], [0.5**k], 0.5)[2][0]
        if k <= 3:
            assert abs(err) <= 1e-16
        else:
            assert abs(err) > 1e-6


class TestFdResidual:
    def test_sine_residual_fourth_order(self):
        ode = lambda y, dy, d2y, q: d2y + y
        reports = []
        for h in (4e-2, 2e-2):
            grid = np.arange(0.0, 2.0, h)
            reports.append(fd_residual(SampledProfile("q", grid, np.sin(grid)), ode))
        assert reports[0].max_abs < 1e-6
        ratio = reports[0].max_abs / reports[1].max_abs
        assert 15.0 <= ratio <= 17.0

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


def _five_calls(f, x, h):
    """Reference: (f, f', f'') from five separate calls f(x + k h), their values stacked."""
    return tuple(d[0] for d in oracle._five_point(np.array([f(x + k * h) for k in range(-2, 3)]), h))


class TestFivePointAt:
    def test_one_call_on_the_stacked_samples(self):
        seen = []
        oracle._five_point_at(lambda t: seen.append(t.shape) or np.sin(t), np.zeros((3, 4)), 1e-2)
        assert seen == [(5, 3, 4)]

    def test_real_closed_form_equals_five_calls_bitwise(self):
        ctx = fx.flux_context_from_lambda(1.0, 0, 10.0, 0.0, PhysParams())
        f = lambda t: fx.pi_theta_closed(t, ctx)
        x = np.linspace(0.05, 3.0, 37)
        for got, want in zip(oracle._five_point_at(f, x, 1e-3), _five_calls(f, x, 1e-3)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("x", [1.0, 0.8j + 0.2, np.array([0.5, 1.0j, 2.0 + 0.3j])])
    def test_complex_tuple_equals_five_calls(self, x):
        # numpy's complex exp and log round 0-d and longer arrays differently, so
        # the one call agrees with the five to rounding, amplified 1/h^2 in f''
        f = lambda t: sf.whittaker_mw(-0.25j, 1.0 / math.sqrt(2.0), t)
        got, want = oracle._five_point_at(f, x, 1e-3), _five_calls(f, x, 1e-3)
        for g, w, rel in zip(got, want, (1e-12, 1e-12, 1e-8)):
            assert g.shape == w.shape == (2,) + np.shape(x)
            assert np.all(np.abs(g - w) <= rel * np.abs(w))

    def test_constant_broadcasts(self):
        x = np.linspace(0.1, 1.0, 7)
        value, d1, d2 = oracle._five_point_at(lambda t: 2.5, x, 1e-3)
        assert value.shape == d1.shape == d2.shape == x.shape
        assert np.all(value == 2.5) and np.all(d1 == 0.0) and np.all(d2 == 0.0)
        assert oracle._five_point_at(lambda t: 2.5, 0.3, 1e-3) == _five_calls(lambda t: 2.5, 0.3, 1e-3)

    def test_tuple_with_a_constant_equals_five_calls(self):
        f = lambda t: (np.sin(t), 2.0)
        x = np.linspace(0.1, 1.0, 7)
        got = oracle._five_point_at(f, x, 1e-3)
        want = _five_calls(lambda t: (np.sin(t), np.full_like(t, 2.0)), x, 1e-3)
        for g, w in zip(got, want):
            assert g.shape == (2, 7) and np.array_equal(g, w)

    def test_real_tuple_equals_five_calls_bitwise(self):
        f = lambda t: (np.sin(t), np.cos(t))
        x = np.linspace(0.1, 1.0, 7)
        got = oracle._five_point_at(f, x, 1e-3)
        for g, w in zip(got, _five_calls(f, x, 1e-3)):
            assert g.shape == (2, 7) and np.array_equal(g, w)
        (s, c), _, _ = got
        assert np.array_equal(s, np.sin(x)) and np.array_equal(c, np.cos(x))


class TestQuadSingular:
    def test_inverse_sqrt_at_origin(self):
        assert quad_singular(lambda x, i: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-10) == pytest.approx(2.0, abs=1e-10)

    def test_arcsine_kernel_offset_aware(self):
        # int_0^1 dx / sqrt(1 - x^2) in the caller's offset form x = 1 - u,
        # which puts the singularity at the origin: int_0^1 du / sqrt(u (2 - u))
        got = quad_singular(lambda u, i: 1.0 / np.sqrt(u * (2.0 - u)), 0.0, 1.0, 1e-10)
        assert got == pytest.approx(math.pi / 2.0, abs=1e-10)

    @pytest.mark.parametrize("degree", range(0, 11))
    def test_polynomial_times_inverse_sqrt(self, degree):
        # int_0^1 x^n / sqrt(1-x) dx = B(n+1, 1/2), in offset form x = 1 - u
        exact = math.gamma(degree + 1) * math.gamma(0.5) / math.gamma(degree + 1.5)
        got = quad_singular(lambda u, i: (1.0 - u) ** degree / np.sqrt(u), 0.0, 1.0, 1e-11)
        assert got == pytest.approx(exact, abs=1e-10)

    def test_smooth_interval(self):
        got = quad_singular(lambda x, i: np.sin(x), 2.0, 5.0, 1e-12)
        assert got == pytest.approx(math.cos(2.0) - math.cos(5.0), abs=1e-12)

    def test_orientation(self):
        fwd = quad_singular(lambda x, i: x * x, 0.0, 2.0, 1e-12)
        assert quad_singular(lambda x, i: x * x, 2.0, 0.0, 1e-12) == pytest.approx(-fwd, abs=1e-13)

    def test_empty_interval(self):
        assert quad_singular(lambda x, i: np.ones_like(x), 1.3, 1.3, 1e-12) == 0.0

    def test_budget_exceeded(self):
        # unresolvable at a nonzero endpoint unless the caller writes it in offset form
        with pytest.raises(RuntimeError, match="quadrature budget exceeded"), _level_budget(4):
            quad_singular(lambda x, i: 1.0 / np.sqrt(1.0 - x), 0.0, 1.0, 1e-13)

    def test_budget_exceeded_at_the_shipped_level(self):
        with pytest.raises(RuntimeError, match="quadrature budget exceeded"):
            quad_singular(lambda x, i: 1 / np.sqrt(1 - x), 0.0, 1.0, 1e-13)

    @pytest.mark.parametrize(
        "a, b",
        [
            (0.0, 1.0),
            (1.0, 0.0),
            (-3.0, 0.25),
            (1.0, np.array([1.0 + 2**-52, 1.0 + 4 * 2**-52, 1.0 - 2**-53, 2.0, 1.0, 0.5])),
            (0.0, np.array([5e-324, 1e-320, 3.0, 2.0**-1070])),
        ],
        ids=["unit", "reversed", "general", "ulp-wide", "subnormal-wide"],
    )
    def test_integrand_sees_only_kept_nodes(self, a, b):
        # f gets exactly the nodes of each level with a nonzero weight that
        # did not round onto an end, interval after interval; an end node
        # would take log(0) below and fail under warnings-as-errors
        lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
        lo, hi = np.broadcast_arrays(lo, hi)
        levels = []

        def f(x, i):
            level = len(levels)
            levels.append(i)
            assert x.ndim == 1 and x.shape == i.shape and i.dtype.kind == "i"
            for row in np.unique(i):
                nodes, w = oracle._level_nodes(level, lo[row], hi[row])
                kept = (w != 0.0) & (nodes != lo[row]) & (nodes != hi[row])
                assert x[i == row].tobytes() == nodes[kept].tobytes()
            assert np.all(np.diff(i) >= 0)  # interval after interval
            return np.log(x - lo[i]) + np.log(hi[i] - x)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quad_singular(f, a, b, 1e-10)
        assert np.all(np.isfinite(got))
        if np.ndim(b) == 0:
            assert all(np.all(i == 0) for i in levels)  # float limits: interval 0


def scalar_node(tk, a, b):
    """Scalar tanh-sinh node (x, w) at t = tk on (a, b), the table reference."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u = 0.5 * math.pi * math.sinh(tk)
    e2 = math.exp(-2.0 * abs(u))
    w = half * 0.5 * math.pi * math.cosh(tk) * 4.0 * e2 / (1.0 + e2) ** 2
    if w == 0.0:
        return None
    offset = half * 2.0 * e2 / (1.0 + e2)
    if tk > 0:
        return b - offset, w
    if tk < 0:
        return a + offset, w
    return mid, w


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
    # every level up to the level budget of 12 (quadrature_roundtrip,
    # with its offset-form integrand, converges by level 4)
    LEVELS = range(0, 13)

    @pytest.mark.parametrize("level", LEVELS)
    def test_power_of_two_half_width_within_one_ulp(self, level):
        # half = 1/2 scales exactly, so the tables reproduce the scalar
        # formula bit for bit except in the last place of subnormal weights
        want = scalar_level(level, 0.0, 1.0)
        x, w = oracle._level_nodes(level, 0.0, 1.0)
        assert len(x) == len(want)
        for got, col in ((x, 0), (w, 1)):
            assert ulps(got, want[:, col]) <= 1.0

    @pytest.mark.parametrize("level", LEVELS)
    def test_general_half_width_rounding_only(self, level):
        # half = 3/2: the scalar formula multiplies by half first, the
        # tables last, so products of the same factors round in a
        # different order (a few ulp at most); the node set is the same
        want = scalar_level(level, 2.0, 5.0)
        x, w = oracle._level_nodes(level, 2.0, 5.0)
        assert len(x) == len(want)
        assert ulps(x, want[:, 0]) <= 1.0
        assert ulps(w, want[:, 1]) <= 4.0

    def test_cache_keys_are_levels_only(self):
        for a, b in ((0.0, 1.0), (2.0, 5.0), (-3.0, 0.25), (1e-3, 7.0)):
            quad_singular(lambda x, i: np.sin(x), a, b, 1e-12)
        keys = set(oracle._TS_LEVELS)
        assert keys <= set(range(0, 13))
        assert all(type(k) is int for k in keys)
        # one (offset, weight) pair per level, for t > 0 only
        for offsets, weights in oracle._TS_LEVELS.values():
            assert offsets.shape == weights.shape
            assert np.all((offsets > 0) & (offsets <= 1.0) & (weights > 0))


# ---------------------------------------------------------------------------
# interval arrays: the single-interval core kept verbatim as the reference
# ---------------------------------------------------------------------------

def _seed_level_nodes(level, a, b):
    unit_offset, unit_weight = oracle._level_table(level)
    half = 0.5 * (b - a)
    offset = half * unit_offset
    w = half * unit_weight
    x = np.concatenate((b - offset, a + offset))
    w = np.concatenate((w, w))
    if level == 0:
        mid = 0.5 * (a + b)
        x = np.concatenate(([mid], x))
        w = np.concatenate(([half * 0.5 * math.pi], w))
    return x, w


def _level_budget(max_level):
    """The library's level budget set to max_level for the block."""
    return mock.patch.object(oracle, "_TS_MAX_LEVEL", max_level)


def _seed_quad(f, a, b, tol=1e-10, max_level=12):
    if a == b:
        return 0.0
    if b < a:
        return -_seed_quad(f, b, a, tol, max_level)

    def level_sum(level):
        x, w = _seed_level_nodes(level, a, b)
        keep = (w != 0.0) & (x != a) & (x != b)
        w = w[keep]
        fx = np.asarray(f(x[keep], np.zeros(len(w), dtype=np.intp)), dtype=float)
        finite = np.isfinite(fx)
        return float(np.dot(w[finite], fx[finite]))

    h = 1.0
    history = [h * level_sum(0)]
    for level in range(1, max_level + 1):
        h *= 0.5
        history.append(0.5 * history[-1] + h * level_sum(level))
        if level >= 2 and abs(history[-1] - history[-2]) <= tol:
            return history[-1]
    raise RuntimeError("quadrature budget exceeded: tanh-sinh did not converge")


def _kernel(kind, x, c, a):
    """Integrands with a per-interval parameter c; all of them elementwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "smooth":
            return np.sin(c * x)
        if kind == "endpoint":  # c / sqrt at the lower limit a
            return c / np.sqrt(np.abs(x - a))
        if kind == "log":
            return c * np.log(np.abs(x - a))
        # non-finite values at some nodes, different ones in each row
        return np.where(np.abs(x - c) < 0.05, np.nan, np.cos(x))


def _outcome(fn, *args, **kwargs):
    try:
        return np.float64(fn(*args, **kwargs)).tobytes()
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _upper_limits(draw):
    a = draw(st.floats(-3.0, 3.0))
    ulp = math.ulp(a)
    one = st.one_of(
        st.floats(-3.0, 3.0),
        st.just(a),  # empty interval
        st.integers(-40, 40).map(lambda k: a + k * ulp),  # nodes round onto the ends
    )
    bs = draw(st.lists(one, min_size=1, max_size=6))
    cs = draw(st.lists(st.floats(0.5, 2.0), min_size=len(bs), max_size=len(bs)))
    return a, np.array(bs), np.array(cs)


class TestIntervalArrays:
    @settings(max_examples=150, deadline=None)
    @given(
        _upper_limits(),
        st.sampled_from(["smooth", "endpoint", "log", "holes"]),
        st.sampled_from([1e-8, 1e-10, 1e-12, 1e-14]),
        st.sampled_from([0, 2, 4, 7, 12]),
    )
    @example((0.0, np.array([1.0, 0.0, -2.0, 5e-324]), np.array([1.0, 1.5, 0.7, 1.0])), "endpoint", 1e-10, 12)
    @example((1.0, np.array([1.0 + 2**-52, 0.5, 3.0]), np.array([1.0, 2.0, 1.2])), "holes", 1e-12, 4)
    def test_vector_of_upper_limits_equals_scalar_calls(self, limits, kind, tol, max_level):
        # each row is the single-interval call bit for bit, or the batch
        # raises that call's RuntimeError
        a, bs, cs = limits
        want = []
        for b, c in zip(bs.tolist(), cs.tolist()):
            row_f = lambda x, i, c=c: _kernel(kind, x, c, a)
            want.append(_outcome(_seed_quad, row_f, a, b, tol, max_level))
            with _level_budget(max_level):
                assert _outcome(quad_singular, row_f, a, b, tol) == want[-1]
        batch_f = lambda x, i: _kernel(kind, x, cs[i], a)
        errors = [w for w in want if isinstance(w, tuple)]
        event("raises" if errors else "equal")
        with _level_budget(max_level):
            if errors:
                with pytest.raises(errors[0][0]) as info:
                    quad_singular(batch_f, a, bs, tol)
                assert str(info.value) == errors[0][1]
            else:
                assert quad_singular(batch_f, a, bs, tol).tobytes() == b"".join(want)

    def test_row_at_max_level_raises_the_scalar_error(self):
        def f(x, i):  # unresolvable unless written in offset form
            return 1.0 / np.sqrt(1.0 - x)

        with _level_budget(4):
            with pytest.raises(RuntimeError) as scalar:
                quad_singular(f, 0.0, 1.0, 1e-13)
            with pytest.raises(RuntimeError) as batch:
                quad_singular(f, 0.0, np.array([0.5, 1.0, 0.25]), 1e-13)
        assert str(batch.value) == str(scalar.value) == "quadrature budget exceeded: tanh-sinh did not converge"

    def test_rows_leave_the_batch_when_converged(self):
        seen = []

        def f(x, i):
            assert x.shape == i.shape and x.ndim == 1
            seen.append(np.unique(i).tolist())
            return np.cos(x)

        bs = np.array([1.0, 1e-3, 0.0, 30.0])
        got = quad_singular(f, 0.0, bs, 1e-12)
        assert seen[0] == [0, 1, 3]  # the empty interval is never evaluated
        for before, after in zip(seen, seen[1:]):
            assert set(after) <= set(before)
        assert len(seen[-1]) < 3  # the rows converge at different levels
        for i, b in enumerate(bs.tolist()):
            assert got[i] == quad_singular(lambda x, i: np.cos(x), 0.0, b, 1e-12)

    def test_limits_broadcast_to_one_shape(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([2.0, 3.0, 4.0])
        got = quad_singular(lambda x, i: np.cos(x), a, b, 1e-12)
        assert got.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert got[i, j] == quad_singular(lambda x, i: np.cos(x), a[i, 0], b[j], 1e-12)
