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
