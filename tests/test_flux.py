"""Nonzero-current structure: flow system, closed forms, field identities."""

import functools
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from bmlandau import flux as fx
from bmlandau import sectors as sec
from bmlandau import ermakov as ek
from bmlandau import specfun as sf
from bmlandau import spectrum as sp
from bmlandau.core import PhysParams
from bmlandau.oracle import IVPProblem, _five_point, integrate_ivp, quad_singular

from test_oracle import BAD_GRIDS  # the grids fd_residual and theta_from_w both refuse

NATURAL = PhysParams()
BETA_ONE = PhysParams(B=2.0)  # beta = 1


def reference_context():
    """Lambda = 1 via (l = 0, phi = 1), E_pi = 10, theta0 = 0."""
    return fx.flux_context_from_lambda(1.0, 0, 10.0, 0.0, NATURAL)


class TestCurrentBranch:
    def test_zero_sum_enforced(self):
        fx.CurrentBranch(1.0, -3.0, 2.0)
        with pytest.raises(ValueError, match="C_r \\+ C_theta \\+ C_z"):
            fx.CurrentBranch(1.0, 1.0, 1.0)


class TestFluxContext:
    def test_derived_quantities(self):
        ctx = fx.FluxContext(r=2.0, l=3, E_pi=40.0, theta0=0.0, params=NATURAL)
        assert ctx.phi == pytest.approx(2.0)
        assert ctx.Lambda == pytest.approx(13.0)
        assert ctx.Lambda >= ctx.l**2
        assert ctx.discriminant == pytest.approx(1600.0 - 64.0 * 13.0)

    def test_from_lambda(self):
        ctx = fx.flux_context_from_lambda(5.0, 2, 30.0, 0.1, NATURAL)
        assert ctx.Lambda == pytest.approx(5.0)
        assert ctx.phi == pytest.approx(1.0)
        assert ctx.r == pytest.approx(math.sqrt(1.0 / NATURAL.beta))
        with pytest.raises(ValueError, match="Lambda must be >= l\\^2"):
            fx.flux_context_from_lambda(3.9, 2, 30.0, 0.0, NATURAL)

    def test_from_lambda_keeps_params(self):
        params = PhysParams(hbar=0.7, B=1.3)
        assert fx.flux_context_from_lambda(5.0, 2, 30.0, 0.1, params).params is params


class TestUwFlow:
    def test_fixed_point(self):
        ctx = reference_context()
        dpi, dw = fx.uw_flow((math.sqrt(ctx.Lambda), 0.0), ctx, 0.0)
        assert dpi == 0.0
        assert dw == 0.0

    def test_array_state_matches_point_calls(self):
        # a (2, N) state gives the per-point results bit for bit
        ctx = fx.FluxContext(r=1.3, l=1, E_pi=15.0, theta0=0.0, params=PhysParams(hbar=0.9, B=1.4))
        rng = np.random.default_rng(7)
        states = rng.uniform(-2.0, 2.0, (2, 64))
        dpi, dw = fx.uw_flow(states, ctx, 0.4)
        points = np.array([fx.uw_flow(point, ctx, 0.4) for point in states.T.tolist()])
        assert dpi.tobytes() == points[:, 0].tobytes()
        assert dw.tobytes() == points[:, 1].tobytes()

    def test_matches_closed_form_over_a_period(self):
        ctx = reference_context()
        pi0 = 8.0 * ctx.Lambda / ctx.E_pi
        dpi0 = -16.0 * ctx.Lambda**1.5 * math.sqrt(ctx.discriminant) / ctx.E_pi**2
        w0 = -dpi0 / (2.0 * pi0)

        rhs = lambda y, t: fx.uw_flow(y, ctx, 0.0)
        period = math.pi / math.sqrt(ctx.Lambda)
        sol = integrate_ivp(IVPProblem(rhs, [pi0, w0], (0.0, period), 1e-11, 1e-13, max_step=0.02))
        th = np.linspace(0.0, period, 500)
        assert np.max(np.abs(sol(th)[:, 0] - fx.pi_theta_closed(th, ctx))) < 1e-6


class TestNonlinpie:
    def test_zero_point(self):
        ctx = reference_context()
        assert fx.nonlinpie_residual(0.0, 0.0, 0.0, ctx, 0.0) == 0.0

    def test_constant_momentum_fixed_point(self):
        ctx = reference_context()
        pi = math.sqrt(ctx.Lambda)
        assert fx.nonlinpie_residual(pi, 0.0, 0.0, ctx, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_satisfies_master_equation(self):
        ctx = reference_context()
        h = 1e-4
        pts = np.linspace(0.05, 3.0, 201)
        p0 = fx.pi_theta_closed(pts, ctx)
        pp = (fx.pi_theta_closed(pts + h, ctx) - fx.pi_theta_closed(pts - h, ctx)) / (2 * h)
        ppp = (fx.pi_theta_closed(pts + h, ctx) - 2 * p0 + fx.pi_theta_closed(pts - h, ctx)) / h**2
        assert np.max(np.abs(fx.nonlinpie_residual(p0, pp, ppp, ctx, 0.0))) < 1e-5


class TestPiThetaClosed:
    def test_value_at_theta0(self):
        ctx = reference_context()
        assert fx.pi_theta_closed(ctx.theta0, ctx) == pytest.approx(0.8, rel=1e-14)

    def test_extremal_range(self):
        ctx = reference_context()
        th = np.linspace(0.0, 2.0 * math.pi, 4001)
        values = fx.pi_theta_closed(th, ctx)
        assert values.min() == pytest.approx(0.5, abs=1e-6)
        assert values.max() == pytest.approx(2.0, abs=1e-6)

    def test_discriminant_branch_guard(self):
        ctx = fx.flux_context_from_lambda(1.0, 0, 1.0, 0.0, NATURAL)  # E^2 < 64 Lambda
        with pytest.raises(ValueError, match="discriminant branch not covered"):
            fx.pi_theta_closed(0.3, ctx)

    def test_nan_discriminant_rejected(self):
        ctx = fx.flux_context_from_lambda(1.0, 0, float("nan"), 0.0, NATURAL)
        with pytest.raises(ValueError, match="discriminant branch not covered"):
            fx.pi_theta_closed(0.3, ctx)

    def test_e_pi_whose_square_overflows_rejected(self):
        ctx = fx.flux_context_from_lambda(1.0, 0, -1e200, 0.0, NATURAL)
        for closed_form in (fx.pi_theta_closed, fx.s_theta_closed):
            with pytest.raises(ValueError, match=r"E_pi = -1e\+200 out of range"):
                closed_form(0.3, ctx)
        # the largest |E_pi| whose square is finite is still accepted
        edge = fx.flux_context_from_lambda(1.0, 0, fx._E_PI_MAX, 0.0, NATURAL)
        assert fx.pi_theta_closed(0.3, edge) > 0

    def test_hbar_whose_square_leaves_float_range_rejected(self):
        # beta = eB/(2 hbar) = 1 at every hbar
        context_at = lambda hbar: fx.FluxContext(r=0.0, l=1, E_pi=10.0, theta0=0.0, params=PhysParams(hbar=hbar, B=2.0 * hbar))
        for hbar in (1e200, 1e-200):
            ctx = context_at(hbar)
            for closed_form in (fx.pi_theta_closed, fx.s_theta_closed):
                with pytest.raises(ValueError, match=re.escape(f"hbar = {hbar:g} out of range")):
                    closed_form(0.3, ctx)
        # the limits themselves are accepted: hbar**2 is finite and not 0
        for hbar in (fx._HBAR_MIN, fx._E_PI_MAX):
            assert 0.0 < hbar * hbar < math.inf
        edge = context_at(fx._E_PI_MAX)
        assert fx.pi_theta_closed(0.3, edge) > 0
        # at the lower limit 64 Lambda / hbar**2 overflows: Delta_pi = -inf
        edge = context_at(fx._HBAR_MIN)
        with pytest.raises(ValueError, match="discriminant branch not covered"):
            fx.pi_theta_closed(0.3, edge)

    def test_denominator_bounded_away_from_zero(self):
        # on the Delta > 0 branch the sine never reaches -E/sqrt(Delta)
        ctx = reference_context()
        th = np.linspace(0.0, 2.0 * math.pi, 10001)
        u = 2.0 * math.sqrt(ctx.Lambda) * th
        denom = ctx.E_pi + math.sqrt(ctx.discriminant) * np.sin(u)
        assert denom.min() > 0


class TestSThetaClosed:
    def test_value_at_theta0_with_zero_flux(self):
        ctx = fx.FluxContext(r=0.0, l=1, E_pi=10.0, theta0=0.0, params=BETA_ONE)
        want = math.atan(math.sqrt(ctx.discriminant) / (8.0 * math.sqrt(ctx.Lambda)))
        assert fx.s_theta_closed(0.0, ctx) == pytest.approx(want, rel=1e-13)

    def test_derivative_at_theta0(self):
        # dS/dtheta at theta0 is hbar*phi + 8 Lambda / E_pi
        ctx = reference_context()
        h = 1e-5
        fd = (fx.s_theta_closed(ctx.theta0 + h, ctx) - fx.s_theta_closed(ctx.theta0 - h, ctx)) / (2 * h)
        assert fd == pytest.approx(ctx.params.hbar * ctx.phi + 8.0 * ctx.Lambda / ctx.E_pi, abs=1e-7)

    def test_derivative_recovers_momentum(self):
        ctx = reference_context()
        pts = np.linspace(0.1, 2.9, 29)
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            fd = (fx.s_theta_closed(pts + h, ctx) - fx.s_theta_closed(pts - h, ctx)) / (2 * h)
            errs.append(np.max(np.abs(fd - ctx.params.hbar * ctx.phi - fx.pi_theta_closed(pts, ctx))))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.8)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.8)

    def test_continuous_across_tangent_pole(self):
        ctx = reference_context()  # sqrt(Lambda) = 1: tan pole at theta = pi/2
        th = np.linspace(math.pi / 2 - 0.05, math.pi / 2 + 0.05, 501)
        s = fx.s_theta_closed(th, ctx)
        jumps = np.abs(np.diff(s))
        slope_bound = ctx.params.hbar * ctx.phi + np.max(fx.pi_theta_closed(th, ctx))
        assert jumps.max() < 1.5 * (th[1] - th[0]) * slope_bound

    def test_quasi_periodic_increment(self):
        ctx = reference_context()
        th = np.linspace(0.0, 2.0, 101)
        inc = fx.s_theta_closed(th + 2.0 * math.pi, ctx) - fx.s_theta_closed(th, ctx)
        assert inc.max() - inc.min() < 1e-12
        assert inc[0] != 0.0


class TestClosedFormsPastTheFloatRange:
    # each overflowed to nan or inf with a RuntimeWarning, and the CLI printed it at exit 0
    HUGE_PHASE = fx.flux_context_from_lambda(1e300, 0, 1e152, 0.0, NATURAL)
    HUGE_ACTION = fx.flux_context_from_lambda(1.0, 0, 10.0, 0.0, PhysParams(hbar=1e150))

    @pytest.mark.parametrize("closed_form, message", [
        (fx.pi_theta_closed, "phase 2 sqrt(Lambda)(theta - theta0) overflows the float range at theta = 5e+199 "
                             "(Lambda = 1e+300)"),
        (fx.s_theta_closed, "phase sqrt(Lambda)(theta - theta0) overflows the float range at theta = 5e+199 "
                            "(Lambda = 1e+300)"),
    ])
    def test_phase_refused(self, closed_form, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                closed_form(np.array([0.0, 5e199, 1e200]), self.HUGE_PHASE)

    def test_action_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="action S_theta overflows the float range at theta = 5e\\+199$"):
                fx.s_theta_closed(np.array([0.0, 5e199, 1e200]), self.HUGE_ACTION)
            assert math.isfinite(fx.s_theta_closed(0.0, self.HUGE_ACTION))


class TestFBranchFlow:
    def test_zero_current_reduces_to_linear_flow(self):
        ctx = fx.FluxContext(r=1.4, l=1, E_pi=20.0, theta0=0.0, params=PhysParams(B=1.2))
        for F, p in ((1.0, 0.9), (2.3, 1.7)):
            got = fx.f_branch_flow(F, p, ctx, 0.0, +1)
            want = 2.0 * F / p - 4.0 * p * p / ctx.params.hbar**2 + 4.0 * ctx.Lambda
            assert got == pytest.approx(want, rel=1e-14)
            assert fx.f_branch_flow(F, p, ctx, 0.0, -1) == pytest.approx(got, rel=1e-14)

    def test_linear_flow_first_integral(self):
        # integrate the linear flow numerically and compare to
        # (pi'/pi)^2 = E pi - 4 pi^2 - 4 Lambda
        ctx = fx.flux_context_from_lambda(1.0, 0, 10.0, 0.0, NATURAL)
        E_pi, lam = ctx.E_pi, ctx.Lambda
        target = lambda p: E_pi * p - 4.0 * p * p - 4.0 * lam
        pi0 = 0.8
        F0 = pi0 * target(pi0)
        rhs = lambda y, t: np.array([fx.f_branch_flow(y[0], t, ctx, 0.0, +1)])
        sol = integrate_ivp(IVPProblem(rhs, [F0], (pi0, 1.9), 1e-12, 1e-14))
        for p in (1.0, 1.4, 1.9):
            assert sol(p)[0] / p == pytest.approx(target(p), abs=1e-8)

    def test_branch_split(self):
        ctx = fx.FluxContext(r=1.3, l=0, E_pi=30.0, theta0=0.0, params=PhysParams(B=1.4))
        F, p, C = 1.5, 1.1, 0.8
        split = fx.f_branch_flow(F, p, ctx, C, +1) - fx.f_branch_flow(F, p, ctx, C, -1)
        assert split == pytest.approx(-8.0 * ctx.r**2 * C * math.sqrt(F / p) / p, rel=1e-13)

    def test_guards(self):
        ctx = fx.FluxContext(r=1.0, l=0, E_pi=30.0, theta0=0.0, params=BETA_ONE)
        with pytest.raises(ZeroDivisionError, match="momentum-axis singularity"):
            fx.f_branch_flow(1.0, 0.0, ctx, 0.5, +1)
        with pytest.raises(ValueError, match="branch violation"):
            fx.f_branch_flow(-1.0, 1.0, ctx, 0.5, +1)
        with pytest.raises(ValueError, match="sign"):
            fx.f_branch_flow(1.0, 1.0, ctx, 0.5, 2)


class TestFirstIntegralQuadrature:
    def test_arcsin_reduction(self):
        E_th, l = 2.0, 2
        for T in (0.25, 0.55, 0.85, 0.99):
            got = fx.theta_first_integral_quadrature(T, E_th, l, 0.0, 0.7)
            want = (math.asin(l * T / math.sqrt(2.0 * E_th)) - math.pi / 2.0) / l
            assert got == pytest.approx(want, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(E_th=st.floats(0.2, 5.0), l=st.integers(1, 3), phi=st.floats(-1.5, 1.5), frac=st.floats(0.0, 1.0))
    @example(E_th=2.0, l=1, phi=0.7, frac=0.0)  # T = 1e-300
    @example(E_th=2.0, l=1, phi=0.7, frac=1.0)  # T = tp
    def test_arcsin_reduction_over_the_float_range(self, E_th, l, phi, frac):
        # kappa = 0, T log-uniform in [1e-300, tp]: tiny targets scan up to tp
        # from far below the fixed-step window, with no RuntimeWarning
        tp = math.sqrt(2.0 * E_th) / l
        T = math.exp((1.0 - frac) * math.log(1e-300) + frac * math.log(tp))
        with mp.workdps(30):
            x = l * mp.mpf(T) / mp.sqrt(2 * mp.mpf(E_th))
            assume(x <= 1)  # T at or below the exact turning point
            want = float((mp.asin(x) - mp.pi / 2) / l)
        assume(fx.first_integral_radicand(T, E_th, l, 0.0, phi) >= 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fx.theta_first_integral_quadrature(T, E_th, l, 0.0, phi)
        # the float turning point is off by a relative shift of a few ulp,
        # which moves the answer by about x shift / sqrt(1 - x^2), at most
        # sqrt(2 shift), both over l
        shift = 1e-15
        x = float(x)
        moved = min(x * shift / math.sqrt(max(1.0 - x * x, 1e-300)), math.sqrt(2.0 * shift)) / l
        assert abs(got - want) <= 1e-12 + moved

    def test_turning_point_gives_zero(self):
        E_th, l = 2.0, 2
        tp = math.sqrt(2.0 * E_th) / l
        assert fx.theta_first_integral_quadrature(tp, E_th, l, 0.0, 0.7) == 0.0

    def test_round_trip_with_log_term(self):
        E_th, l, kap, phi = 2.0, 1, 0.5, 0.7
        h = 2e-3
        Ts = np.arange(0.7, 0.9 + h / 2, h)
        th = np.array(
            [fx.theta_first_integral_quadrature(float(T), E_th, l, kap, phi, tol=1e-12) for T in Ts]
        )
        dth = (th[:-4] - 8 * th[1:-3] + 8 * th[3:-1] - th[4:]) / (12 * h)
        rad = fx.first_integral_radicand(Ts[2:-2], E_th, l, kap, phi)
        assert np.max(np.abs(1.0 / dth**2 - rad)) < 1e-6

    def test_forbidden_amplitude(self):
        with pytest.raises(ValueError, match="classically forbidden"):
            fx.theta_first_integral_quadrature(0.05, 2.0, 1, 0.5, 0.7)
        with pytest.raises(ValueError, match="positive"):
            fx.theta_first_integral_quadrature(-0.3, 2.0, 1, 0.0, 0.0)

    @pytest.mark.parametrize(
        "target", [math.nan, math.inf, np.array([0.7, 0.75, math.nan, 0.8])], ids=["nan", "inf", "array"]
    )
    def test_non_finite_target_rejected_first(self, target):
        # named at once, with no RuntimeWarning from the radicand and no scan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^amplitude target must be finite \(got nan or inf\)$"):
                fx.theta_first_integral_quadrature(target, 2.0, 1, 0.5, 0.7)

    def test_integrand_called_once_per_level(self, monkeypatch):
        # the integrand takes one whole node array per level, not one call
        # per node, and the smooth offset form converges by level 5
        core = fx.quad_singular
        runs = []

        def counting(f, *args, **kwargs):
            sizes = []
            runs.append(sizes)

            def counted(x, i):
                sizes.append(len(x))
                return f(x, i)

            return core(counted, *args, **kwargs)

        monkeypatch.setattr(fx, "quad_singular", counting)
        E_th, l, kap, phi = 2.0, 1, 0.5, 0.7
        for T in (0.5, 0.7, 0.9):
            fx.theta_first_integral_quadrature(T, E_th, l, kap, phi, tol=1e-12)
        assert len(runs) == 3
        for sizes in runs:
            assert 1 <= len(sizes) <= 6  # levels 0-5 of the default 12
            assert min(sizes) > 1

    @pytest.mark.parametrize("target", [1.5, 1.9, 2.0])
    def test_targets_from_the_upper_turning_point_converge_at_tight_tol(self, target):
        # these ran out of the level-12 budget at tol=1e-12 with the
        # integrand that subtracted O(1) radicand values near the turning point
        args = (2.0, 1, 0.5, 0.7, 1.0)
        with mp.workdps(30):
            upper = mp.findroot(_mp_radicand(*args), (2.0, 2.2), solver="anderson")
        got = fx.theta_first_integral_quadrature(target, *_library_args(*args), tol=1e-12)
        assert abs(got - _mp_theta(target, *args, upper)) <= 1e-12

    def test_sign_follows_side_of_turning_point(self):
        E_th, l, kap, phi = 2.0, 1, 0.5, 0.7
        # lower turning point ~0.287, upper ~2.08; targets on either side
        below = fx.theta_first_integral_quadrature(0.5, E_th, l, kap, phi)
        above = fx.theta_first_integral_quadrature(1.9, E_th, l, kap, phi)
        assert below > 0  # measured upward from the lower turning point
        assert above < 0  # measured downward from the upper turning point


class TestIncrementQuotient:
    ARGS = (2.0, 1, 0.5, 0.7, 1.0)  # turning points about 0.287 and 2.08

    @pytest.mark.parametrize("tp", [0.287, 2.08, 1.0])
    @pytest.mark.parametrize("u", [0.5, 1e-3, -1e-3, 1e-9, -1e-9, 1e-30, -0.2])
    def test_matches_the_increment_at_high_precision(self, tp, u):
        E, l, kappa, phi, hbar = self.ARGS
        got = fx.radicand_increment_quotient(u, tp, l, kappa / hbar, phi)
        g = _mp_radicand(*self.ARGS)
        with mp.workdps(60):
            want = (g(mp.mpf(tp) + mp.mpf(u)) - g(mp.mpf(tp))) / mp.mpf(u)
        assert got == pytest.approx(float(want), rel=1e-14)

    @pytest.mark.parametrize("u", [0.0, 5e-324, -5e-324, 1e-310])
    def test_limit_at_zero_is_the_slope(self, u):
        _, l, kappa, phi, hbar = self.ARGS
        tp = 0.287
        slope = -2.0 * l * l * tp + 2.0 * kappa * phi / (hbar * tp) + 2.0 * (kappa / hbar) ** 2 / tp**3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fx.radicand_increment_quotient(np.array([u]), tp, l, kappa / hbar, phi)
        assert got[0] == pytest.approx(slope, rel=1e-15)


# ---------------------------------------------------------------------------
# array targets: the scalar search and quadrature kept verbatim as the reference
# ---------------------------------------------------------------------------

def _library_args(E_theta, l, kappa_theta, phi, hbar, *tol):
    """The library's arguments for (E_theta, l, kappa_theta, phi, hbar[, tol]):
    the scaled current kappa_theta / hbar in place of kappa_theta and hbar."""
    return (E_theta, l, kappa_theta / hbar, phi, *tol)


def _seed_theta_quadrature(Theta_target, E_theta, l, kappa_theta, phi, hbar=1.0, tol=1e-10):
    def g(T):
        return float(fx.first_integral_radicand(T, E_theta, l, kappa_theta / hbar, phi))

    # the one addition to the verbatim copy: non-finite targets are rejected first
    if not math.isfinite(Theta_target):
        raise ValueError("amplitude target must be finite (got nan or inf)")
    if Theta_target <= 0:
        raise ValueError("amplitude must be positive")
    if g(Theta_target) < 0:
        raise ValueError("classically forbidden amplitude (radicand negative at target)")
    tp = _seed_nearest_turning_point(g, Theta_target)
    if tp is None:
        raise ValueError("classically forbidden amplitude: no real turning point brackets the target")
    if tp == Theta_target:
        return 0.0
    s = 1.0 if Theta_target > tp else -1.0
    t_max = math.sqrt(abs(Theta_target - tp))
    h_tp = 1e-7 * max(abs(tp), 1.0)
    gp = abs(g(tp + s * h_tp) - g(tp - s * h_tp)) / (2.0 * h_tp)
    gp = max(gp, 1e-300)
    noise = max(abs(g(tp)), 1e-14 * abs(g(Theta_target)), 1e-250)
    t_noise = math.sqrt(100.0 * noise / gp)

    def integrand(t, _i):
        rad = fx.first_integral_radicand(tp + s * t * t, E_theta, l, kappa_theta / hbar, phi)
        flat = (t <= t_noise) | (rad <= 0.0)
        return np.where(flat, 2.0 / math.sqrt(gp), 2.0 * t / np.sqrt(np.where(flat, 1.0, rad)))

    return s * quad_singular(integrand, 0.0, t_max, tol=tol)


def _seed_nearest_turning_point(g, target, expand=1.6, max_iter=200):
    # the scans of the verbatim copy stopped at 1e-12 and 1e12; a scan that
    # stops there without a bracket now tests the end of the scan range,
    # [1e-150, 1e150], and bisects in log T to a root found there
    candidates = []
    lo = target
    found = None
    for _ in range(max_iter):
        nxt = lo / expand
        if g(nxt) <= 0.0:
            found = _seed_bisect(g, lo, nxt)
            break
        lo = nxt
        if lo < 1e-12:
            found = _seed_root_toward(g, lo, 1e-150)
            break
    if found is not None:
        candidates.append(found)
    hi = target
    found = None
    for _ in range(max_iter):
        nxt = hi * expand
        if g(nxt) <= 0.0:
            found = _seed_bisect(g, hi, nxt)
            break
        hi = nxt
        if hi > 1e12:
            found = _seed_root_toward(g, hi, 1e150)
            break
    if found is not None:
        candidates.append(found)
    if not candidates:
        return None
    return min(candidates, key=lambda tp: abs(tp - target))


def _seed_root_toward(g, inside, end):
    """The root of g between inside (g > 0) and the range end, by bisection in log T; None if g(end) > 0."""
    if (end - inside) * (1.0 if end > inside else -1.0) <= 0.0 or g(end) > 0.0:
        return None
    outside = end
    while True:
        mid = math.sqrt(inside) * math.sqrt(outside)
        if mid == inside or mid == outside:
            return mid
        if g(mid) > 0.0:
            inside = mid
        else:
            outside = mid


def _seed_bisect(g, inside, outside, iters=200):
    for _ in range(iters):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if g(mid) > 0.0:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def _mp_radicand(E_theta, l, kappa_theta, phi, hbar):
    """The radicand g at the working precision of mpmath."""
    E, k, ph = mp.mpf(E_theta), mp.mpf(kappa_theta) / mp.mpf(hbar), mp.mpf(phi)
    return lambda x: 2 * E - l * l * x * x + 2 * k * ph * mp.log(x) - k * k / (x * x)


# hypothesis draws many targets more than once; each reference is computed once per run
@functools.lru_cache(maxsize=None)
def _mp_theta(T, E_theta, l, kappa_theta, phi, hbar, tp):
    """s * int_0^sqrt|T - tp| 2 t / sqrt(g(tp + s t^2) - g(tp)) dt at 30 digits.

    tp is taken as the root (for a float turning point, subtracting g(tp)
    removes its rounding, as the offset form does), and the quadrature
    keeps away from t = 0, where the subtraction loses every digit: below
    t_lo = 1e-6 min(t_max, sqrt(tp)) the integrand is its limit
    2/sqrt|g'(tp)|, an error of order t_lo^3.  The cut at t = sqrt(tp)
    resolves the steep rise of g above a turning point near 0 (tiny kappa).
    """
    with mp.workdps(30):
        g = _mp_radicand(E_theta, l, kappa_theta, phi, hbar)
        k = mp.mpf(kappa_theta) / mp.mpf(hbar)
        tp = mp.mpf(tp)
        s = 1 if T > tp else -1
        t_max = mp.sqrt(abs(mp.mpf(T) - tp))
        if t_max == 0:
            return 0.0
        slope = abs(-2 * l * l * tp + 2 * k * mp.mpf(phi) / tp + 2 * k * k / tp**3)
        t_lo = mp.mpf("1e-6") * min(t_max, mp.sqrt(tp))
        cuts = [t_lo] + ([mp.sqrt(tp)] if mp.sqrt(tp) < t_max else []) + [t_max]
        g_tp = g(tp)
        body = mp.quad(lambda t: 2 * t / mp.sqrt(g(tp + s * t * t) - g_tp), cuts)
        return float(s * (body + 2 * t_lo / mp.sqrt(slope)))


def _quadrature_outcome(fn, T, args):
    try:
        return np.float64(fn(T, *args)).tobytes()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


# the batch checks its targets stage by stage; the first failing stage is raised
_STAGES = (
    "amplitude target must be finite (got nan or inf)",
    "amplitude must be positive",
    "classically forbidden amplitude (radicand negative at target)",
    "classically forbidden amplitude: no real turning point brackets the target",
    "quadrature budget exceeded: tanh-sinh did not converge",
)


@st.composite
def _first_integral_cases(draw):
    """(E_theta, l, kappa, phi, hbar, tol) and targets around the turning points.

    The targets are drawn from the allowed part of a log grid and include
    the reference's turning points, their float neighbours on both sides
    and points just inside them.
    """
    E_theta = draw(st.floats(0.2, 5.0))
    l = draw(st.one_of(st.integers(1, 3), st.just(0)))
    # a tiny kappa puts the lower turning point near the 1e-12 scan limit
    kappa = draw(st.one_of(st.just(0.0), st.floats(0.05, 1.5), st.floats(1e-13, 1e-10)))
    phi = draw(st.floats(-1.5, 1.5))
    hbar = draw(st.sampled_from([1.0, 0.7]))
    tol = draw(st.sampled_from([1e-10, 1e-12]))
    grid = np.geomspace(1e-2, 1e2, 400)
    allowed = grid[fx.first_integral_radicand(grid, E_theta, l, kappa / hbar, phi) > 0]
    assume(allowed.size > 0)
    picks = draw(st.lists(st.integers(0, 399), min_size=1, max_size=5))
    targets = [float(allowed[i % allowed.size]) for i in picks]
    g = lambda T: float(fx.first_integral_radicand(T, E_theta, l, kappa / hbar, phi))
    tp = _seed_nearest_turning_point(g, targets[0])
    if tp is not None:
        inward = 1.0 if targets[0] > tp else -1.0
        targets += [tp, math.nextafter(tp, math.inf), math.nextafter(tp, -math.inf), tp * (1.0 + inward * 1e-9)]
    order = draw(st.permutations(range(len(targets))))
    return (E_theta, l, kappa, phi, hbar, tol), np.array([targets[i] for i in order])


def _solved_only(Ts, outcomes):
    """The targets whose reference call returns a value (the float
    neighbour of a turning point on its far side is forbidden), if any
    were dropped and any are left."""
    keep = [not isinstance(w, tuple) for w in outcomes]
    if all(keep) or not any(keep):
        return []
    return [(Ts[np.array(keep)], [w for w, k in zip(outcomes, keep) if k])]


class TestArrayTargets:
    @settings(max_examples=100, deadline=None)
    @given(_first_integral_cases())
    @example(((2.0, 1, 0.5, 0.7, 1.0, 1e-12), np.array([0.5, 1.9, 0.7, 2.0])))
    @example(((2.0, 2, 0.0, 0.7, 1.0, 1e-10), np.array([0.2, 1.0, 0.99])))
    def test_array_equals_scalar_calls(self, case):
        # every entry equals the scalar call bit for bit; the scalar call
        # raises the reference's error or, where the reference returns a
        # value or exhausts its quadrature budget, agrees with mpmath from
        # the same turning point; a batch with a failing target raises the
        # error of the first failing stage
        (E_theta, l, kappa, phi, hbar, tol), Ts = case
        args = (E_theta, l, kappa, phi, hbar, tol)
        lib_args = _library_args(*args)
        g = lambda T: float(fx.first_integral_radicand(T, E_theta, l, kappa / hbar, phi))
        want = [_quadrature_outcome(fx.theta_first_integral_quadrature, T, lib_args) for T in Ts.tolist()]
        seeds = [_quadrature_outcome(_seed_theta_quadrature, T, args) for T in Ts.tolist()]
        for T, got, seed in zip(Ts.tolist(), want, seeds):
            if isinstance(seed, tuple) and seed[1] != _STAGES[-1]:
                assert got == seed
                continue
            event("reference out of budget" if isinstance(seed, tuple) else "reference value")
            assert not isinstance(got, tuple)
            theta = np.frombuffer(got)[0]
            ref = _mp_theta(T, E_theta, l, kappa, phi, hbar, _seed_nearest_turning_point(g, T))
            assert abs(theta - ref) <= 1e-12 * max(1.0, abs(ref))
        for targets, outcomes in ((Ts, want), *_solved_only(Ts, want)):
            errors = sorted((_STAGES.index(w[1]), w) for w in outcomes if isinstance(w, tuple))
            if errors:
                with pytest.raises(errors[0][1][0]) as info:
                    fx.theta_first_integral_quadrature(targets, *lib_args)
                assert str(info.value) == errors[0][1][1]
                continue
            event("equal")
            got = fx.theta_first_integral_quadrature(targets, *lib_args)
            assert got.shape == targets.shape
            assert got.tobytes() == b"".join(outcomes)
            # any array shape, entries in ravel order
            assert fx.theta_first_integral_quadrature(targets[:, None], *lib_args).tobytes() == got.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        _first_integral_cases(),
        st.sampled_from([0.0, -0.3, 1e-3, 1e6, math.nan]),
        st.integers(0, 8),
    )
    def test_failing_target_raises_its_scalar_error(self, case, bad, where):
        # one non-positive, forbidden or unbracketed target among good ones
        (E_theta, l, kappa, phi, hbar, tol), Ts = case
        args = (E_theta, l, kappa, phi, hbar, tol)
        good = [T for T in Ts.tolist() if not isinstance(_quadrature_outcome(_seed_theta_quadrature, T, args), tuple)]
        expected = _quadrature_outcome(_seed_theta_quadrature, bad, args)
        event("raises" if isinstance(expected, tuple) and expected[0] is ValueError else "allowed")
        if not isinstance(expected, tuple) or expected[0] is not ValueError:
            return  # the drawn value is allowed for these parameters
        batch = np.array(good[:where] + [bad] + good[where:])
        with pytest.raises(ValueError) as info:
            fx.theta_first_integral_quadrature(batch, *_library_args(*args))
        assert str(info.value) == expected[1]

    def test_target_far_below_its_turning_point_in_a_batch_is_silent(self):
        # T - tp rounds to -tp for T = 1e-17 (kappa = 0, tp = 2), so
        # the row's end node sits at tp + u = 0; it is never evaluated, and
        # the batch equals the float calls bit for bit with no RuntimeWarning
        args = (2.0, 1, 0.0, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fx.theta_first_integral_quadrature(np.array([1e-17, 1.0]), *args)
            want = [fx.theta_first_integral_quadrature(T, *args) for T in (1e-17, 1.0)]
        assert got.tobytes() == np.array(want).tobytes()
        assert got == pytest.approx([-math.pi / 2, -math.pi / 3], abs=1e-12)

    @pytest.mark.parametrize("half_width", [0.5, 0.25, 0.125, 0.375, 0.75])
    def test_tie_between_turning_points_keeps_the_lower(self, half_width):
        # roots 1 -+ half_width; the first four are exactly equidistant from 1
        g = lambda T: half_width * half_width - (T - 1.0) ** 2
        got = fx._nearest_turning_points(g, np.array([1.0, 1.0 + half_width / 4]))
        for tp, target in zip(got.tolist(), (1.0, 1.0 + half_width / 4)):
            assert tp == _seed_nearest_turning_point(lambda T: float(g(T)), target)
        if half_width <= 0.5:
            assert got[0] == 1.0 - half_width

    def test_one_pass_for_all_targets(self, monkeypatch):
        # the verify batch: one quadrature whose level-0 integrand call
        # takes every target's row, and fewer than 120 radicand calls (the
        # target test, scans and bisection), not one search per target
        calls, rows_per_level = [], []
        radicand = fx.first_integral_radicand
        monkeypatch.setattr(fx, "first_integral_radicand", lambda T, *a: calls.append(np.size(T)) or radicand(T, *a))
        core = fx.quad_singular

        def watching(f, *args, **kwargs):
            def watched(x, i):
                rows_per_level.append(len(np.unique(i)))
                return f(x, i)

            return core(watched, *args, **kwargs)

        monkeypatch.setattr(fx, "quad_singular", watching)
        Ts = np.arange(0.7, 0.9 + 1e-3, 2e-3)
        got = fx.theta_first_integral_quadrature(Ts, 2.0, 1, 0.5, 0.7, tol=1e-12)
        assert got.shape == (101,)
        assert len(calls) < 120
        assert rows_per_level[0] == 101  # the level-0 nodes of every target at once


class TestThetaFromW:
    def test_zero_slope(self):
        grid = np.linspace(0.0, 1.0, 101)
        Theta = fx.theta_from_w(grid, np.zeros_like(grid), 2.5)
        assert np.allclose(Theta, 2.5, atol=1e-15)

    def test_constant_slope(self):
        grid = np.linspace(0.0, 1.0, 101)
        Theta = fx.theta_from_w(grid, 0.7 * np.ones_like(grid), 1.0)
        assert np.max(np.abs(Theta - np.exp(0.7 * grid))) < 1e-8

    def test_cubic_slope_is_integrated_exactly(self):
        # the composite cubic rule is exact on cubics, end intervals included
        grid = np.linspace(-0.5, 1.5, 41)
        w = 0.3 - 1.2 * grid + 0.9 * grid**2 - 0.4 * grid**3
        want = 0.3 * (grid + 0.5) - 0.6 * (grid**2 - 0.25) + 0.3 * (grid**3 + 0.125) - 0.1 * (grid**4 - 0.0625)
        Theta = fx.theta_from_w(grid, w, 1.0)
        assert np.max(np.abs(np.log(Theta) - want)) < 1e-14

    def test_error_falls_sixteenfold_per_halving(self):
        # fourth order: halving the step divides the error at the shared points by about 16
        errors = []
        for n in (161, 321):
            grid = np.linspace(0.0, 2.0, n)
            Theta = fx.theta_from_w(grid, np.cos(grid), 1.0)
            errors.append(np.max(np.abs(np.log(Theta) - np.sin(grid))))
        assert 15.0 <= errors[0] / errors[1] <= 17.0

    def test_needs_four_samples(self):
        grid = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="at least 4 samples"):
            fx.theta_from_w(grid, np.ones(3), 1.0)

    @pytest.mark.parametrize("grid, w, message", BAD_GRIDS)
    def test_refuses_a_bad_grid(self, grid, w, message):
        with pytest.raises(ValueError, match=message):
            fx.theta_from_w(grid, w, 1.0)

    def test_reconstruction_satisfies_first_integral(self):
        ctx = fx.FluxContext(r=0.0, l=1, E_pi=10.0, theta0=0.0, params=NATURAL)
        pi0 = 8.0 * ctx.Lambda / ctx.E_pi
        dpi0 = -16.0 * ctx.Lambda**1.5 * math.sqrt(ctx.discriminant) / ctx.E_pi**2
        w0 = -dpi0 / (2.0 * pi0)
        rhs = lambda y, t: fx.uw_flow(y, ctx, 0.0)
        sol = integrate_ivp(IVPProblem(rhs, [pi0, w0], (0.0, math.pi), 1e-11, 1e-13, max_step=0.01))
        h = 5e-4
        grid = np.arange(0.0, math.pi, h)
        kappa_theta = 1.0
        T = fx.theta_from_w(grid, sol(grid)[:, 1], math.sqrt(kappa_theta / pi0))
        dT = (T[2:] - T[:-2]) / (2 * h)
        rad = fx.first_integral_radicand(T[1:-1], kappa_theta * ctx.E_pi / 8.0, ctx.l, kappa_theta, 0.0)
        assert np.max(np.abs(dT**2 - rad)) < 1e-5


def zero_current_fields(n=30):
    r_ax = np.linspace(0.5, 2.0, n)
    th_ax = np.linspace(0.1, 1.2, n)
    z_ax = np.linspace(-0.8, 0.8, n)
    R3 = np.meshgrid(r_ax, th_ax, z_ax, indexing="ij")[0]
    R = np.exp(-(R3**2) / 2.0)
    rho = R**2
    p_r = 0.4 / (R3 * R**2)
    p_th = NATURAL.eB * R3 / 2.0 + 0.3
    p_z = 0.2 * np.ones_like(rho)
    return r_ax, th_ax, z_ax, rho, p_r, p_th, p_z


def divergence_on_the_grid(r, th, z, rho, p_r, p_theta, p_z, params):
    """Reference: every flux broadcast to the full grid, then differenced along each axis."""
    shape = (r.size, th.size, z.size)
    R3 = r[:, None, None]
    flux_r = np.broadcast_to(R3 * rho * p_r, shape)
    flux_th = np.broadcast_to(rho * (p_theta - params.eB * R3 / 2.0), shape)
    flux_z = np.broadcast_to(rho * p_z, shape)
    d_r = _five_point(flux_r[:, 2:-2, 2:-2], r[1] - r[0])[1]
    d_th = _five_point(flux_th[2:-2, :, 2:-2].swapaxes(0, 1), th[1] - th[0])[1].swapaxes(0, 1)
    d_z = _five_point(flux_z[2:-2, 2:-2].T, z[1] - z[0])[1].T
    r_in = r[2:-2][:, None, None]
    return float(np.max(np.abs(d_r / r_in + d_th / r_in + d_z)))


class TestDivergenceResidual:
    def test_uniform_density_zero_momenta(self):
        ax = np.linspace(0.5, 1.5, 12)
        zax = np.linspace(-0.5, 0.5, 12)
        shape = (12, 12, 12)
        res = fx.divergence_residual(
            ax, ax, zax, np.ones(shape), np.zeros(shape), np.zeros(shape), np.zeros(shape), NATURAL
        )
        assert res < 1e-14

    def test_zero_current_first_integrals(self):
        res = fx.divergence_residual(*zero_current_fields(40), NATURAL)
        assert res < 1e-5

    def test_nonzero_current_first_integrals(self):
        C_r, C_th, C_z = 0.3, -0.5, 0.2
        r_ax = np.linspace(0.5, 2.0, 301)
        th_ax = np.linspace(0.1, 1.2, 7)
        z_ax = np.linspace(-0.8, 0.8, 7)
        R3, TH3, Z3 = np.meshgrid(r_ax, th_ax, z_ax, indexing="ij")
        Rsq = np.exp(-(R3**2))
        p_r = (0.4 + C_r * (-np.exp(-(R3**2)) / 2.0)) / (R3 * Rsq)
        p_th = NATURAL.eB * R3 / 2.0 + 0.3 + R3 * C_th * TH3
        p_z = 0.2 + C_z * Z3
        res = fx.divergence_residual(r_ax, th_ax, z_ax, Rsq, p_r, p_th, p_z, NATURAL)
        assert res < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(5, 9)] * 3),
        ones=st.lists(st.tuples(*[st.booleans()] * 3), min_size=4, max_size=4),
        lead=st.lists(st.booleans(), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_length_one_axes_equal_the_materialised_fields(self, sizes, ones, lead, seed):
        # each field (rho, p_r, p_theta, p_z) has length 1 along the drawn
        # axes, and its leading length-1 axes may be dropped; the residual
        # must equal, bit for bit, that of the fields copied out to the
        # grid, and that of the reference differencing on the full grid
        rng = np.random.default_rng(seed)
        axes = np.linspace(0.5, 1.5, sizes[0]), np.linspace(-1.0, 1.0, sizes[1]), np.linspace(-0.7, 0.7, sizes[2])
        fields = []
        for flat, drop in zip(ones, lead):
            f = rng.uniform(0.5, 2.0, tuple(1 if one else n for one, n in zip(flat, sizes)))
            while drop and f.ndim and f.shape[0] == 1:
                f = f[0]
            fields.append(f)
        full = [np.broadcast_to(f, sizes).copy() for f in fields]
        res = fx.divergence_residual(*axes, *fields, NATURAL)
        assert res == fx.divergence_residual(*axes, *full, NATURAL)
        assert res == divergence_on_the_grid(*axes, *fields, NATURAL)

    @settings(max_examples=30, deadline=None)
    @given(field=st.integers(0, 3), axis=st.integers(0, 2), length=st.sampled_from([2, 4, 6, 7]))
    def test_fields_that_do_not_broadcast_raise(self, field, axis, length):
        # a field of 2 to 7 points along an axis of 5 broadcasts to no grid
        # of shape (5, 5, 5), also when the other fields are constants
        ax = np.linspace(0.5, 1.5, 5)
        fields = [np.ones((1, 1, 1))] * 4
        fields[field] = np.ones(tuple(length if a == axis else 1 for a in range(3)))
        with pytest.raises(ValueError):
            fx.divergence_residual(ax, ax, ax, *fields, NATURAL)

    def test_each_axis_needs_five_points_whatever_the_fields(self):
        ax, short = np.linspace(0.5, 1.5, 8), np.linspace(0.5, 1.5, 4)
        fields = [np.ones((8, 1, 1))] * 4
        for axes in ((short, ax, ax), (ax, short, ax), (ax, ax, short)):
            with pytest.raises(ValueError, match="at least 5 grid points"):
                fx.divergence_residual(*axes, *fields, NATURAL)

    def test_axis_excluded(self):
        ax = np.linspace(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="axis excluded"):
            fx.divergence_residual(
                ax, ax, ax, np.ones((8, 8, 8)), np.zeros((8, 8, 8)), np.zeros((8, 8, 8)),
                np.zeros((8, 8, 8)), NATURAL,
            )


    def test_axes_must_be_uniform(self):
        ax = np.linspace(0.5, 1.5, 8)
        bent = ax.copy()
        bent[3] += 0.01
        fields = [np.zeros((8, 8, 8))] * 4
        with pytest.raises(ValueError, match="uniformly spaced"):
            fx.divergence_residual(ax, bent, ax, *fields, NATURAL)


class TestBohmEnergyResidual:
    def test_pure_gauge_term(self):
        pt = (1.3, 0.4, 0.1)
        E = (NATURAL.eB * pt[0]) ** 2 / (8.0 * NATURAL.mass)
        res = fx.bohm_energy_residual(
            lambda r: 1.0, lambda t: 1.0, lambda z: 1.0, 0.0, 0.0, 0.0, E, NATURAL, pt
        )
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_zero_current_state_at_el_energy(self):
        n_r, k_z = 1, 1.3
        E = sp.energy(sp.SpectrumModel.EL, n_r, 0, k_z, NATURAL)
        beta = NATURAL.beta
        R = lambda r: np.exp(-beta * r * r / 2.0) * sf.hyp1f1(-n_r, 1.0, beta * r * r)
        coef_z = ek.ep_coefficients(1.1, 0.9, -0.2, k_z)
        Z = sec.trig_amplitude(coef_z, k_z)
        for pt in ((1.0, 0.3, 0.2), (0.7, 1.0, -0.4), (1.6, 2.0, 0.9)):
            p_z = NATURAL.hbar * coef_z.c / float(Z(pt[2])) ** 2
            res = fx.bohm_energy_residual(R, lambda t: 1.0, Z, 0.0, 0.0, p_z, E, NATURAL, pt)
            assert abs(res) < 1e-5

    def test_array_of_points_equals_single_point_calls(self):
        n_r, k_z = 1, 1.3
        E = sp.energy(sp.SpectrumModel.EL, n_r, 0, k_z, NATURAL)
        R = lambda r: np.exp(-r * r / 4.0) * sf.hyp1f1(-n_r, 1.0, r * r / 2.0)
        coef_z = ek.ep_coefficients(1.1, 0.9, -0.2, k_z)
        Z = sec.trig_amplitude(coef_z, k_z)
        r, th, z = np.random.default_rng(5).uniform((0.5, -2.0, -1.5), (2.2, 2.0, 1.5), size=(20, 3)).T
        p_z = NATURAL.hbar * coef_z.c / Z(z) ** 2
        got = fx.bohm_energy_residual(R, lambda t: 1.0, Z, 0.0, 0.0, p_z, E, NATURAL, (r, th, z))
        assert got.shape == (20,)
        for i in range(20):
            pt = (float(r[i]), float(th[i]), float(z[i]))
            assert got[i] == fx.bohm_energy_residual(R, lambda t: 1.0, Z, 0.0, 0.0, p_z[i], E, NATURAL, pt)

    def test_points_broadcast(self):
        # r, theta and z broadcast together; the residual takes their shape
        res = fx.bohm_energy_residual(
            lambda r: 1.0, lambda t: 1.0, lambda z: 1.0, 0.0, 0.0, 0.0, 0.0, NATURAL,
            (np.array([[1.0], [2.0]]), np.zeros(3), 0.5),
        )
        assert res.shape == (2, 3)
        assert np.allclose(res, (NATURAL.eB * np.array([[1.0], [2.0]])) ** 2 / (8.0 * NATURAL.mass))

    def test_node_rejected(self):
        with pytest.raises(ValueError, match="quantum potential singular"):
            fx.bohm_energy_residual(
                lambda r: 0.0, lambda t: 1.0, lambda z: 1.0, 0.0, 0.0, 0.0, 1.0, NATURAL, (1.0, 0.0, 0.0)
            )
        with pytest.raises(ValueError, match="needs r > 0"):
            fx.bohm_energy_residual(
                lambda r: 1.0, lambda t: 1.0, lambda z: 1.0, 0.0, 0.0, 0.0, 1.0, NATURAL, (0.0, 0.0, 0.0)
            )
