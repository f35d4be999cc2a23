"""Named verification checks over every module's stated properties.

Each check pits a closed form against the independent oracle layer
(adaptive integration, five-point differences, tanh-sinh quadrature) or
against an analytic reduction, and reports a single worst-case number
against a fixed tolerance.  Check names are stable identifiers.  Each
check body is registered by ``@_register(suite, name, tol)``, which
appends it to ``SUITES`` in definition order; the suites group them for
the command-line runner:

    ep        Ermakov-Pinney machinery and zero-current sector amplitudes
    flux      nonzero-current structure, closed forms, field identities
    regular   canonical shell regularisation and the special functions
    spectrum  the three energy ladders and their ordering

Each check of a report gives its name, worst number (``max_residual``),
``tol``, ``direction`` and ``pass``: direction "<=" passes a residual at
or below tol, ">" a separation check whose number exceeds tol.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import ermakov as ek
from . import flux as fx
from . import regular as rg
from . import sectors as sec
from . import specfun as sf
from . import spectrum as sp
from .core import PhysParams, QuantumNumbers, SampledProfile
from .oracle import IVPProblem, _five_point, _five_point_at, fd_residual, integrate_ivp, quad_singular

NATURAL = PhysParams()  # hbar = m = e = B = 1
BETA_ONE = PhysParams(B=2.0)  # beta = 1


@dataclass
class CheckResult:
    name: str
    max_residual: float
    tol: float
    passed: bool
    direction: str = "<="  # "<=" bounded residual, ">" separation checks

    @classmethod
    def bounded(cls, name: str, value: float, tol: float, direction: str = "<=") -> "CheckResult":
        passed = value <= tol if direction == "<=" else value > tol
        return cls(name, float(value), float(tol), bool(passed), direction)

    def with_tol(self, tol: float) -> "CheckResult":
        return CheckResult.bounded(self.name, self.max_residual, tol, self.direction)


# suite -> its checks in definition order, filled by _register
SUITES: dict[str, tuple] = {}


def _register(suite: str, name: str, tol: float, direction: str = "<="):
    """Register the body, which returns its worst-case number, as check ``name``.

    The registered function keeps the body's ``__name__`` and reports a
    CheckResult against ``tol``; direction=">" marks a separation check.
    """

    def register(body):
        @functools.wraps(body)
        def check():
            return CheckResult.bounded(name, body(), tol, direction)

        SUITES[suite] = SUITES.get(suite, ()) + (check,)
        return check

    return register


def _worst(values, pick=np.max) -> float:
    """The largest of values (the smallest with pick=np.min); nan if any value is nan.

    Every check that reduces several residuals goes through here.  Python's
    max and min, and max(worst, x) from worst = 0.0, drop a nan that does
    not come first, so a check whose residuals are nan would pass; numpy's
    max and min propagate it, and nan fails both directions of the gate.
    """
    return float(pick(np.array(list(values), dtype=float)))


# ---------------------------------------------------------------------------
# ep suite: invariants and Pinney residuals of the separated sectors
# ---------------------------------------------------------------------------

_EP_COEF_SETS = ((1.0, 1.0, 0.0), (2.0, 1.0, 0.5), (1.5, 1.5, -1.0))


@_register("ep", "ep.invariant_constancy", 1e-8)
def check_invariant_constancy():
    """Ermakov-Lewis invariant constant along u1 for the radial pair (a=0, beta=1)."""
    pair = sec.radial_basis(0, BETA_ONE)
    r = np.linspace(0.2, 3.0, 600)
    v1, v2, d1, d2 = pair.values(r)
    spreads = []
    for A, B, D in _EP_COEF_SETS:
        coef = ek.ep_coefficients(A, B, D, pair.wronskian)
        sigma = ek.pinney_sigma(coef, v1, v2)
        dsigma = ek.pinney_sigma_prime(coef, v1, v2, d1, d2, sigma)
        for y, dy in ((v1, d1), (v2, d2)):
            inv = ek.ermakov_invariant(y, dy, sigma, dsigma, coef.c**2)
            spreads.append((inv.max() - inv.min()) / abs(inv.mean()))
    return _worst(spreads)


def _pinney_residual(sector: str, h: float, refine: bool = False) -> float:
    """Pinney residual of the radial, theta or axial amplitude at grid step h.

    At h = 5e-3 truncation has fallen to the rounding floor, about 3e-10.
    refine drops the grid's end points and halves its step, so both
    residuals are maxima over the step-h grid's interior.
    """
    if sector == "radial":
        pair = sec.radial_basis(0, BETA_ONE)
        coef = ek.ep_coefficients(0.25, 0.25, 0.0, pair.wronskian)
        sigma, lo, hi = ek.pinney_amplitude(pair, coef), 0.2, 1.5
        omega_sq = lambda q: sec.radial_kappa_sq(0, BETA_ONE) - (BETA_ONE.beta * q) ** 2
    else:
        omega, A, B, D = (1.0, 1.0, 0.8, 0.2) if sector == "theta" else (1.2, 0.9, 0.7, -0.1)
        coef = ek.ep_coefficients(A, B, D, omega)
        sigma, lo, hi = sec.trig_amplitude(coef, omega), 0.0, 2.0 * math.pi
        omega_sq = lambda q: omega**2 + 0.0 * np.asarray(q)
    grid = np.arange(lo, hi, h)
    if refine:
        grid = np.linspace(grid[1], grid[-2], 2 * len(grid) - 5)
    return ek.pinney_residual(sigma, omega_sq, coef.c, grid)


@_register("ep", "ep.pinney_residual_radial", 1e-6)
def check_pinney_residual_radial():
    return _pinney_residual("radial", 5e-3)


@_register("ep", "ep.pinney_residual_theta", 1e-6)
def check_pinney_residual_theta():
    return _pinney_residual("theta", 5e-3)


@_register("ep", "ep.pinney_residual_axial", 1e-6)
def check_pinney_residual_axial():
    return _pinney_residual("axial", 5e-3)


@_register("ep", "ep.pinney_convergence", 0.5)
def check_pinney_convergence():
    """Halving the step from 2e-2 scales each sector residual by ~16 (fourth order)."""
    return _worst(
        abs(_pinney_residual(sector, 2e-2) / _pinney_residual(sector, 2e-2, refine=True) - 16.0)
        for sector in ("radial", "theta", "axial")
    )


@_register("ep", "ep.wronskian_constancy", 1e-8)
def check_wronskian_constancy():
    pair = sec.radial_basis(0, BETA_ONE)
    r = np.linspace(0.2, 3.0, 400)
    w = pair.wronskian_at(r)
    mid = w[len(w) // 2]
    return float(np.max(np.abs(w - mid)) / abs(mid))


@_register("ep", "sectors.omega_theta_axis", 1e-12)
def check_omega_theta_axis():
    freqs = {l: sec.sector_frequencies(1.0, QuantumNumbers(0, l, 0.0), NATURAL) for l in (-3, 1, 5)}
    return _worst(abs(float(f.omega_theta_sq(0.0)) - l * l) for l, f in freqs.items())


@_register("ep", "sectors.energy_el_degeneracy", 1e-14)
def check_energy_el_degeneracy():
    energies = sp.energy(sp.SpectrumModel.EL, 2, np.arange(0, 11), 0.5, NATURAL)
    return _worst(energies) - _worst(energies, np.min)


@_register("ep", "sectors.energy_el_values", 1e-12)
def check_energy_el_values():
    got = sp.energy(sp.SpectrumModel.EL, [0, 2, 0], [0, 5, 0], [0.0, 0.0, 2.0], NATURAL)
    return _worst(np.abs(got - [0.5, 2.5, 2.5]))


# ---------------------------------------------------------------------------
# flux suite
# ---------------------------------------------------------------------------

def _reference_flux_context() -> fx.FluxContext:
    """Lambda = 1 (l = 0, phi = 1), E_pi = 10, theta0 = 0, natural units."""
    return fx.flux_context_from_lambda(1.0, 0, 10.0, 0.0, NATURAL)


def _closed_form_initial_state(ctx: fx.FluxContext):
    lam, E = ctx.Lambda, ctx.E_pi
    pi0 = 8.0 * lam / E
    dpi0 = -16.0 * lam**1.5 * math.sqrt(ctx.discriminant) / E**2
    return pi0, -dpi0 / (2.0 * pi0)


def _uw_solution(ctx: fx.FluxContext, C_theta, y0, end, rtol, atol, max_step):
    """Dense Dormand-Prince solution of the coupled (pi, w) flow on [0, end]."""

    rhs = lambda y, t: fx.uw_flow(y, ctx, C_theta)
    return integrate_ivp(IVPProblem(rhs, y0, (0.0, end), rtol, atol, max_step=max_step))


@_register("flux", "flux.uw_vs_closed", 1e-6)
def check_uw_vs_closed():
    """Integrating the coupled system (C_theta = 0) reproduces the closed form."""
    ctx = _reference_flux_context()
    period = 2.0 * math.pi / (2.0 * math.sqrt(ctx.Lambda))
    sol = _uw_solution(ctx, 0.0, _closed_form_initial_state(ctx), period, 1e-11, 1e-13, 0.02)
    th = np.linspace(0.0, period, 800)
    return np.max(np.abs(sol(th)[:, 0] - fx.pi_theta_closed(th, ctx)))


@_register("flux", "flux.action_derivative", 0.8)
def check_action_derivative():
    """Five-point dS/dtheta - hbar*phi matches pi_theta at O(h^4); below h = 1e-2 rounding takes over."""
    ctx = _reference_flux_context()
    pts = np.linspace(0.05, 3.0, 37)
    errs = []
    for h in (4e-2, 2e-2, 1e-2):
        dS = _five_point_at(lambda t: fx.s_theta_closed(t, ctx), pts, h)[1]
        errs.append(np.max(np.abs(dS - ctx.params.hbar * ctx.phi - fx.pi_theta_closed(pts, ctx))))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    return _worst(abs(r - 16.0) for r in ratios)


@_register("flux", "flux.nonlinpie_closed_form", 1e-5)
def check_nonlinpie_closed_form():
    """Closed-form pi substituted into the master equation, five-point step 1e-3."""
    ctx = _reference_flux_context()
    pts = np.linspace(0.05, 3.0, 301)
    p0, pp, ppp = _five_point_at(lambda t: fx.pi_theta_closed(t, ctx), pts, 1e-3)
    return np.max(np.abs(fx.nonlinpie_residual(p0, pp, ppp, ctx, 0.0)))


@_register("flux", "flux.uw_nonzero_current", 1e-5)
def check_uw_nonzero_current():
    """C_theta != 0 trajectory of the coupled system satisfies the master equation.

    Run at r = 1, where the two current-coupling conventions (r C in the
    first-order system, r^2 C in the master equation) coincide.  pi' comes from the balance relation along the trajectory;
    pi'' is a five-point difference (step 1e-3) of that momentum derivative.
    """
    ctx = fx.FluxContext(r=1.0, l=1, E_pi=12.0, theta0=0.0, params=BETA_ONE)
    C_theta = 0.4
    sol = _uw_solution(ctx, C_theta, [1.2, 0.3], 0.6, 1e-12, 1e-14, 0.005)
    pts = np.linspace(0.05, 0.55, 101)
    dpi_of = lambda t: fx.uw_flow(np.moveaxis(sol(t), -1, 0), ctx, C_theta)[0]
    p0 = sol(pts)[:, 0]
    pp, ppp = _five_point_at(dpi_of, pts, 1e-3)[:2]
    return np.max(np.abs(fx.nonlinpie_residual(p0, pp, ppp, ctx, C_theta)))


@_register("flux", "flux.f_linear_flow", 1e-8)
def check_f_linear_flow():
    """C_theta = 0: integrating-factor solution of the F-flow equals the first integral."""
    E_pi, lam = 10.0, 1.0
    target = lambda p: E_pi * p - 4.0 * p * p - 4.0 * lam  # (pi'/pi)^2
    pi0 = 0.8
    F0 = pi0 * target(pi0)  # F = (pi'/pi)^2 * pi
    errors = []
    for p in (0.9, 1.2, 1.5, 1.9):
        integral = quad_singular(lambda s, _i: -4.0 + 4.0 * lam / (s * s), pi0, p, 1e-12)
        F_if = p * p * (F0 / pi0**2 + integral)
        errors.append(abs(F_if / p - target(p)))
    return _worst(errors)


@_register("flux", "flux.f_branch_split", 1e-12)
def check_f_branch_split():
    """Sign branches differ by exactly -8 r^2 C sqrt(F/pi)/pi."""
    ctx = fx.FluxContext(r=1.3, l=1, E_pi=15.0, theta0=0.0, params=PhysParams(B=1.4))
    errors = []
    for F, p, C in ((1.0, 0.9, 0.4), (2.0, 1.3, -0.7), (0.3, 2.1, 1.1)):
        split = fx.f_branch_flow(F, p, ctx, C, +1) - fx.f_branch_flow(F, p, ctx, C, -1)
        want = -8.0 * ctx.r**2 * C * math.sqrt(F / p) / p
        errors.append(abs(split - want))
    return _worst(errors)


@_register("flux", "flux.quadrature_arcsin", 1e-8)
def check_quadrature_arcsin():
    """kappa = 0 first-integral quadrature against the arcsin reduction."""
    E_th, l = 2.0, 2
    Ts = (0.2, 0.45, 0.7, 0.9, 0.99)
    got = fx.theta_first_integral_quadrature(np.array(Ts), E_th, l, 0.0, 0.7).tolist()
    want = ((math.asin(l * T / math.sqrt(2 * E_th)) - math.pi / 2) / l for T in Ts)
    return _worst(abs(a - b) for a, b in zip(got, want))


@_register("flux", "flux.quadrature_roundtrip", 1e-6)
def check_quadrature_roundtrip():
    """kappa != 0: invert theta(Theta) and compare (Theta')^2 to the radicand.

    The inversion slope is the oracle's fourth-order five-point stencil
    on a grid of step 2e-3; the quadrature values are good to about
    1e-16, so the residual, about 3e-10, is the stencil's truncation error.
    """
    E_th, l, kap, phi = 2.0, 1, 0.5, 0.7
    h = 2e-3
    Ts = np.arange(0.7, 0.9 + h / 2, h)
    th = fx.theta_first_integral_quadrature(Ts, E_th, l, kap, phi, tol=1e-12)
    dth_dT = _five_point(th, h)[1]
    rad = fx.first_integral_radicand(Ts[2:-2], E_th, l, kap, phi)
    return np.max(np.abs(1.0 / dth_dT**2 - rad))


@_register("flux", "flux.theta_reconstruction", 1e-5)
def check_theta_reconstruction():
    """Theta rebuilt from w satisfies the first integral (phi = 0 branch)."""
    ctx = fx.FluxContext(r=0.0, l=1, E_pi=10.0, theta0=0.0, params=NATURAL)
    pi0, w0 = _closed_form_initial_state(ctx)
    sol = _uw_solution(ctx, 0.0, [pi0, w0], math.pi, 1e-11, 1e-13, 0.01)
    grid = np.arange(0.0, math.pi, 5e-4)
    kappa_theta = 1.0
    Theta = fx.theta_from_w(grid, sol(grid)[:, 1], math.sqrt(kappa_theta / pi0))
    E_theta = kappa_theta * ctx.E_pi / 8.0
    form = lambda T, dT, d2T, q: dT**2 - fx.first_integral_radicand(T, E_theta, ctx.l, kappa_theta, 0.0)
    return fd_residual(SampledProfile(grid, Theta), form).max_abs


def _zero_current_fields():
    """Separable fields with constant sectorial fluxes (all C_i = 0)."""
    n_pts = 50
    r_ax = np.linspace(0.5, 2.0, n_pts)
    th_ax = np.linspace(0.1, 1.2, n_pts)
    z_ax = np.linspace(-0.8, 0.8, n_pts)
    # every field depends on r alone, so each is one column along r
    R3 = r_ax[:, None, None]
    R = np.exp(-(R3**2) / 2.0)
    rho = R**2
    K_r, K_th, K_z = 0.4, 0.3, 0.2
    p_r = K_r / (R3 * R**2)
    p_th = NATURAL.eB * R3 / 2.0 + K_th
    return r_ax, th_ax, z_ax, rho, p_r, p_th, K_z


@_register("flux", "flux.divergence_zero_current", 1e-5)
def check_divergence_zero_current():
    return fx.divergence_residual(*_zero_current_fields(), NATURAL)


@_register("flux", "flux.divergence_nonzero_current", 1e-5)
def check_divergence_nonzero_current():
    """Fields built from the C_i != 0 continuity first integrals.

    The radial sector carries the Gaussian curvature, so the grid is
    refined along r; the theta and z flux profiles are linear there and
    the five-point stencil differences them exactly.
    """
    C_r, C_th, C_z = 0.3, -0.5, 0.2
    r_ax = np.linspace(0.5, 2.0, 401)
    th_ax = np.linspace(0.1, 1.2, 7)
    z_ax = np.linspace(-0.8, 0.8, 7)
    # open-mesh columns along r, theta and z, which divergence_residual broadcasts
    R3, TH3, Z3 = np.ix_(r_ax, th_ax, z_ax)
    Rsq = np.exp(-(R3**2))
    rho = Rsq
    K_r, K_th, K_z = 0.4, 0.3, 0.2
    G_r = -np.exp(-(R3**2)) / 2.0  # integral of r R^2
    p_r = (K_r + C_r * G_r) / (R3 * Rsq)
    p_th = NATURAL.eB * R3 / 2.0 + K_th + R3 * C_th * TH3
    p_z = K_z + C_z * Z3
    return fx.divergence_residual(r_ax, th_ax, z_ax, rho, p_r, p_th, p_z, NATURAL)


@_register("flux", "flux.bohm_residual_el", 1e-5)
def check_bohm_residual_el():
    """Zero-current stationary fields satisfy the energy balance at E_EL.

    Quantised azimuthal sector (l = 0), oscillatory axial Pinney sector
    carrying p_z = hbar c_z / Z^2, radial Kummer amplitude; 20 points,
    evaluated together.
    """
    n_r, k_z = 1, 1.3
    E = sp.energy(sp.SpectrumModel.EL, n_r, 0, k_z, NATURAL)
    beta = NATURAL.beta

    def R(r):
        x = beta * r * r
        return np.exp(-x / 2.0) * sf.hyp1f1(-n_r, 1.0, x)

    coef_z = ek.ep_coefficients(1.1, 0.9, -0.2, k_z)
    Z = sec.trig_amplitude(coef_z, k_z)
    rng = random.Random(7)
    r, th, z = np.array([[rng.uniform(0.5, 2.2), rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5)] for _ in range(20)]).T
    p_z = NATURAL.hbar * coef_z.c / Z(z) ** 2
    return _worst(np.abs(fx.bohm_energy_residual(R, lambda t: 1.0, Z, 0.0, 0.0, p_z, E, NATURAL, (r, th, z))))


@_register("flux", "flux.bohm_residual_cbr", 1e-5)
def check_bohm_residual_cbr():
    """Shell-regularised fields satisfy the energy balance at E_CBR.

    p_i = hbar/(2 q_i), radial Langer-corrected amplitude, axial Bessel
    amplitude, complex Whittaker azimuthal amplitude.
    """
    qn = QuantumNumbers(1, 1, 1.0)
    E = sp.energy(sp.SpectrumModel.CBR, qn.n_r, qn.l, qn.k_z, NATURAL)
    R = rg.radial_regularised(qn, NATURAL)
    Z = rg.axial_regularised(qn.k_z)
    hb = NATURAL.hbar
    residuals = []
    for r, th, z in ((0.9, 0.4, 0.6), (1.4, 0.8, 1.1), (0.7, 1.5, 2.0), (1.1, -0.9, 0.9)):
        phi = NATURAL.beta * r * r
        Theta = lambda t: rg.azimuthal_whittaker(t, qn.l, phi, 1.0, 0.3 + 0.2j)
        res = fx.bohm_energy_residual(
            R, Theta, Z, hb / (2 * r), hb / (2 * r * th), hb / (2 * z), E, NATURAL, (r, th, z)
        )
        residuals.append(abs(res))
    return _worst(residuals)


def _branch_draws(seed: int, n: int, span: float):
    """n seeded draws (c_r, c_z) uniform on [-span, span), each with its branch closure."""
    rng = random.Random(seed)
    for _ in range(n):
        c_r, c_z = rng.uniform(-span, span), rng.uniform(-span, span)
        yield c_r, c_z, *rg.branch_assignment(c_r, c_z)


@_register("flux", "flux.current_zero_sum", 1e-14)
def check_current_zero_sum():
    """CurrentBranch constructors preserve the zero-sum constraint."""
    draws = _branch_draws(11, 200, 5)
    return _worst(abs(branch.C_r + branch.C_theta + branch.C_z) for _, _, branch, _ in draws)


# ---------------------------------------------------------------------------
# regular suite (plus the specfun identities it relies on)
# ---------------------------------------------------------------------------

@_register("regular", "regular.radial_ode", 1e-6)
def check_radial_ode():
    """chi = sqrt(r) R satisfies the Langer-corrected radial equation."""
    residuals = []
    for n_r, l in ((0, 0), (1, 1), (2, 3)):
        qn = QuantumNumbers(n_r, l, 0.0)
        labels = rg.RegularisedLabels.from_quantum_numbers(qn)
        k2 = labels.kappa_r_sq(BETA_ONE)
        nu = labels.nu
        R = rg.radial_regularised(qn, BETA_ONE)
        grid = np.arange(0.2, 3.0, 2e-3)
        residuals.append(fd_residual(
            SampledProfile(grid, np.sqrt(grid) * R(grid)),
            lambda y, dy, d2y, q: d2y + (k2 - (BETA_ONE.beta * q) ** 2 - (nu * nu - 0.25) / q**2) * y,
        ).max_abs)
    return _worst(residuals)


@_register("regular", "regular.axial_ode", 1e-6)
def check_axial_ode():
    k_z = 1.0
    grid = np.arange(0.2, 5.0, 2e-3)
    return fd_residual(
        SampledProfile(grid, rg.axial_regularised(k_z)(grid)),
        lambda y, dy, d2y, q: -d2y + y / (4.0 * q * q) - k_z * k_z * y,
    ).max_abs


@_register("regular", "regular.whittaker_ode", 1e-6)
def check_whittaker_azimuthal_ode():
    """Complex Whittaker combination satisfies the regularised angular equation."""
    l, phi = 1, 0.5
    grid = np.arange(0.2, 2.0, 1e-3)
    return fd_residual(
        SampledProfile(grid, rg.azimuthal_whittaker(grid, l, phi, 1.0, 0.3 + 0.2j)),
        lambda y, dy, d2y, q: d2y + (l * l + phi / q - 1.0 / (4.0 * q * q)) * y,
    ).max_abs


@_register("regular", "regular.obstruction", 1e-6, direction=">")
def check_obstruction():
    """For phi != 0 the azimuthal amplitude is genuinely complex."""
    grid = np.linspace(0.2, 2.0, 400)
    Theta = rg.azimuthal_whittaker(grid, 1, 0.5, 1.0, 0.0)
    return float(np.max(np.abs(Theta.imag)) / np.max(np.abs(Theta)))


@_register("regular", "regular.local_branch_logderiv", 1e-6)
def check_local_branch_logderiv():
    """The local branch profile reproduces the flux-scaled log-density flow.

    The window stops at 0.45, a clear distance from the flux-controlled
    singularity at 1/(2 phi) = 0.625 where third derivatives blow up.
    """
    p = rg.LocalBranchParams(A_theta=1.0, phi=0.8, kappa=0.3)
    ths = np.arange(0.2, 0.45, 1e-3)
    fd = _five_point_at(lambda t: np.log(rg.theta_local_branch(t, p) ** 2), ths, 1e-4)[1]
    return np.max(np.abs(fd - rg.local_branch_log_density_slope(ths, p)))


@_register("regular", "regular.local_branch_kappa0", 1e-14)
def check_local_branch_kappa0():
    """kappa = 0 limit equals the zero-current reduction exactly."""
    p0 = rg.LocalBranchParams(A_theta=2.0, phi=0.8, kappa=0.0)
    ths = np.arange(0.05, 0.6, 1e-3)
    lhs = rg.theta_local_branch(ths, p0)
    rhs = math.sqrt(2.0) * np.sqrt(np.abs(ths)) * np.abs(1.0 - 2.0 * 0.8 * ths) ** (-0.5)
    return float(np.max(np.abs(lhs - rhs)))


@_register("regular", "regular.branch_bookkeeping", 1e-14)
def check_branch_bookkeeping():
    """1000 random branch closures: zero sum at machine precision, sign rules hold."""
    sums = []
    ok = True
    for c_r, c_z, branch, label in _branch_draws(3, 1000, 4):
        sums.append(abs(branch.C_r + branch.C_theta + branch.C_z))
        if c_z == -c_r:
            ok &= label == "compensating"
        elif c_r < 0 and c_z < 0:
            ok &= label == "componentwise" and branch.C_theta > 0
        elif branch.C_theta < 0:
            ok &= label == "inadmissible"
        else:
            ok &= label == "mixed"
    fixed = (
        rg.branch_assignment(-1.0, -2.0)[1] == "componentwise"
        and rg.branch_assignment(-1.0, 1.0)[1] == "compensating"
        and rg.branch_assignment(1.0, 1.0)[1] == "inadmissible"
    )
    if not (ok and fixed):
        return math.inf  # classification failure must never be masked by a tol override
    return _worst(sums)


@_register("regular", "regular.damped_profiles", 1e-8)
def check_damped_profiles():
    """Damped branch profiles: log-derivative identity and Gaussian tail."""
    errors = []
    for z, C_z in ((1.0, -1.0), (0.7, -2.5)):
        Z, dZ, _ = _five_point_at(lambda t: rg.damped_axial_profile(t, C_z, NATURAL), z, 1e-4)
        errors.append(abs(dZ / Z - (1.0 / (2 * z) + C_z * z / NATURAL.hbar)))
    gauss = quad_singular(lambda r, _i: r * rg.damped_radial_profile(r, -1.0, NATURAL), 0.0, 9.0, 1e-12)
    errors.append(abs(gauss - 0.5))
    if not (rg.radial_profile_normalisable(-0.3) and not rg.radial_profile_normalisable(0.3)):
        return math.inf
    return _worst(errors)


@_register("regular", "specfun.kummer_contiguity", 1e-10)
def check_kummer_contiguity():
    """b F(a,b;x) - b F(a-1,b;x) - x F(a,b+1;x) = 0 over a parameter grid.

    The 36 functions F(a, b), F(a - 1, b) and F(a, b + 1) of the 12
    (a, b) rows are one real and one complex broadcast hyp1f1 call over
    the x grids; each function's values are those of its own call.
    """
    a, b = (v.reshape(-1, 1) for v in np.meshgrid([0.3, 1.0, 2.5, -0.7], [0.5, 1.7, 3.0], indexing="ij"))
    errors = []
    for x in (np.array([-10.0, -2.0, 0.3, 4.0, 10.0]), np.array([5j, 10j, 3.0 + 4.0j])):
        f_ab, f_am, f_bp = np.split(sf.hyp1f1(np.vstack([a, a - 1.0, a]), np.vstack([b, b, b + 1.0]), x), 3)
        resid = b * f_ab - b * f_am - x * f_bp
        scale = np.abs([b * f_ab, b * f_am, x * f_bp]).max(axis=0)
        errors.extend((np.abs(resid) / np.maximum(scale, 1e-300)).ravel())
    return _worst(errors)


@_register("regular", "specfun.whittaker_equation", 1e-7)
def check_whittaker_equation_grid():
    """M_{kappa,mu} satisfies the Whittaker equation on sample parameter sets.

    Sampled along x = s t, real (s = 1) and imaginary (s = 2i), so
    d^2/dx^2 = s^-2 d^2/dt^2.  Unit-normalised profiles (the equation is
    linear, so the absolute residual gate is meaningful only at a fixed
    amplitude scale).
    """
    residuals = []
    for kappa, mu, s, t in (
        (0.3, 0.8, 1.0, np.arange(0.5, 2.5, 2e-3)),
        (-0.3j, 1.0 / math.sqrt(2.0), 2j, np.arange(0.3, 2.0, 2e-3)),
    ):
        def form(y, dy, d2y, q):
            x = s * q
            return d2y / s**2 + (-0.25 + kappa / x + (0.25 - mu * mu) / x**2) * y

        vals = np.asarray(sf.whittaker_m(kappa, mu, s * t))
        residuals.append(fd_residual(SampledProfile(t, vals / np.max(np.abs(vals))), form).max_abs)
    return _worst(residuals)


@_register("regular", "specfun.bessel_half_order", 1e-10)
def check_bessel_half_order():
    """J_{1/2}(x) = sqrt(2/(pi x)) sin x to 1e-10 relative on [0.1, 20]."""
    xs = np.linspace(0.1, 20.0, 703)
    got = np.asarray(sf.bessel_j(0.5, xs))
    want = np.sqrt(2.0 / (math.pi * xs)) * np.sin(xs)
    denom = np.maximum(np.abs(want), 1e-8)
    return float(np.max(np.abs(got - want) / denom))


@_register("regular", "specfun.gamma_reflection", 1e-10)
def check_gamma_reflection():
    """Gamma(z) Gamma(1-z) sin(pi z) / pi = 1 on (0, 1)."""
    return _worst(
        abs(math.exp(sf.ln_gamma(z).real + sf.ln_gamma(1.0 - z).real) * math.sin(math.pi * z) / math.pi - 1.0)
        for z in np.linspace(0.05, 0.95, 19)
    )


@_register("regular", "specfun.whittaker_wronskian", 1e-6, direction=">")
def check_whittaker_wronskian():
    """M and W are independent: numerical Wronskian bounded away from zero."""
    wronskians = []
    for kappa, mu, x in ((0.0, 1 / math.sqrt(2), 1.0), (-0.25j, 1 / math.sqrt(2), 0.8j + 0.2)):
        (m, w), (dm, dw), _ = _five_point_at(lambda t: sf.whittaker_mw(kappa, mu, t), x, 1e-3)
        wronskians.append(abs(m * dw - w * dm))
    return _worst(wronskians, np.min)


# ---------------------------------------------------------------------------
# spectrum suite
# ---------------------------------------------------------------------------

@_register("spectrum", "spectrum.reference_values", 1e-12)
def check_spectrum_reference_values():
    cases = (
        (sp.energy(sp.SpectrumModel.EL, 0, 0, 0.0, NATURAL), 0.5),
        (sp.energy(sp.SpectrumModel.CBR, 0, 0, 0.0, NATURAL), 0.75),
        (sp.energy(sp.SpectrumModel.CBR, 0, 1, 0.0, NATURAL), 0.5 + math.sqrt(5.0) / 4.0),
    )
    return _worst(abs(got - want) for got, want in cases)


@_register("spectrum", "spectrum.ordering_sweep", 0.0)
def check_spectrum_ordering():
    return float(np.count_nonzero(sp.spectral_ordering_check(*sp.default_ordering_grid(), NATURAL)))


@_register("spectrum", "spectrum.splitting_positive", 0.0, direction=">")
def check_splitting_positive():
    """E_CBR - E_EL strictly positive for every l (eB > 0)."""
    l = np.arange(-10, 11)
    e_el = sp.energy(sp.SpectrumModel.EL, 2, l, 0.7, NATURAL)
    return _worst(sp.energy(sp.SpectrumModel.CBR, 2, l, 0.7, NATURAL) - e_el, np.min)


@_register("spectrum", "spectrum.axial_term_shared", 1e-12)
def check_axial_term_shared():
    """The k_z term is model-independent."""
    axial = NATURAL.hbar**2 * 1.7**2 / (2.0 * NATURAL.mass)
    l = np.array([0, 2, -3])
    return _worst(
        np.abs(sp.energy(model, 1, l, 1.7, NATURAL) - sp.energy(model, 1, l, 0.0, NATURAL) - axial)
        for model in sp.SpectrumModel
    )


def run_suite(suite: str, tol_override: float | None = None) -> dict:
    """Run one suite (or 'all') and return the JSON-ready report."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    checks = []
    for name in names:
        for fn in SUITES[name]:
            result = fn()
            if tol_override is not None and result.direction == "<=":
                result = result.with_tol(tol_override)
            checks.append(result)
    return {
        "suite": suite,
        "checks": [
            {"name": c.name, "max_residual": c.max_residual, "tol": c.tol, "direction": c.direction, "pass": c.passed}
            for c in checks
        ],
        "pass": all(c.passed for c in checks),
    }
