"""Named verification checks over every module's stated properties.

Each check pits a closed form against the independent oracle layer
(adaptive integration, central differences, tanh-sinh quadrature) or
against an analytic reduction, and reports a single worst-case number
against a fixed tolerance.  Check names are stable identifiers; suites
group them for the command-line runner:

    ep        Ermakov-Pinney machinery and zero-current sector amplitudes
    flux      nonzero-current structure, closed forms, field identities
    regular   canonical shell regularisation and the special functions
    spectrum  the three energy ladders and their ordering
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ermakov as ek
from . import flux as fx
from . import regular as rg
from . import sectors as sec
from . import specfun as sf
from . import spectrum as sp
from .core import PhysParams, QuantumNumbers, SampledProfile
from .oracle import IVPProblem, fd_residual, integrate_ivp, quad_singular

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
    def bounded(cls, name: str, value: float, tol: float) -> "CheckResult":
        return cls(name, float(value), float(tol), bool(value <= tol))

    @classmethod
    def separated(cls, name: str, value: float, tol: float) -> "CheckResult":
        return cls(name, float(value), float(tol), bool(value > tol), direction=">")

    def with_tol(self, tol: float) -> "CheckResult":
        passed = self.max_residual <= tol if self.direction == "<=" else self.max_residual > tol
        return CheckResult(self.name, self.max_residual, tol, passed, self.direction)


# ---------------------------------------------------------------------------
# ep suite: invariants and Pinney residuals of the separated sectors
# ---------------------------------------------------------------------------

_EP_COEF_SETS = ((1.0, 1.0, 0.0), (2.0, 1.0, 0.5), (1.5, 1.5, -1.0))


def check_invariant_constancy() -> CheckResult:
    """Ermakov-Lewis invariant constant along u1 for the radial pair (a=0, beta=1)."""
    pair = sec.radial_basis(0, BETA_ONE)
    r = np.linspace(0.2, 3.0, 600)
    v1, v2, d1, d2 = pair.values(r)
    worst = 0.0
    for A, B, D in _EP_COEF_SETS:
        coef = ek.ep_coefficients(A, B, D, pair.wronskian)
        sigma = ek.pinney_sigma(coef, v1, v2)
        dsigma = ek.pinney_sigma_prime(coef, v1, v2, d1, d2, sigma)
        for y, dy in ((v1, d1), (v2, d2)):
            inv = ek.ermakov_invariant(y, dy, sigma, dsigma, coef.c**2)
            worst = max(worst, float((inv.max() - inv.min()) / abs(inv.mean())))
    return CheckResult.bounded("ep.invariant_constancy", worst, 1e-8)


def _sector_amplitudes():
    """The three sector amplitudes used by the residual checks.

    Scales are modest so the h = 1e-3 central-difference truncation sits
    well below the 1e-6 gate.
    """
    pair = sec.radial_basis(0, BETA_ONE)
    coef_r = ek.ep_coefficients(0.25, 0.25, 0.0, pair.wronskian)
    sigma_r = ek.pinney_amplitude(pair, coef_r)
    freq_r = ek.FrequencyProfile(lambda q: sec.radial_kappa_sq(0, BETA_ONE) - (BETA_ONE.beta * q) ** 2)

    omega_th = 1.0
    coef_th = ek.ep_coefficients(1.0, 0.8, 0.2, omega_th)
    sigma_th = sec.theta_amplitude_trig(coef_th, omega_th)
    freq_th = ek.FrequencyProfile(lambda q: omega_th**2 + 0.0 * np.asarray(q))

    k_z = 1.2
    coef_z = ek.ep_coefficients(0.9, 0.7, -0.1, k_z)
    sigma_z = sec.axial_amplitude_trig(coef_z, k_z)
    freq_z = ek.FrequencyProfile(lambda q: k_z**2 + 0.0 * np.asarray(q))

    return (
        ("radial", sigma_r, freq_r, coef_r.c, (0.2, 1.5)),
        ("theta", sigma_th, freq_th, coef_th.c, (0.0, 2.0 * math.pi)),
        ("axial", sigma_z, freq_z, coef_z.c, (0.0, 2.0 * math.pi)),
    )


def _pinney_residual_check(which: str) -> CheckResult:
    for name, sigma, freq, c, (lo, hi) in _sector_amplitudes():
        if name == which:
            res = ek.pinney_residual(sigma, freq, c, np.arange(lo, hi, 1e-3))
            return CheckResult.bounded(f"ep.pinney_residual_{name}", res, 1e-6)
    raise KeyError(which)


def check_pinney_residual_radial() -> CheckResult:
    return _pinney_residual_check("radial")


def check_pinney_residual_theta() -> CheckResult:
    return _pinney_residual_check("theta")


def check_pinney_residual_axial() -> CheckResult:
    return _pinney_residual_check("axial")


def check_pinney_convergence() -> CheckResult:
    """Halving the step scales each sector residual by ~4 (second order)."""
    worst = 0.0
    for name, sigma, freq, c, (lo, hi) in _sector_amplitudes():
        r1 = ek.pinney_residual(sigma, freq, c, np.arange(lo, hi, 1e-3))
        r2 = ek.pinney_residual(sigma, freq, c, np.arange(lo, hi, 5e-4))
        worst = max(worst, abs(r1 / r2 - 4.0))
    return CheckResult.bounded("ep.pinney_convergence", worst, 0.5)


def check_wronskian_constancy() -> CheckResult:
    pair = sec.radial_basis(0, BETA_ONE)
    r = np.linspace(0.2, 3.0, 400)
    w = pair.wronskian_at(r)
    mid = w[len(w) // 2]
    value = float(np.max(np.abs(w - mid)) / abs(mid))
    return CheckResult.bounded("ep.wronskian_constancy", value, 1e-8)


def check_omega_theta_axis() -> CheckResult:
    worst = 0.0
    for l in (-3, 1, 5):
        freqs = sec.sector_frequencies(1.0, QuantumNumbers(0, l, 0.0), NATURAL)
        worst = max(worst, abs(float(freqs.omega_theta_sq(0.0)) - l * l))
    return CheckResult.bounded("sectors.omega_theta_axis", worst, 1e-12)


def check_energy_el_degeneracy() -> CheckResult:
    energies = [sec.energy_el(QuantumNumbers(2, l, 0.5), NATURAL) for l in range(0, 11)]
    return CheckResult.bounded("sectors.energy_el_degeneracy", max(energies) - min(energies), 1e-14)


def check_energy_el_values() -> CheckResult:
    cases = (
        (QuantumNumbers(0, 0, 0.0), 0.5),
        (QuantumNumbers(2, 5, 0.0), 2.5),
        (QuantumNumbers(0, 0, 2.0), 2.5),
    )
    worst = max(abs(sec.energy_el(qn, NATURAL) - want) for qn, want in cases)
    return CheckResult.bounded("sectors.energy_el_values", worst, 1e-12)


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


def check_uw_vs_closed() -> CheckResult:
    """Integrating the coupled system (C_theta = 0) reproduces the closed form."""
    ctx = _reference_flux_context()
    pi0, w0 = _closed_form_initial_state(ctx)

    def rhs(y, t):
        return np.array(fx.uw_flow(fx.AzimuthalState(y[0], y[1]), ctx, 0.0))

    period = 2.0 * math.pi / (2.0 * math.sqrt(ctx.Lambda))
    sol = integrate_ivp(IVPProblem(2, rhs, [pi0, w0], (0.0, period), 1e-11, 1e-13, max_step=0.02))
    th = np.linspace(0.0, period, 800)
    err = np.max(np.abs(sol(th)[:, 0] - fx.pi_theta_closed(th, ctx)))
    return CheckResult.bounded("flux.uw_vs_closed", err, 1e-6)


def check_action_derivative() -> CheckResult:
    """Central-difference dS/dtheta - hbar*phi matches pi_theta at O(h^2)."""
    ctx = _reference_flux_context()
    pts = np.linspace(0.05, 3.0, 37)
    errs = []
    for h in (1e-3, 5e-4, 2.5e-4):
        fd = (fx.s_theta_closed(pts + h, ctx) - fx.s_theta_closed(pts - h, ctx)) / (2.0 * h)
        errs.append(np.max(np.abs(fd - ctx.hbar * ctx.phi - fx.pi_theta_closed(pts, ctx))))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    worst = max(abs(r - 4.0) for r in ratios)
    return CheckResult.bounded("flux.action_derivative", worst, 0.8)


def check_nonlinpie_closed_form() -> CheckResult:
    """Closed-form pi substituted into the master equation, FD step 1e-4."""
    ctx = _reference_flux_context()
    h = 1e-4
    pts = np.linspace(0.05, 3.0, 301)
    p0 = fx.pi_theta_closed(pts, ctx)
    pp = (fx.pi_theta_closed(pts + h, ctx) - fx.pi_theta_closed(pts - h, ctx)) / (2 * h)
    ppp = (fx.pi_theta_closed(pts + h, ctx) - 2 * p0 + fx.pi_theta_closed(pts - h, ctx)) / h**2
    res = np.max(np.abs(fx.nonlinpie_residual(p0, pp, ppp, ctx, 0.0)))
    return CheckResult.bounded("flux.nonlinpie_closed_form", res, 1e-5)


def check_uw_nonzero_current() -> CheckResult:
    """C_theta != 0 trajectory of the coupled system satisfies the master equation.

    Run at r = 1, where the two current-coupling conventions (r C in the
    first-order system, r^2 C in the master equation) coincide.  pi' comes from the balance relation along the trajectory;
    pi'' is an honest central difference of that momentum derivative.
    """
    ctx = fx.FluxContext(r=1.0, l=1, beta=1.0, E_pi=12.0, hbar=1.0)
    C_theta = 0.4

    def rhs(y, t):
        return np.array(fx.uw_flow(fx.AzimuthalState(y[0], y[1]), ctx, C_theta))

    sol = integrate_ivp(IVPProblem(2, rhs, [1.2, 0.3], (0.0, 0.6), 1e-12, 1e-14, max_step=0.005))
    h = 1e-4
    pts = np.linspace(0.05, 0.55, 101)

    def dpi_of(t):
        y = sol(t)
        return ctx.r * C_theta - 2.0 * y[:, 1] * y[:, 0]

    p0 = sol(pts)[:, 0]
    pp = dpi_of(pts)
    ppp = (dpi_of(pts + h) - dpi_of(pts - h)) / (2 * h)
    res = np.max(np.abs(fx.nonlinpie_residual(p0, pp, ppp, ctx, C_theta)))
    return CheckResult.bounded("flux.uw_nonzero_current", res, 1e-5)


def check_f_linear_flow() -> CheckResult:
    """C_theta = 0: integrating-factor solution of the F-flow equals the first integral."""
    E_pi, lam = 10.0, 1.0
    target = lambda p: E_pi * p - 4.0 * p * p - 4.0 * lam  # (pi'/pi)^2
    pi0 = 0.8
    F0 = pi0 * target(pi0)  # F = (pi'/pi)^2 * pi
    worst = 0.0
    for p in (0.9, 1.2, 1.5, 1.9):
        integral = quad_singular(lambda s: -4.0 + 4.0 * lam / (s * s), pi0, p, 0.0, 1e-12)
        F_if = p * p * (F0 / pi0**2 + integral)
        worst = max(worst, abs(F_if / p - target(p)))
    return CheckResult.bounded("flux.f_linear_flow", worst, 1e-8)


def check_f_branch_split() -> CheckResult:
    """Sign branches differ by exactly -8 r^2 C sqrt(F/pi)/pi."""
    ctx = fx.FluxContext(r=1.3, l=1, beta=0.7, E_pi=15.0)
    worst = 0.0
    for F, p, C in ((1.0, 0.9, 0.4), (2.0, 1.3, -0.7), (0.3, 2.1, 1.1)):
        split = fx.f_branch_flow(F, p, ctx, C, +1) - fx.f_branch_flow(F, p, ctx, C, -1)
        want = -8.0 * ctx.r**2 * C * math.sqrt(F / p) / p
        worst = max(worst, abs(split - want))
    return CheckResult.bounded("flux.f_branch_split", worst, 1e-12)


def check_quadrature_arcsin() -> CheckResult:
    """kappa = 0 first-integral quadrature against the arcsin reduction."""
    E_th, l = 2.0, 2
    Ts = (0.2, 0.45, 0.7, 0.9, 0.99)
    worst = 0.0
    for T, got in zip(Ts, fx.theta_first_integral_quadrature(np.array(Ts), E_th, l, 0.0, 0.7).tolist()):
        want = (math.asin(l * T / math.sqrt(2 * E_th)) - math.pi / 2) / l
        worst = max(worst, abs(got - want))
    return CheckResult.bounded("flux.quadrature_arcsin", worst, 1e-8)


def check_quadrature_roundtrip() -> CheckResult:
    """kappa != 0: invert theta(Theta) and compare (Theta')^2 to the radicand.

    The inversion slope uses a five-point stencil at a step large enough
    that the ~1e-11 pointwise quadrature noise is not amplified.
    """
    E_th, l, kap, phi = 2.0, 1, 0.5, 0.7
    h = 2e-3
    Ts = np.arange(0.7, 0.9 + h / 2, h)
    th = fx.theta_first_integral_quadrature(Ts, E_th, l, kap, phi, tol=1e-12)
    dth_dT = (th[:-4] - 8 * th[1:-3] + 8 * th[3:-1] - th[4:]) / (12 * h)
    rad = fx.first_integral_radicand(Ts[2:-2], E_th, l, kap, phi)
    err = np.max(np.abs(1.0 / dth_dT**2 - rad))
    return CheckResult.bounded("flux.quadrature_roundtrip", err, 1e-6)


def check_theta_reconstruction() -> CheckResult:
    """Theta rebuilt from w satisfies the first integral (phi = 0 branch)."""
    ctx = fx.FluxContext(r=0.0, l=1, beta=NATURAL.beta, E_pi=10.0)
    pi0, w0 = _closed_form_initial_state(ctx)

    def rhs(y, t):
        return np.array(fx.uw_flow(fx.AzimuthalState(y[0], y[1]), ctx, 0.0))

    sol = integrate_ivp(IVPProblem(2, rhs, [pi0, w0], (0.0, math.pi), 1e-11, 1e-13, max_step=0.01))
    h = 5e-4
    grid = np.arange(0.0, math.pi, h)
    w_prof = SampledProfile("theta", grid, sol(grid)[:, 1])
    kappa_theta = 1.0
    theta_prof = fx.theta_from_w(w_prof, math.sqrt(kappa_theta / pi0))
    T = theta_prof.values
    dT = (T[2:] - T[:-2]) / (2 * h)
    rad = fx.first_integral_radicand(T[1:-1], kappa_theta * ctx.E_pi / 8.0, ctx.l, kappa_theta, 0.0)
    err = np.max(np.abs(dT**2 - rad))
    return CheckResult.bounded("flux.theta_reconstruction", err, 1e-5)


def _zero_current_fields(n_pts=50):
    """Separable fields with constant sectorial fluxes (all C_i = 0)."""
    r_ax = np.linspace(0.5, 2.0, n_pts)
    th_ax = np.linspace(0.1, 1.2, n_pts)
    z_ax = np.linspace(-0.8, 0.8, n_pts)
    R3, TH3, Z3 = np.meshgrid(r_ax, th_ax, z_ax, indexing="ij")
    R = np.exp(-(R3**2) / 2.0)
    rho = R**2
    K_r, K_th, K_z = 0.4, 0.3, 0.2
    p_r = K_r / (R3 * R**2)
    p_th = NATURAL.eB * R3 / 2.0 + K_th
    p_z = K_z * np.ones_like(Z3)
    return r_ax, th_ax, z_ax, rho, p_r, p_th, p_z


def check_divergence_zero_current() -> CheckResult:
    res = fx.divergence_residual(*_zero_current_fields(50), NATURAL)
    return CheckResult.bounded("flux.divergence_zero_current", res, 1e-5)


def check_divergence_nonzero_current() -> CheckResult:
    """Fields built from the C_i != 0 continuity first integrals.

    The radial sector carries the Gaussian curvature, so the grid is
    refined along r; the theta and z flux profiles are linear there and
    centrally differenced exactly.
    """
    C_r, C_th, C_z = 0.3, -0.5, 0.2
    r_ax = np.linspace(0.5, 2.0, 401)
    th_ax = np.linspace(0.1, 1.2, 7)
    z_ax = np.linspace(-0.8, 0.8, 7)
    R3, TH3, Z3 = np.meshgrid(r_ax, th_ax, z_ax, indexing="ij")
    Rsq = np.exp(-(R3**2))
    rho = Rsq
    K_r, K_th, K_z = 0.4, 0.3, 0.2
    G_r = -np.exp(-(R3**2)) / 2.0  # integral of r R^2
    p_r = (K_r + C_r * G_r) / (R3 * Rsq)
    p_th = NATURAL.eB * R3 / 2.0 + K_th + R3 * C_th * TH3
    p_z = K_z + C_z * Z3
    res = fx.divergence_residual(r_ax, th_ax, z_ax, rho, p_r, p_th, p_z, NATURAL)
    return CheckResult.bounded("flux.divergence_nonzero_current", res, 1e-5)


def check_bohm_residual_el() -> CheckResult:
    """Zero-current stationary fields satisfy the energy balance at E_EL.

    Quantised azimuthal sector (l = 0), oscillatory axial Pinney sector
    carrying p_z = hbar c_z / Z^2, radial Kummer amplitude; 20 points.
    """
    n_r, k_z = 1, 1.3
    qn = QuantumNumbers(n_r, 0, k_z)
    E = sec.energy_el(qn, NATURAL)
    beta = NATURAL.beta

    def R(r):
        x = beta * r * r
        return math.exp(-x / 2.0) * sf.hyp1f1(-n_r, 1.0, x)

    coef_z = ek.ep_coefficients(1.1, 0.9, -0.2, k_z)
    Z = sec.axial_amplitude_trig(coef_z, k_z)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        pt = (rng.uniform(0.5, 2.2), rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5))
        p_z = NATURAL.hbar * coef_z.c / float(Z(pt[2])) ** 2
        res = fx.bohm_energy_residual(R, lambda t: 1.0, Z, 0.0, 0.0, p_z, E, NATURAL, pt)
        worst = max(worst, abs(res))
    return CheckResult.bounded("flux.bohm_residual_el", worst, 1e-5)


def check_bohm_residual_cbr() -> CheckResult:
    """Shell-regularised fields satisfy the energy balance at E_CBR.

    p_i = hbar/(2 q_i), radial Langer-corrected amplitude, axial Bessel
    amplitude, complex Whittaker azimuthal amplitude.
    """
    qn = QuantumNumbers(1, 1, 1.0)
    E = sp.energy_cbr(qn, NATURAL)
    R = rg.radial_regularised(qn, NATURAL)
    Z = rg.axial_regularised(qn.k_z)
    hb = NATURAL.hbar
    worst = 0.0
    for r, th, z in ((0.9, 0.4, 0.6), (1.4, 0.8, 1.1), (0.7, 1.5, 2.0), (1.1, -0.9, 0.9)):
        phi = NATURAL.beta * r * r
        Theta = lambda t: rg.azimuthal_whittaker(t, qn.l, phi, 1.0, 0.3 + 0.2j)
        res = fx.bohm_energy_residual(
            R, Theta, Z, hb / (2 * r), hb / (2 * r * th), hb / (2 * z), E, NATURAL, (r, th, z)
        )
        worst = max(worst, abs(res))
    return CheckResult.bounded("flux.bohm_residual_cbr", worst, 1e-5)


def check_current_zero_sum() -> CheckResult:
    """CurrentBranch constructors preserve the zero-sum constraint."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        c_r, c_z = rng.uniform(-5, 5, size=2)
        branch, _ = rg.branch_assignment(c_r, c_z)
        worst = max(worst, abs(branch.C_r + branch.C_theta + branch.C_z))
    return CheckResult.bounded("flux.current_zero_sum", worst, 1e-14)


# ---------------------------------------------------------------------------
# regular suite (plus the specfun identities it relies on)
# ---------------------------------------------------------------------------

def check_radial_ode() -> CheckResult:
    """chi = sqrt(r) R satisfies the Langer-corrected radial equation."""
    worst = 0.0
    for n_r, l in ((0, 0), (1, 1), (2, 3)):
        qn = QuantumNumbers(n_r, l, 0.0)
        labels = rg.RegularisedLabels.from_quantum_numbers(qn)
        k2 = labels.kappa_r_sq(BETA_ONE.beta)
        nu = labels.nu
        R = rg.radial_regularised(qn, BETA_ONE)
        grid = np.arange(0.2, 3.0, 2e-4)
        chi = np.sqrt(grid) * R(grid)
        rep = fd_residual(
            SampledProfile("r", grid, chi),
            lambda y, dy, d2y, q: d2y + (k2 - (BETA_ONE.beta * q) ** 2 - (nu * nu - 0.25) / q**2) * y,
        )
        worst = max(worst, rep.max_abs)
    return CheckResult.bounded("regular.radial_ode", worst, 1e-6)


def check_axial_ode() -> CheckResult:
    k_z = 1.0
    Z = rg.axial_regularised(k_z)
    grid = np.arange(0.2, 5.0, 2e-4)
    rep = fd_residual(
        SampledProfile("z", grid, Z(grid)),
        lambda y, dy, d2y, q: -d2y + y / (4.0 * q * q) - k_z * k_z * y,
    )
    return CheckResult.bounded("regular.axial_ode", rep.max_abs, 1e-6)


def check_whittaker_azimuthal_ode() -> CheckResult:
    """Complex Whittaker combination satisfies the regularised angular equation."""
    l, phi = 1, 0.5
    grid = np.arange(0.2, 2.0, 1e-4)
    Theta = rg.azimuthal_whittaker(grid, l, phi, 1.0, 0.3 + 0.2j)
    rep = fd_residual(
        SampledProfile("theta", grid, Theta),
        lambda y, dy, d2y, q: d2y + (l * l + phi / q - 1.0 / (4.0 * q * q)) * y,
    )
    return CheckResult.bounded("regular.whittaker_ode", rep.max_abs, 1e-6)


def check_obstruction() -> CheckResult:
    """For phi != 0 the azimuthal amplitude is genuinely complex."""
    grid = np.linspace(0.2, 2.0, 400)
    Theta = rg.azimuthal_whittaker(grid, 1, 0.5, 1.0, 0.0)
    ratio = float(np.max(np.abs(Theta.imag)) / np.max(np.abs(Theta)))
    return CheckResult.separated("regular.obstruction", ratio, 1e-6)


def check_local_branch_logderiv() -> CheckResult:
    """The local branch profile reproduces the flux-scaled log-density flow.

    The window stops at 0.45, a clear distance from the flux-controlled
    singularity at 1/(2 phi) = 0.625 where third derivatives blow up.
    """
    p = rg.LocalBranchParams(A_theta=1.0, phi=0.8, kappa=0.3)
    ths = np.arange(0.2, 0.45, 1e-3)
    h = 3e-5
    fd = (
        np.log(rg.theta_local_branch(ths + h, p) ** 2)
        - np.log(rg.theta_local_branch(ths - h, p) ** 2)
    ) / (2 * h)
    err = np.max(np.abs(fd - rg.local_branch_log_density_slope(ths, p)))
    return CheckResult.bounded("regular.local_branch_logderiv", err, 1e-6)


def check_local_branch_kappa0() -> CheckResult:
    """kappa = 0 limit equals the zero-current reduction exactly."""
    p0 = rg.LocalBranchParams(A_theta=2.0, phi=0.8, kappa=0.0)
    ths = np.arange(0.05, 0.6, 1e-3)
    lhs = rg.theta_local_branch(ths, p0)
    rhs = math.sqrt(2.0) * np.sqrt(np.abs(ths)) * np.abs(1.0 - 2.0 * 0.8 * ths) ** (-0.5)
    return CheckResult.bounded("regular.local_branch_kappa0", float(np.max(np.abs(lhs - rhs))), 1e-14)


def check_branch_bookkeeping() -> CheckResult:
    """1000 random branch closures: zero sum at machine precision, sign rules hold."""
    rng = np.random.default_rng(3)
    worst = 0.0
    ok = True
    for _ in range(1000):
        c_r, c_z = rng.uniform(-4, 4, size=2)
        branch, label = rg.branch_assignment(c_r, c_z)
        worst = max(worst, abs(branch.C_r + branch.C_theta + branch.C_z))
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
        worst = math.inf  # classification failure must never be masked by a tol override
    return CheckResult.bounded("regular.branch_bookkeeping", worst, 1e-14)


def check_damped_profiles() -> CheckResult:
    """Damped branch profiles: log-derivative identity and Gaussian tail."""
    worst = 0.0
    h = 1e-6
    for z, C_z in ((1.0, -1.0), (0.7, -2.5)):
        ld = (
            rg.damped_axial_profile(z + h, C_z, NATURAL) - rg.damped_axial_profile(z - h, C_z, NATURAL)
        ) / (2 * h * rg.damped_axial_profile(z, C_z, NATURAL))
        worst = max(worst, abs(ld - (1.0 / (2 * z) + C_z * z / NATURAL.hbar)))
    gauss = quad_singular(lambda r: r * rg.damped_radial_profile(r, -1.0, NATURAL), 0.0, 9.0, 0.0, 1e-12)
    worst = max(worst, abs(gauss - 0.5))
    if not (rg.radial_profile_normalisable(-0.3) and not rg.radial_profile_normalisable(0.3)):
        worst = math.inf
    return CheckResult.bounded("regular.damped_profiles", worst, 1e-8)


def check_kummer_contiguity() -> CheckResult:
    """b F(a,b;x) - b F(a-1,b;x) - x F(a,b+1;x) = 0 over a parameter grid."""
    worst = 0.0
    for a in (0.3, 1.0, 2.5, -0.7):
        for b in (0.5, 1.7, 3.0):
            for x in (-10.0, -2.0, 0.3, 4.0, 10.0, 5j, 10j, 3.0 + 4.0j):
                f_ab = sf.hyp1f1(a, b, x)
                f_am = sf.hyp1f1(a - 1.0, b, x)
                f_bp = sf.hyp1f1(a, b + 1.0, x)
                resid = b * f_ab - b * f_am - x * f_bp
                scale = max(abs(b * f_ab), abs(b * f_am), abs(x * f_bp), 1e-300)
                worst = max(worst, abs(resid) / scale)
    return CheckResult.bounded("specfun.kummer_contiguity", worst, 1e-10)


def check_whittaker_equation_grid() -> CheckResult:
    """M_{kappa,mu} satisfies the Whittaker equation on sample parameter sets.

    Unit-normalised profiles (the equation is linear, so the absolute
    residual gate is meaningful only at a fixed amplitude scale).
    """
    worst = 0.0
    for kappa, mu, xs in (
        (0.3, 0.8, np.arange(0.5, 2.5, 2e-4)),
        (-0.3j, 1.0 / math.sqrt(2.0), None),
    ):
        if xs is None:
            t = np.arange(0.3, 2.0, 2e-4)
            vals = np.asarray(sf.whittaker_m(kappa, mu, 2j * t))
            vals = vals / np.max(np.abs(vals))
            h = t[1] - t[0]
            d2 = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / (h * h)
            x_in = 2j * t[1:-1]
            resid = d2 / (2j) ** 2 + (-0.25 + kappa / x_in + (0.25 - mu * mu) / x_in**2) * vals[1:-1]
        else:
            vals = np.asarray(sf.whittaker_m(kappa, mu, xs))
            vals = vals / np.max(np.abs(vals))
            h = xs[1] - xs[0]
            d2 = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / (h * h)
            x_in = xs[1:-1]
            resid = d2 + (-0.25 + kappa / x_in + (0.25 - mu * mu) / x_in**2) * vals[1:-1]
        worst = max(worst, float(np.max(np.abs(resid))))
    return CheckResult.bounded("specfun.whittaker_equation", worst, 1e-7)


def check_bessel_half_order() -> CheckResult:
    """J_{1/2}(x) = sqrt(2/(pi x)) sin x to 1e-10 relative on [0.1, 20]."""
    xs = np.linspace(0.1, 20.0, 703)
    got = np.asarray(sf.bessel_j(0.5, xs))
    want = np.sqrt(2.0 / (math.pi * xs)) * np.sin(xs)
    denom = np.maximum(np.abs(want), 1e-8)
    worst = float(np.max(np.abs(got - want) / denom))
    return CheckResult.bounded("specfun.bessel_half_order", worst, 1e-10)


def check_gamma_reflection() -> CheckResult:
    """Gamma(z) Gamma(1-z) sin(pi z) / pi = 1 on (0, 1)."""
    worst = 0.0
    for z in np.linspace(0.05, 0.95, 19):
        value = (
            math.exp(sf.ln_gamma(z).real + sf.ln_gamma(1.0 - z).real) * math.sin(math.pi * z) / math.pi
        )
        worst = max(worst, abs(value - 1.0))
    return CheckResult.bounded("specfun.gamma_reflection", worst, 1e-10)


def check_whittaker_wronskian() -> CheckResult:
    """M and W are independent: numerical Wronskian bounded away from zero."""
    worst = math.inf
    for kappa, mu, x in ((0.0, 1 / math.sqrt(2), 1.0), (-0.25j, 1 / math.sqrt(2), 0.8j + 0.2)):
        h = 1e-5
        (m_p, w_p), (m_m, w_m) = sf.whittaker_mw(kappa, mu, x + h), sf.whittaker_mw(kappa, mu, x - h)
        m, w = sf.whittaker_mw(kappa, mu, x)
        wr = m * (w_p - w_m) / (2 * h) - w * (m_p - m_m) / (2 * h)
        worst = min(worst, abs(wr))
    return CheckResult.separated("specfun.whittaker_wronskian", worst, 1e-6)


# ---------------------------------------------------------------------------
# spectrum suite
# ---------------------------------------------------------------------------

def check_spectrum_reference_values() -> CheckResult:
    cases = (
        (sec.energy_el(QuantumNumbers(0, 0, 0.0), NATURAL), 0.5),
        (sp.energy_cbr(QuantumNumbers(0, 0, 0.0), NATURAL), 0.75),
        (sp.energy_cbr(QuantumNumbers(0, 1, 0.0), NATURAL), 0.5 + math.sqrt(5.0) / 4.0),
    )
    worst = max(abs(got - want) for got, want in cases)
    return CheckResult.bounded("spectrum.reference_values", worst, 1e-12)


def check_spectrum_ordering() -> CheckResult:
    report = sp.spectral_ordering_check(sp.default_ordering_grid(), NATURAL)
    return CheckResult.bounded("spectrum.ordering_sweep", float(len(report.violations)), 0.0)


def check_splitting_positive() -> CheckResult:
    """E_CBR - E_EL strictly positive for every l (eB > 0)."""
    min_split = min(
        sp.energy_cbr(QuantumNumbers(2, l, 0.7), NATURAL) - sec.energy_el(QuantumNumbers(2, l, 0.7), NATURAL)
        for l in range(-10, 11)
    )
    return CheckResult.separated("spectrum.splitting_positive", min_split, 0.0)


def check_axial_term_shared() -> CheckResult:
    """The k_z term is model-independent."""
    worst = 0.0
    for model in sp.SpectrumModel:
        for l in (0, 2, -3):
            qn1 = QuantumNumbers(1, l, 1.7)
            qn0 = QuantumNumbers(1, l, 0.0)
            diff = sp.energy(model, qn1, NATURAL) - sp.energy(model, qn0, NATURAL)
            worst = max(worst, abs(diff - NATURAL.hbar**2 * 1.7**2 / (2.0 * NATURAL.mass)))
    return CheckResult.bounded("spectrum.axial_term_shared", worst, 1e-12)


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES = {
    "ep": (
        check_invariant_constancy,
        check_pinney_residual_radial,
        check_pinney_residual_theta,
        check_pinney_residual_axial,
        check_pinney_convergence,
        check_wronskian_constancy,
        check_omega_theta_axis,
        check_energy_el_degeneracy,
        check_energy_el_values,
    ),
    "flux": (
        check_uw_vs_closed,
        check_action_derivative,
        check_nonlinpie_closed_form,
        check_uw_nonzero_current,
        check_f_linear_flow,
        check_f_branch_split,
        check_quadrature_arcsin,
        check_quadrature_roundtrip,
        check_theta_reconstruction,
        check_divergence_zero_current,
        check_divergence_nonzero_current,
        check_bohm_residual_el,
        check_bohm_residual_cbr,
        check_current_zero_sum,
    ),
    "regular": (
        check_radial_ode,
        check_axial_ode,
        check_whittaker_azimuthal_ode,
        check_obstruction,
        check_local_branch_logderiv,
        check_local_branch_kappa0,
        check_branch_bookkeeping,
        check_damped_profiles,
        check_kummer_contiguity,
        check_whittaker_equation_grid,
        check_bessel_half_order,
        check_gamma_reflection,
        check_whittaker_wronskian,
    ),
    "spectrum": (
        check_spectrum_reference_values,
        check_spectrum_ordering,
        check_splitting_positive,
        check_axial_term_shared,
    ),
}


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
            {"name": c.name, "max_residual": c.max_residual, "tol": c.tol, "pass": c.passed}
            for c in checks
        ],
        "pass": all(c.passed for c in checks),
    }
