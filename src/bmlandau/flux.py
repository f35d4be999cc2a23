"""Nonzero sectorial currents: continuity first integrals and azimuthal flow.

The stationary continuity equation splits into sectorial balance relations
with constants (C_r, C_theta, C_z) constrained by C_r + C_theta + C_z = 0.
The azimuthal sector couples to the enclosed flux ratio phi = beta r^2 and
is handled in the shifted-momentum variable pi = dS/dtheta - hbar*phi and
the logarithmic derivative w = Theta'/Theta:

    pi' = r C_theta - 2 w pi
    w'  = (pi^2 - Lambda)/hbar^2 - w^2,     Lambda = l^2 + phi^2.

FluxContext holds r, l and the integration constants E_pi and theta0,
and reads hbar and beta from its PhysParams; uw_flow is the one
statement of this system, for one state or an array of them.

For C_theta = 0 the flow closes: with discriminant
Delta = E_pi^2 - 64 Lambda / hbar^2 > 0,

    pi(theta) = 8 Lambda / (E_pi + sqrt(Delta) sin(2 sqrt(Lambda)(theta - theta0)))

and the azimuthal action integrates to an unwrapped arctan plus the linear
flux term.  The C_theta != 0 structure is exposed through the first-order
branch equation for F = (pi'/pi)^2 * pi.

On a nonzero-current branch the amplitude is known only implicitly, as
theta(Theta) from the first integral (Theta')^2 = g(Theta), g the
radicand, which depends on the current only through the scaled constant
kappa = r^2 C_theta / hbar, as in regular.local_branch_params.
theta_first_integral_quadrature evaluates it by tanh-sinh quadrature
from the nearest turning point tp, for one target amplitude or a whole
array of them: the turning-point scans and bisections run in lock-step
over the targets, and the quadratures run as one oracle.quad_singular
call over all the intervals.  A singularity at a nonzero endpoint is
the caller's to remove, so the integrand is written in offset form: with
Theta = tp + u, every term of g(tp + u) - g(tp) carries a factor u, so
radicand_increment_quotient gives H(u) = g(tp + u)/u without
cancellation, H(0) = g'(tp), and after Theta = tp + s t^2 the integrand
2/sqrt(s H(s t^2)) is analytic down to the endpoint t = 0.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CurrentBranch, PhysParams, _require_finite, uniform_step  # noqa: F401  (flux.CurrentBranch)
from .oracle import _five_point, _five_point_at, quad_singular


@dataclass(frozen=True)
class FluxContext:
    """Radius, angular index and integration constants of the azimuthal flow.

    hbar and beta are read from params, never copied.  phi = beta r^2 and
    Lambda = l^2 + phi^2 are computed from the primaries on first access
    and cached: the context is frozen, so they cannot go stale.
    """

    r: float
    l: int
    E_pi: float
    theta0: float
    params: PhysParams

    @functools.cached_property
    def phi(self) -> float:
        return self.params.beta * self.r * self.r

    @functools.cached_property
    def Lambda(self) -> float:
        return self.l * self.l + self.phi * self.phi

    @property
    def discriminant(self) -> float:
        return self.E_pi**2 - 64.0 * self.Lambda / self.params.hbar**2


def flux_context_from_lambda(
    lam: float, l: int, E_pi: float, theta0: float, params: PhysParams
) -> FluxContext:
    """Build a FluxContext realising a requested Lambda = l^2 + phi^2.

    The radius follows from phi = sqrt(Lambda - l^2) = beta r^2.
    """
    if lam < l * l:
        raise ValueError("Lambda must be >= l^2")
    phi = math.sqrt(lam - l * l)
    if params.beta <= 0 and phi > 0:
        raise ValueError("positive flux ratio needs beta > 0")
    r = math.sqrt(phi / params.beta) if phi > 0 else 0.0
    return FluxContext(r=r, l=l, E_pi=E_pi, theta0=theta0, params=params)


def uw_flow(state, ctx: FluxContext, C_theta: float):
    """Right side (pi', w') of the coupled azimuthal system at state = (pi, w).

    The state is a pair of floats or a (2, ...) array; an array gives
    arrays, each entry equal bit for bit to the call on that point.
    """
    pi, w = state
    dpi = ctx.r * C_theta - 2.0 * w * pi
    dw = (pi * pi - ctx.Lambda) / ctx.params.hbar**2 - w * w
    return dpi, dw


def nonlinpie_residual(pi, dpi, d2pi, ctx: FluxContext, C_theta: float):
    """Second-order master expression for the shifted momentum.

    3 pi'^2 - 2 pi pi'' - 4 r^2 C pi' - (4/hbar^2) pi^4 + 4 Lambda pi^2 + r^4 C^2;
    zero along solutions.
    """
    hb2 = ctx.params.hbar**2
    r2 = ctx.r * ctx.r
    return (
        3.0 * dpi * dpi
        - 2.0 * pi * d2pi
        - 4.0 * r2 * C_theta * dpi
        - 4.0 * pi**4 / hb2
        + 4.0 * ctx.Lambda * pi * pi
        + (r2 * C_theta) ** 2
    )


# largest |x| whose square x**2 is a finite float (bounds E_pi and hbar);
# hbar >= sqrt(5e-324) keeps hbar**2 at least the least positive float
_E_PI_MAX = math.sqrt(sys.float_info.max)
_HBAR_MIN = math.sqrt(5e-324)


def _require_positive_discriminant(ctx: FluxContext) -> float:
    if abs(ctx.E_pi) > _E_PI_MAX:
        raise ValueError(f"E_pi = {ctx.E_pi:g} out of range: |E_pi| must be <= {_E_PI_MAX:.6g}")
    if not _HBAR_MIN <= ctx.params.hbar <= _E_PI_MAX:
        raise ValueError(f"hbar = {ctx.params.hbar:g} out of range: hbar must be in [{_HBAR_MIN:.6g}, {_E_PI_MAX:.6g}]")
    delta = ctx.discriminant
    if not delta > 0:  # also rejects a nan discriminant
        raise ValueError("discriminant branch not covered by closed form (Delta_pi <= 0)")
    return delta


def _momentum_denominator(theta, ctx: FluxContext):
    """Denominator E_pi + sqrt(Delta) sin(2 sqrt(Lambda)(theta - theta0)) of pi_theta and its pole mask.

    The mask is True where |denominator| < 1e-12 max(|E_pi|, 1): the one
    pole test, shared by pi_theta_closed and the CLI's gap rows.  Raises
    ValueError, naming theta, where the phase overflows the float range.
    """
    delta = _require_positive_discriminant(ctx)
    th = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore"):  # an infinite phase is refused below
        u = 2.0 * math.sqrt(ctx.Lambda) * (th - ctx.theta0)
    _require_finite(u, th, "phase 2 sqrt(Lambda)(theta - theta0)", "theta", f" (Lambda = {ctx.Lambda:g})")
    denom = ctx.E_pi + math.sqrt(delta) * np.sin(u)
    return denom, np.abs(denom) < 1e-12 * max(abs(ctx.E_pi), 1.0)


def _momentum_and_pole(theta, ctx: FluxContext):
    """8 Lambda / denominator, 0 at the poles, and the pole mask of _momentum_denominator."""
    denom, pole = _momentum_denominator(theta, ctx)
    out = np.zeros_like(denom)
    np.divide(8.0 * ctx.Lambda, denom, out=out, where=~pole)
    return out, pole


def pi_theta_closed(theta, ctx: FluxContext):
    """Closed-form shifted momentum on the zero-azimuthal-current branch."""
    out, pole = _momentum_and_pole(theta, ctx)
    if np.any(pole):
        raise ZeroDivisionError("momentum pole: closed-form denominator vanished")
    return out if np.asarray(theta).ndim else float(out)


def s_theta_closed(theta, ctx: FluxContext):
    """Azimuthal action S(theta); the arctan branch is unwrapped.

    S = hbar phi theta
      + hbar atan[(E_pi tan(sqrt(Lambda)(theta-theta0)) + sqrt(Delta)) / (8 sqrt(Lambda)/hbar)]
      + hbar pi k(u),   u = sqrt(Lambda)(theta - theta0),

    where k(u) counts the tangent poles crossed.  k is recovered from
    round((u - atan(tan u))/pi) so the branch count always agrees with
    the sign the floating tangent actually took, even half an ulp from a
    pole.  Raises ValueError, naming theta, where the phase u or S
    overflows the float range.
    """
    delta = _require_positive_discriminant(ctx)
    lam = ctx.Lambda
    hb = ctx.params.hbar
    th = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore"):  # an infinite phase is refused below
        u = math.sqrt(lam) * (th - ctx.theta0)
    _require_finite(u, th, "phase sqrt(Lambda)(theta - theta0)", "theta", f" (Lambda = {lam:g})")
    scale = 8.0 * math.sqrt(lam) / hb
    tan_u = np.tan(u)
    # a quotient past the float range (scale tiny or 0) has the arctan of its
    # limit, +-pi/2; an action past it (inf, or inf - inf) is refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        base = np.arctan((ctx.E_pi * tan_u + math.sqrt(delta)) / scale)
        wrap = np.round((u - np.arctan(tan_u)) / math.pi)
        out = hb * ctx.phi * th + hb * (base + math.pi * wrap)
    _require_finite(out, th, "action S_theta", "theta")
    return out if np.asarray(theta).ndim else float(out)


def f_branch_flow(F: float, pi: float, ctx: FluxContext, C_theta: float, sign: int) -> float:
    """dF/dpi of the first-order branch equation, F = (pi'/pi)^2 pi.

    sign = +1 selects the branch pi'/pi = +sqrt(F/pi) (the square-root
    term enters with a minus), sign = -1 the mirror branch.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if pi == 0:
        raise ZeroDivisionError("momentum-axis singularity (pi = 0)")
    ratio = F / pi
    if ratio < 0:
        raise ValueError("branch violation: F/pi must be nonnegative")
    hb2 = ctx.params.hbar**2
    r2 = ctx.r * ctx.r
    return (
        2.0 * F / pi
        - sign * (4.0 * r2 * C_theta / pi) * math.sqrt(ratio)
        - 4.0 * pi * pi / hb2
        + 4.0 * ctx.Lambda
        + (r2 * C_theta / pi) ** 2
    )


def first_integral_radicand(Theta, E_theta: float, l: int, kappa: float, phi: float):
    """(Theta')^2 = 2 E - l^2 T^2 + 2 kappa phi ln|T| - kappa^2/T^2, kappa = r^2 C_theta / hbar.

    With kappa = 0 the centrifugal term is left out, not computed as
    0 / T^2, which is nan where T^2 underflows to 0.
    """
    T = np.asarray(Theta, dtype=float)
    return (
        2.0 * E_theta
        - (l * l) * T * T
        + 2.0 * kappa * phi * np.log(np.abs(T))
        - (kappa**2 / (T * T) if kappa else 0.0)
    )


def radicand_increment_quotient(u, tp, l: int, kappa: float, phi: float):
    """H(u) = (g(tp + u) - g(tp)) / u for the first-integral radicand g, free of cancellation.

    Every term of the increment carries a factor u, so with kappa = r^2 C_theta / hbar

        H(u) = -l^2 (2 tp + u) + 2 kappa phi log1p(u/tp)/u + kappa^2 (2 tp + u) / (tp^2 (tp + u)^2),

    and where u/tp is 0 (u = 0 or underflowed) log1p(v)/v takes its limit
    1, so H(0) = g'(tp).  H does not depend on E_theta.  Needs tp > 0 and
    tp + u > 0; u and tp broadcast.
    """
    u = np.asarray(u, dtype=float)
    v = u / tp
    nonzero = v != 0.0
    log_ratio = np.where(nonzero, np.log1p(v) / np.where(nonzero, v, 1.0), 1.0)
    width = 2.0 * tp + u
    return -(l * l) * width + 2.0 * kappa * phi / tp * log_ratio + kappa * kappa * width / (tp * tp * (tp + u) ** 2)


def theta_first_integral_quadrature(
    Theta_target,
    E_theta: float,
    l: int,
    kappa: float,
    phi: float,
    tol: float = 1e-10,
):
    """theta - theta0 from the implicit first-integral quadrature, kappa = r^2 C_theta / hbar.

    Integrates d Theta / sqrt(radicand) from the turning point tp nearest
    the target amplitude.  Substituting Theta = tp + s*t^2 removes the
    square-root endpoint, and the radicand is written in offset form,
    g(tp + u) = u H(u) with u = s t^2 (radicand_increment_quotient), so
    the integrand 2/sqrt(s H(s t^2)) is smooth down to t = 0 and
    tanh-sinh converges at its exponential rate.  The sign of the result
    equals the sign of (Theta_target - turning point); the caller chooses
    the physical branch.

    Theta_target may be a float or an array of targets; an array gives an
    array of the same shape, each entry equal bit for bit to the float
    call on it.  All targets are solved in one pass: the turning-point
    scans and bisections run in lock-step as array operations, each
    element with its own stop rule, and the quadratures are one
    quad_singular call over all the intervals, which evaluates the
    integrand at the kept nodes only.  A non-finite, non-positive,
    classically forbidden or unbracketed target raises the float call's
    ValueError (the first failing test over the whole array: finiteness,
    positivity, then the radicand at the targets, then the turning-point
    search).
    """

    def g(T):
        return first_integral_radicand(T, E_theta, l, kappa, phi)

    target = np.asarray(Theta_target, dtype=float)
    T = target.ravel()
    if not np.all(np.isfinite(T)):
        raise ValueError("amplitude target must be finite (got nan or inf)")
    if np.any(T <= 0):
        raise ValueError("amplitude must be positive")
    if np.any(g(T) < 0):
        raise ValueError("classically forbidden amplitude (radicand negative at target)")

    tp = _nearest_turning_points(g, T)
    if np.any(np.isnan(tp)):
        raise ValueError("classically forbidden amplitude: no real turning point brackets the target")

    s = np.where(T > tp, 1.0, -1.0)
    t_max = np.sqrt(np.abs(T - tp))

    def integrand(t, i):
        # g(tp + u) = u H(u) with u = s t^2, so 2 t / sqrt(g) = 2 / sqrt(s H)
        u = s[i] * t * t
        return 2.0 / np.sqrt(s[i] * radicand_increment_quotient(u, tp[i], l, kappa, phi))

    quad = quad_singular(integrand, 0.0, t_max.reshape(target.shape), tol=tol)
    # a target on its turning point gives +0.0, not s * 0.0
    out = np.where(T == tp, 0.0, s * np.ravel(quad))
    return out.reshape(target.shape) if target.ndim else float(out[0])


# The turning-point scans cover [1e-150, 1e150], where T^2 and 1/T^2 of
# the radicand stay normal floats; inside [1e-12, 1e12] they step by a
# fixed ratio, _SCAN_STEP.
_SCAN_RANGE = (1e-150, 1e150)
_STEP_WINDOW = (1e-12, 1e12)
_SCAN_STEP = 1.6


def _nearest_turning_points(g, target):
    """Zero of g nearest each target among the brackets found on each side; nan where none.

    The downward scan (targets / _SCAN_STEP^k) and the upward scan (targets *
    _SCAN_STEP^k) step all targets in lock-step, each stopping at the first
    step where g <= 0 (a bracket).  A scan whose position lies outside
    _STEP_WINDOW takes one last step, to the end of _SCAN_RANGE in its
    direction, and stops there.  That step decides exactly, because g
    has at most one local maximum on (0, inf), so {g > 0} is one
    interval: for the radicand, T^3 g'(T) is a quadratic in T^2 with at
    most one positive root.  Brackets wider than a factor _SCAN_STEP^2 (the
    last steps) are halved in log T until they are not, then at their
    arithmetic midpoints, all in one loop (_bisect).  Between a downward
    and an upward root the nearer wins, the downward one on a tie.
    """
    n = target.size
    # entries [0, n) scan downward from the targets, [n, 2n) upward
    down = np.arange(2 * n) < n
    pos = np.concatenate((target, target))
    outside = np.full(2 * n, np.nan)
    end = np.where(down, _SCAN_RANGE[0], _SCAN_RANGE[1])
    # a scan starting at or beyond the end of its range has nothing to search
    active = np.flatnonzero(np.where(down, pos > end, pos < end))
    while active.size:
        here, falls = pos[active], down[active]
        last = (here < _STEP_WINDOW[0]) | (here > _STEP_WINDOW[1])
        nxt = np.where(last, end[active], np.where(falls, here / _SCAN_STEP, here * _SCAN_STEP))
        hit = g(nxt) <= 0.0
        outside[active[hit]] = nxt[hit]
        pos[active[~hit]] = nxt[~hit]
        active = active[~(hit | last)]
    bracketed = ~np.isnan(outside)  # outside is set on a bracket only
    roots = np.full(2 * n, np.nan)
    roots[bracketed] = _bisect(g, pos[bracketed], outside[bracketed], _SCAN_STEP * _SCAN_STEP)
    lower, upper = roots[:n], roots[n:]
    # min() over [lower, upper] keyed on the distance keeps lower on a tie
    take_upper = np.isnan(lower) | (np.abs(upper - target) < np.abs(lower - target))
    return np.where(take_upper, upper, lower)


def _bisect(g, inside, outside, ratio: float):
    """Roots of g between positive-radicand points and negative ones, all brackets in lock-step.

    A bracket whose ends are more than ``ratio`` apart is halved in log T,
    at its geometric midpoint, and a narrower one at its arithmetic
    midpoint; each stops when its midpoint rounds onto one of its ends.
    """
    inside, outside = inside.copy(), outside.copy()
    active = np.arange(inside.size)
    some_wide = True
    while True:
        ends_in, ends_out = inside[active], outside[active]
        mid = 0.5 * (ends_in + ends_out)
        # a bracket never widens, so once none is wide the test is skipped
        if some_wide:
            wide = np.maximum(ends_in, ends_out) > ratio * np.minimum(ends_in, ends_out)
            some_wide = wide.any()
            mid[wide] = np.sqrt(ends_in[wide]) * np.sqrt(ends_out[wide])
        going = (mid != ends_in) & (mid != ends_out)
        active, mid = active[going], mid[going]
        if not active.size:
            return 0.5 * (inside + outside)
        up = g(mid) > 0.0
        inside[active[up]] = mid[up]
        outside[active[~up]] = mid[~up]


def theta_from_w(grid, w, Theta0: float) -> np.ndarray:
    """Theta = Theta0 exp(int w dtheta) at the grid points, by the composite cubic rule (fourth order).

    Each interval integrates the cubic through its four nearest samples:
    h/24 (-w_{i-1} + 13 w_i + 13 w_{i+1} - w_{i+2}) inside, the one-sided
    h/24 (9 w_0 + 19 w_1 - 5 w_2 + w_3) on the first interval and its
    mirror on the last.  The grid must be uniform with at least 4 samples.
    """
    h = uniform_step(grid)
    w = np.asarray(w, dtype=float)
    if w.shape[:1] != np.shape(grid):
        raise ValueError("grid and values must have equal length")
    if len(w) < 4:
        raise ValueError("cubic rule needs at least 4 samples")
    edge = (9.0, 19.0, -5.0, 1.0)
    pieces = np.concatenate((
        [np.dot(edge, w[:4])],
        -w[:-3] + 13.0 * w[1:-2] + 13.0 * w[2:-1] - w[3:],
        [np.dot(edge, w[:-5:-1])],
    ))
    integral = np.concatenate(([0.0], np.cumsum(pieces * (h / 24.0))))
    return Theta0 * np.exp(integral)


def divergence_residual(
    r_axis, theta_axis, z_axis, rho, p_r, p_theta, p_z, params: PhysParams
) -> float:
    """Max stationary-continuity defect over the interior of an (r,theta,z) grid.

    Five-point differences of (each axis needs at least 5 points)
    (1/r) d_r(r rho p_r) + (1/r) d_theta[rho (p_theta - eBr/2)] + d_z(rho p_z).
    The fields broadcast to the grid shape, so a field that does not
    vary along an axis may have length 1 there.  Each flux is differenced
    on its own shape: along a length-1 axis the stencil takes 5 copies of
    the field, as on the broadcast grid, and only the three derivatives
    are broadcast, to be summed; so the result equals that of the fields
    materialised at the grid shape, bit for bit.
    """
    r = np.asarray(r_axis, dtype=float)
    th = np.asarray(theta_axis, dtype=float)
    z = np.asarray(z_axis, dtype=float)
    if r[0] <= 0.0:
        raise ValueError("axis excluded from stencil: the grid must satisfy r > 0")
    hr, hth, hz = uniform_step(r), uniform_step(th), uniform_step(z)

    shape = (r.size, th.size, z.size)
    if min(shape) < 5:
        raise ValueError("five-point stencil needs at least 5 grid points along the axis")
    rho = np.asarray(rho, dtype=float)
    R3 = r[:, None, None]
    flux_r = R3 * rho * np.asarray(p_r, dtype=float)
    flux_th = rho * (np.asarray(p_theta, dtype=float) - params.eB * R3 / 2.0)
    flux_z = rho * np.asarray(p_z, dtype=float)

    def derivative(flux, axis, h):
        """Five-point derivative of flux along axis over the interior, on the flux's own shape."""
        if np.broadcast_shapes(flux.shape, shape) != shape:
            raise ValueError(f"field of shape {flux.shape} does not broadcast to the grid shape {shape}")
        f = np.moveaxis(flux.reshape((1,) * (3 - flux.ndim) + flux.shape), axis, 0)
        f = np.broadcast_to(f, (max(len(f), 5),) + f.shape[1:])  # 5 copies of a constant along axis
        interior = tuple(slice(2, -2) if n > 1 else slice(None) for n in f.shape[1:])
        return np.moveaxis(_five_point(f[(slice(None),) + interior], h)[1], 0, axis)

    r_in = r[2:-2][:, None, None]
    total = derivative(flux_r, 0, hr) / r_in + derivative(flux_th, 1, hth) / r_in + derivative(flux_z, 2, hz)
    return float(np.max(np.abs(total)))


def bohm_energy_residual(
    R: Callable,
    Theta: Callable,
    Z: Callable,
    p_r,
    p_theta,
    p_z,
    E: float,
    params: PhysParams,
    point,
):
    """Stationary energy-balance defect at one point or an array of points.

    Evaluates
    [p_r^2 + p_theta^2 - eBr p_theta + (eBr)^2/4 + p_z^2] / 2m
      - (hbar^2/2m)[R''/R + R'/(r R) + Theta''/(r^2 Theta) + Z''/Z] - E,
    the amplitude-curvature block being the quantum potential.  Amplitude
    derivatives are fourth-order five-point differences of step 1e-3,
    taken with one call of each amplitude: R, Theta and Z receive
    ndarrays (the five samples on a leading axis) and return values of
    that shape, or a scalar if the amplitude is constant.  The point
    (r, theta, z) may hold arrays, which broadcast together with the
    momenta; the residual then has their broadcast shape, each entry
    equal to the call at that single point.  Theta may be complex, in
    which case the returned residual is complex.
    """
    r, th, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in point))
    if np.any(r <= 0):
        raise ValueError("quantum potential singular: needs r > 0")
    Rv, d1R, d2R = _five_point_at(R, r, 1e-3)
    Tv, _, d2T = _five_point_at(Theta, th, 1e-3)
    Zv, _, d2Z = _five_point_at(Z, z, 1e-3)
    if np.any(Rv == 0) or np.any(Tv == 0) or np.any(Zv == 0):
        raise ValueError("quantum potential singular: amplitude node at the point")

    m, hb = params.mass, params.hbar
    eB = params.eB
    kinetic = (
        p_r * p_r
        + p_theta * p_theta
        - eB * r * p_theta
        + (eB * r) ** 2 / 4.0
        + p_z * p_z
    ) / (2.0 * m)
    curvature = d2R / Rv + d1R / (r * Rv) + d2T / (r * r * Tv) + d2Z / Zv
    return kinetic - hb * hb / (2.0 * m) * curvature - E
