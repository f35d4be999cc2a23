#!/usr/bin/env python3
"""The azimuthal momentum flow and its closed forms.

On the zero-azimuthal-current branch the shifted momentum
pi = dS/dtheta - hbar*phi obeys a closed sinusoidal form with
discriminant Delta = E_pi^2 - 64 Lambda / hbar^2, and the action S
integrates to an unwrapped arctangent.  This script

  1. integrates the coupled (pi, w) system with the package's own
     adaptive integrator and overlays the closed form,
  2. differentiates the closed-form action numerically and recovers the
     momentum,
  3. rebuilds the angular amplitude from w = Theta'/Theta and checks the
     first integral with its inverse-square term,
  4. shows the current-induced sign-branch split of the F-flow.
"""

import math

import numpy as np

from bmlandau import (
    FluxContext,
    IVPProblem,
    PhysParams,
    f_branch_flow,
    first_integral_radicand,
    flux_context_from_lambda,
    integrate_ivp,
    pi_theta_closed,
    s_theta_closed,
    theta_from_w,
    uw_flow,
)

params = PhysParams()
ctx = flux_context_from_lambda(1.0, 0, 10.0, 0.0, params)
print(
    f"context: Lambda = {ctx.Lambda}, E_pi = {ctx.E_pi}, phi = {ctx.phi}, "
    f"Delta = {ctx.discriminant}"
)

# 1. coupled system vs closed form over one period ----------------------
pi0 = 8 * ctx.Lambda / ctx.E_pi
dpi0 = -16 * ctx.Lambda**1.5 * math.sqrt(ctx.discriminant) / ctx.E_pi**2
w0 = -dpi0 / (2 * pi0)
rhs = lambda y, t: uw_flow(y, ctx, 0.0)
period = math.pi / math.sqrt(ctx.Lambda)
sol = integrate_ivp(IVPProblem(rhs, [pi0, w0], (0.0, period), 1e-11, 1e-13, max_step=0.02))
th = np.linspace(0.0, period, 601)
err = np.max(np.abs(sol(th)[:, 0] - pi_theta_closed(th, ctx)))
print(f"\n1. integrated flow vs closed form over one period: max dev {err:.2e}")
print(f"   momentum range: [{pi_theta_closed(th, ctx).min():.4f}, {pi_theta_closed(th, ctx).max():.4f}]"
      "  (8L/(E+sqrt(D)) to 8L/(E-sqrt(D)))")

# 2. action derivative ---------------------------------------------------
h = 5e-4
pts = np.linspace(0.1, 2.9, 15)
ds = (s_theta_closed(pts + h, ctx) - s_theta_closed(pts - h, ctx)) / (2 * h)
print(f"2. max |dS/dtheta - hbar*phi - pi|: {np.max(np.abs(ds - ctx.phi - pi_theta_closed(pts, ctx))):.2e}")
wrap = s_theta_closed(th + 2 * math.pi, ctx) - s_theta_closed(th, ctx)
print(f"   action increment over 2pi: {wrap[0]:.6f} (spread {wrap.max() - wrap.min():.1e})")

# 3. amplitude reconstruction at phi = 0 ---------------------------------
ctx0 = FluxContext(r=0.0, l=1, E_pi=10.0, theta0=0.0, params=params)
pi0 = 8 * ctx0.Lambda / ctx0.E_pi
dpi0 = -16 * ctx0.Lambda**1.5 * math.sqrt(ctx0.discriminant) / ctx0.E_pi**2
rhs0 = lambda y, t: uw_flow(y, ctx0, 0.0)
sol0 = integrate_ivp(
    IVPProblem(rhs0, [pi0, -dpi0 / (2 * pi0)], (0.0, math.pi), 1e-11, 1e-13, max_step=0.01)
)
hg = 5e-4
grid = np.arange(0.0, math.pi, hg)
kappa_theta = 1.0
T = theta_from_w(grid, sol0(grid)[:, 1], math.sqrt(kappa_theta / pi0))
dT = (T[2:] - T[:-2]) / (2 * hg)
rad = first_integral_radicand(T[1:-1], kappa_theta * ctx0.E_pi / 8, ctx0.l, kappa_theta, 0.0)
print(f"3. reconstructed Theta: first-integral defect {np.max(np.abs(dT**2 - rad)):.2e}")

# 4. branch split with nonzero azimuthal current -------------------------
ctx1 = FluxContext(r=1.0, l=1, E_pi=12.0, theta0=0.0, params=PhysParams(B=2.0))  # beta = 1
F, p, C = 1.5, 1.1, 0.6
up = f_branch_flow(F, p, ctx1, C, +1)
dn = f_branch_flow(F, p, ctx1, C, -1)
print(f"4. F-flow branches at (F, pi, C) = ({F}, {p}, {C}):")
print(f"   dF/dpi(+) = {up:.6f}, dF/dpi(-) = {dn:.6f}, split = {up - dn:.6f}")
print(f"   expected split -8 r^2 C sqrt(F/pi)/pi = {-8 * C * math.sqrt(F / p) / p:.6f}")
