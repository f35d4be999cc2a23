#!/usr/bin/env python3
"""Ermakov-Pinney structure of the zero-current sectors.

Walks through the basic construction: take two independent solutions of
the radial Weber-type equation chi'' + (kappa^2 - beta^2 r^2) chi = 0,
combine them into the Pinney amplitude sigma = sqrt(A u1^2 + B u2^2 +
2 D u1 u2), and watch two facts hold at once:

  * sigma satisfies sigma'' + Omega^2 sigma = c^2/sigma^3 (checked by
    central differences against the governing equation), and
  * the Ermakov-Lewis combination I = [(sigma y' - sigma' y)^2 +
    c^2 (y/sigma)^2]/2 is constant along every linear solution y.

The same machinery runs for the azimuthal and axial sectors with
trigonometric pairs.
"""

import numpy as np

from bmlandau import (
    PhysParams,
    ep_coefficients,
    ermakov_invariant,
    pinney_amplitude,
    pinney_derivative,
    pinney_residual,
    radial_basis,
    radial_kappa_sq,
    trig_amplitude,
    trig_pair,
)

params = PhysParams(B=2.0)  # hbar = m = e = 1, B = 2, so beta = 1
print(f"physical setup: beta = {params.beta}, omega_c = {params.omega_c}")

# --- radial sector -----------------------------------------------------
pair = radial_basis(0, params)  # a = 0: u1 is the Gaussian ground profile
kappa_sq = radial_kappa_sq(0, params)
print(f"\nradial pair at a = 0: kappa^2 = {kappa_sq} (the beta(4n+1) family)")

r = np.linspace(0.2, 3.0, 400)
w = pair.wronskian_at(r)
print(f"Wronskian along r: min {w.min():.15f}, max {w.max():.15f} (constant, = 1)")

omega_sq = lambda q: kappa_sq - (params.beta * q) ** 2
for A, B, D in ((1.0, 1.0, 0.0), (2.0, 1.0, 0.5), (1.5, 1.5, -1.0)):
    coef = ep_coefficients(A, B, D, pair.wronskian)
    sigma = pinney_amplitude(pair, coef)
    dsigma = pinney_derivative(pair, coef)

    u1, _, du1, _ = pair.values(r)  # y = u1 and y' from one evaluation
    inv = ermakov_invariant(u1, du1, sigma(r), dsigma(r), coef.c**2)
    spread = (inv.max() - inv.min()) / abs(inv.mean())
    res = pinney_residual(sigma, omega_sq, coef.c, np.arange(0.2, 1.5, 1e-3))
    print(
        f"(A,B,D) = ({A},{B},{D}): flux c = {coef.c:.6f}, "
        f"invariant = {inv.mean():.12f} (relative spread {spread:.2e}), "
        f"Pinney residual {res:.2e}"
    )

# --- azimuthal sector, fixed frequency ---------------------------------
print("\nazimuthal trigonometric amplitude at Omega = 1:")
omega = 1.0
coef = ep_coefficients(1.0, 0.8, 0.2, omega)
theta_amp = trig_amplitude(coef, omega)
tp = trig_pair(omega)
th = np.linspace(0.0, 2 * np.pi, 9)
print("  theta:", np.array2string(th, precision=3))
print("  Theta:", np.array2string(theta_amp(th), precision=6))
res = pinney_residual(
    theta_amp, lambda q: omega**2 + 0 * np.asarray(q), coef.c,
    np.arange(0.0, 2 * np.pi, 1e-3),
)
print(f"  Pinney residual over a full turn: {res:.2e}")

# the equal-weight choice collapses to a constant amplitude
flat = trig_amplitude(
    ep_coefficients(0.5, 0.5, 0.0, omega), omega
)
print(f"  equal-weight case: Theta = {float(flat(0.3)):.6f} everywhere (sqrt(c/Omega))")
