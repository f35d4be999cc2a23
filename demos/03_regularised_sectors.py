#!/usr/bin/env python3
"""Canonical shell regularisation: sector profiles and the obstruction.

Under the closure q p = hbar/2 each separated equation picks up an
inverse-square term.  Radial and axial sectors stay globally real:

  R(r) = r^nu exp(-beta r^2/2) 1F1(-n_r, nu+1; beta r^2),  nu = sqrt(l^2+1/4)
  Z(z) = sqrt(z) J_{1/sqrt2}(k_z z)

but the azimuthal equation maps onto the Whittaker equation with the
imaginary argument 2 i l theta, and its solutions are genuinely complex
once flux is enclosed.  A real profile survives branch-wise:

  Theta = sqrt(A) |theta|^{1/2} |1-2 phi theta|^{-(1+kappa/(2 phi^2))/2}
          exp(-kappa theta/(2 phi))

with admissibility of the current triple decided by branch_assignment.
"""

import numpy as np

from bmlandau import (
    LocalBranchParams,
    PhysParams,
    QuantumNumbers,
    SampledProfile,
    SpectrumModel,
    axial_regularised,
    azimuthal_whittaker,
    bohm_energy_residual,
    branch_assignment,
    energy,
    fd_residual,
    radial_regularised,
    theta_local_branch,
)
from bmlandau.regular import RegularisedLabels

params = PhysParams()
qn = QuantumNumbers(1, 1, 1.0)
labels = RegularisedLabels.from_quantum_numbers(qn)
print(f"state (n_r, l, k_z) = (1, 1, 1): nu = {labels.nu:.6f}, kappa_r^2 = {labels.kappa_r_sq(params.beta):.6f}")

# residuals of the three governing equations, central differences -------
R = radial_regularised(qn, params)
grid_r = np.arange(0.2, 3.0, 2e-4)
chi = np.sqrt(grid_r) * R(grid_r)
nu, k2 = labels.nu, labels.kappa_r_sq(params.beta)
rep_r = fd_residual(
    SampledProfile("r", grid_r, chi),
    lambda y, dy, d2y, q: d2y + (k2 - (params.beta * q) ** 2 - (nu * nu - 0.25) / q**2) * y,
)

Z = axial_regularised(qn.k_z)
grid_z = np.arange(0.2, 5.0, 2e-4)
rep_z = fd_residual(
    SampledProfile("z", grid_z, Z(grid_z)),
    lambda y, dy, d2y, q: -d2y + y / (4 * q * q) - qn.k_z**2 * y,
)

phi = params.beta * 1.0**2  # flux ratio at r = 1
grid_t = np.arange(0.2, 2.0, 1e-4)
Theta = azimuthal_whittaker(grid_t, qn.l, phi, 1.0, 0.0)
rep_t = fd_residual(
    SampledProfile("theta", grid_t, Theta),
    lambda y, dy, d2y, q: d2y + (qn.l**2 + phi / q - 1 / (4 * q * q)) * y,
)

print("\nODE residuals of the regularised sector equations (central differences):")
print(f"  radial chi:        {rep_r.max_abs:.2e}")
print(f"  axial sqrt(z) J:   {rep_z.max_abs:.2e}")
print(f"  azimuthal Theta:   {rep_t.max_abs:.2e} (complex)")

imb = np.max(np.abs(Theta.imag)) / np.max(np.abs(Theta))
print(f"\nobstruction: max |Im Theta| / max |Theta| = {imb:.3f} at phi = {phi} (nonreal)")

# energy balance at the regularised spectrum ----------------------------
E = energy(SpectrumModel.CBR, qn.n_r, qn.l, qn.k_z, params)
hb = params.hbar
pt = (0.9, 0.4, 0.6)
res = bohm_energy_residual(
    R, lambda t: azimuthal_whittaker(t, qn.l, params.beta * pt[0] ** 2, 1.0, 0.3 + 0.2j), Z,
    hb / (2 * pt[0]), hb / (2 * pt[0] * pt[1]), hb / (2 * pt[2]), E, params, pt,
)
print(f"\nenergy balance with p_i = hbar/(2 q_i) at E = {E:.6f}: |residual| = {abs(res):.2e}")

# the real local branch and the admissible current triples --------------
p_local = LocalBranchParams(A_theta=1.0, phi=0.8, kappa=0.3)
th = np.array([0.05, 0.15, 0.3, 0.5])
print("\nlocal real branch (phi = 0.8, kappa = 0.3):")
print("  theta:", th)
print("  Theta:", np.array2string(theta_local_branch(th, p_local), precision=6))
print(f"  flux-controlled singularity at theta = {1 / (2 * 0.8):.4f}")

print("\ncurrent-triple classification:")
for c_r, c_z in ((-1.0, -2.0), (-1.0, 1.0), (1.0, 1.0), (-1.0, 0.5)):
    branch, label = branch_assignment(c_r, c_z)
    print(f"  C_r = {c_r:+.1f}, C_z = {c_z:+.1f} -> C_theta = {branch.C_theta:+.1f}  [{label}]")
