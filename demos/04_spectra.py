#!/usr/bin/env python3
"""The three energy ladders and the degeneracy-lifting term.

In natural units (hbar = m = e = B = 1):

  E_QM  = n_r + (|l| - l)/2 + 1/2 + k_z^2/2      (textbook, l-degenerate)
  E_EL  = n_r + 1/2 + k_z^2/2                    (invariant route, eB > 0)
  E_CBR = (2 n_r + sqrt(l^2 + 1/4) + 1)/2 + k_z^2/2

The shell-regularised ladder carries the non-cyclotronic term
(omega_c/2) sqrt(l^2 + 1/4) that lifts the l-degeneracy; for l >= 1 the
three ladders are ordered E_QM <= E_EL <= E_CBR.
"""

import numpy as np

from bmlandau import (
    PhysParams,
    SpectrumModel,
    default_ordering_grid,
    degeneracy_splitting,
    energy,
    spectral_ordering_check,
)

params = PhysParams()

# the lowest states as whole arrays, l fastest
n_r_grid, l_grid = (a.ravel() for a in np.meshgrid(np.arange(3), np.arange(4), indexing="ij"))
e_qm, e_el, e_cbr = (energy(model, n_r_grid, l_grid, 0.0, params) for model in SpectrumModel)
print("lowest states (k_z = 0):")
print(f"{'n_r':>4} {'l':>3} {'E_QM':>10} {'E_EL':>10} {'E_CBR':>12}")
for row in zip(n_r_grid, l_grid, e_qm, e_el, e_cbr):
    print("{:>4} {:>3} {:>10.6f} {:>10.6f} {:>12.8f}".format(*row))

print("\ndegeneracy-lifting term (omega_c/2) sqrt(l^2 + 1/4):")
for l in range(0, 6):
    print(f"  l = {l}: {degeneracy_splitting(l, params):.8f}")

violated = spectral_ordering_check(*default_ordering_grid(), params)
print(
    f"\nordering sweep n_r in [0,10], l in [1,10], k_z in (0,1,2): "
    f"{violated.size} states, {np.count_nonzero(violated)} violations"
)

triple = [energy(model, 0, 1, 0.0, params) for model in SpectrumModel]
print(f"\nreference triple at (0, 1, 0): ({triple[0]}, {triple[1]}, {triple[2]:.7f})")
