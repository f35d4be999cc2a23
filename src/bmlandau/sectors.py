"""Zero-current sector amplitudes and effective frequencies.

The three separated sectors of the cyclotron problem in cylindrical
coordinates carry the effective frequencies

    Omega_r^2(r)     = kappa_r^2 - beta^2 r^2
    Omega_theta^2(r) = l^2 - 2 beta l r^2   (r enters as a parameter)
    Omega_z^2        = k_z^2

with beta = e B / (2 hbar).  The radial basis pairs a Gaussian-weighted
Kummer function with its odd partner at the common eigenvalue
kappa^2 = beta (1 - 4a), so both members solve one Liouville-normal
equation and the Pinney construction applies.  The azimuthal and axial
amplitudes share one fixed-frequency trigonometric form,
``trig_amplitude(coef, omega)`` with omega = Omega_theta or k_z.
The Ermakov-Lewis energy ladder lives with the other two in ``spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import PhysParams, QuantumNumbers, _radial_argument, _require_finite
from .ermakov import EPCoefficients, LinearPair, pinney_amplitude
from .specfun import hyp1f1, hyp1f1_deriv


def radial_kappa_sq(a: float, params: PhysParams) -> float:
    """Common eigenvalue kappa^2 = beta (1 - 4a) of the radial basis pair.

    a = -n_r reproduces the quantised even family kappa^2 = beta (4 n_r + 1).
    """
    return params.beta * (1.0 - 4.0 * a)


def radial_basis(a, params: PhysParams) -> LinearPair:
    """Even/odd Weber-type solutions of chi'' + (kappa^2 - beta^2 r^2) chi = 0.

    u1(r) = exp(-beta r^2/2) 1F1(a, 1/2; beta r^2)
    u2(r) = r exp(-beta r^2/2) 1F1(a + 1/2, 3/2; beta r^2)

    Both solve the same equation with kappa^2 = beta (1 - 4a); the
    Wronskian is exactly 1 (value at r = 0).  Derivatives use the
    contiguous relation for d/dx 1F1, never finite differences, so
    ``values`` makes four Kummer sweeps: 1F1(a, 1/2), 1F1(a+1, 3/2),
    1F1(a+1/2, 3/2) and 1F1(a+3/2, 5/2); ``u`` makes the first and third.
    Raises ValueError where r < 0 and where beta r^2 overflows the float
    range.
    """
    beta = params.beta

    def u(r):
        r, x = _radial_argument(r, beta)
        gauss = np.exp(-x / 2.0)
        return gauss * hyp1f1(a, 0.5, x), r * gauss * hyp1f1(a + 0.5, 1.5, x)

    def values(r):
        r, x = _radial_argument(r, beta)
        gauss = np.exp(-x / 2.0)
        f1, df1 = hyp1f1(a, 0.5, x), hyp1f1_deriv(a, 0.5, x)
        f2, df2 = hyp1f1(a + 0.5, 1.5, x), hyp1f1_deriv(a + 0.5, 1.5, x)
        return (
            gauss * f1,
            r * gauss * f2,
            beta * r * gauss * (2.0 * df1 - f1),
            gauss * (f2 * (1.0 - x) + 2.0 * x * df2),
        )

    return LinearPair(u=u, values=values, wronskian=1.0)


def trig_pair(omega: float) -> LinearPair:
    """cos/sin solutions of y'' + omega^2 y = 0; Wronskian = omega.

    Raises ValueError, naming q, where the phase omega q overflows the
    float range.
    """

    def phase(q):
        q = np.asarray(q, dtype=float)
        with np.errstate(over="ignore"):  # an infinite phase is refused below
            t = omega * q
        return _require_finite(t, q, "phase omega q", "q", f" (omega = {omega:g})")

    def u(q):
        t = phase(q)
        return np.cos(t), np.sin(t)

    def values(q):
        cos, sin = u(q)
        return cos, sin, -omega * sin, omega * cos

    return LinearPair(u=u, values=values, wronskian=omega)


def trig_amplitude(coef: EPCoefficients, omega: float) -> Callable:
    """Pinney amplitude of a fixed-frequency sector (azimuthal Omega_theta or axial k_z).

    sigma(q) = sqrt(A cos^2 + B sin^2 + 2 D sin cos) of omega q, with the
    Wronskian W = omega, requiring A*B - D^2 = c^2/omega^2.
    """
    if omega == 0:
        raise ValueError("trigonometric amplitude needs a nonzero frequency")
    return pinney_amplitude(trig_pair(omega), coef)


@dataclass
class SectorFrequencies:
    """The three effective frequencies of one state."""

    omega_r_sq: Callable
    omega_theta_sq: Callable
    omega_z_sq: float


def sector_frequencies(kappa_r_sq: float, qn: QuantumNumbers, params: PhysParams) -> SectorFrequencies:
    beta = params.beta
    l = qn.l
    return SectorFrequencies(
        omega_r_sq=lambda r: kappa_r_sq - (beta * np.asarray(r, dtype=float)) ** 2,
        omega_theta_sq=lambda r: l * l - 2.0 * beta * l * np.asarray(r, dtype=float) ** 2,
        omega_z_sq=qn.k_z**2,
    )

