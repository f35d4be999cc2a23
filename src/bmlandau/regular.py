"""Canonical (shell) regularisation: closed-form sector amplitudes.

The local closure q_i p_i = hbar/2 adds inverse-square terms to each
separated equation.  The radial sector becomes a Langer-shifted central
problem with nu = sqrt(l^2 + 1/4) and regular solution
r^nu exp(-beta r^2/2) 1F1(-n_r, nu+1; beta r^2); the axial sector becomes
the inverse-square free problem solved by sqrt(z) J_{1/sqrt2}(k_z z); the
azimuthal sector maps onto the Whittaker equation with imaginary argument
2 i l theta and is generically complex.  A real branch-wise azimuthal
profile exists locally, controlled by the flux ratio phi = beta r^2 and
the scaled current kappa = r^2 C_theta / hbar; it is evaluated without
1/phi, so it holds down to phi = 0.  The admissible current assignments
follow from damping requirements on the radial/axial sectors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CurrentBranch, PhysParams, QuantumNumbers, _radial_argument, _radius, _require_finite
from .specfun import bessel_j, hyp1f1, whittaker_m, whittaker_mw

AXIAL_ORDER = 1.0 / math.sqrt(2.0)
WHITTAKER_MU = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class RegularisedLabels:
    """Langer-shifted order nu = sqrt(l^2 + 1/4) and Kummer label a_r = -n_r."""

    nu: float
    a_r: float

    @classmethod
    def from_quantum_numbers(cls, qn: QuantumNumbers) -> "RegularisedLabels":
        return cls(nu=math.sqrt(qn.l * qn.l + 0.25), a_r=-float(qn.n_r))

    def kappa_r_sq(self, params: PhysParams) -> float:
        """Radial eigenvalue from the quantisation identity (nu+1)/2 - kappa^2/(4 beta) = a_r.

        Equivalently kappa^2 = 2 beta (2 n_r + nu + 1), the value under
        which chi = sqrt(r) R solves its Langer-corrected equation and
        (hbar^2/2m) kappa^2 reproduces the regularised transverse energy.
        """
        return 4.0 * params.beta * (0.5 * (self.nu + 1.0) - self.a_r)


@dataclass(frozen=True)
class LocalBranchParams:
    """Inputs of the real local azimuthal branch."""

    A_theta: float
    phi: float
    kappa: float

    def __post_init__(self):
        if not self.A_theta > 0:
            raise ValueError("A_theta must be positive")
        if not (math.isfinite(self.phi) and math.isfinite(self.kappa)):
            raise ValueError(
                f"local branch needs a finite flux ratio and current (got phi = {self.phi:g}, kappa = {self.kappa:g})"
            )


def local_branch_params(A_theta: float, r: float, C_theta: float, params: PhysParams) -> LocalBranchParams:
    """phi = beta r^2, kappa = r^2 C_theta / hbar (kappa carries the sign of C_theta)."""
    return LocalBranchParams(A_theta=A_theta, phi=params.beta * r * r, kappa=r * r * C_theta / params.hbar)


def radial_regularised(qn: QuantumNumbers, params: PhysParams) -> Callable:
    """Langer-corrected radial amplitude R(r) = r^nu e^{-beta r^2/2} 1F1(-n_r, nu+1; beta r^2).

    Normalisation C = 1, so R(r)/r^nu -> 1 as r -> 0+.  The scaled
    chi = sqrt(r) R solves chi'' + [kappa^2 - beta^2 r^2 - (nu^2 - 1/4)/r^2] chi = 0
    with kappa^2 fixed by the quantisation identity.  Raises ValueError
    where r < 0 and where beta r^2 or r^nu overflows the float range.
    """
    labels = RegularisedLabels.from_quantum_numbers(qn)
    beta = params.beta
    nu = labels.nu
    n_r = qn.n_r

    def R(r):
        r, x = _radial_argument(r, beta)
        with np.errstate(over="ignore"):  # an infinite power is refused below
            power = r**nu
        _require_finite(power, r, "radial power r^nu", "r", f" (nu = {nu:g})")
        return power * np.exp(-x / 2.0) * hyp1f1(-n_r, nu + 1.0, x)

    return R


def axial_regularised(k_z: float) -> Callable:
    """Axial amplitude Z(z) = sqrt(z) J_{1/sqrt2}(k_z z) on the half-line z > 0."""
    if not k_z > 0:
        raise ValueError("axial branch needs k_z > 0")

    def Z(z):
        z_arr = np.asarray(z, dtype=float)
        if np.any(z_arr <= 0):
            raise ValueError("axial branch defined on half-line; mirror by |z| at caller")
        with np.errstate(over="ignore"):  # bessel_j refuses an infinite argument
            k_z_z = k_z * z_arr
        return np.sqrt(z_arr) * bessel_j(AXIAL_ORDER, k_z_z)

    return Z


def azimuthal_whittaker(theta, l: int, phi: float, c1: complex, c2: complex):
    """General regularised azimuthal amplitude, generically complex.

    Theta(theta) = c1 M_{kappa,mu}(2 i l theta) + c2 W_{kappa,mu}(2 i l theta)
    with mu = 1/sqrt2 and kappa = -(i/(2l)) phi.  Solves
    Theta'' + (l^2 + phi/theta - 1/(4 theta^2)) Theta = 0.

    With c2 != 0 one ``whittaker_mw`` call gives M and W (two Kummer
    functions); with c2 == 0 only M is evaluated (one).  The domain is
    |phi| <= 6|l|, that is |Im a| <= 3 for the 1F1 parameter
    a = 1/2 + mu - kappa, where ``hyp1f1``'s continuation bound holds:
    against 40-digit mpmath at l = 1 and 3, |phi| <= 6|l| and
    0 < theta <= 6.28, M is within 4e-15 of |M| + |M'| and W within 4e-15
    relative.  Raises ValueError for phi outside that domain and where the
    amplitude overflows the float range.
    """
    if l == 0:
        raise ValueError("Whittaker map degenerate (x = 0 for l = 0)")
    if not abs(phi) <= 6 * abs(l):
        raise ValueError(f"flux ratio phi = {phi:g} out of validated range |phi| <= 6|l| = {6 * abs(l):g}")
    kappa = -1j * phi / (2.0 * l)
    th_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(th_arr == 0):
        raise ValueError("azimuthal amplitude undefined at theta = 0")
    x = 2j * l * th_arr
    out = np.zeros(th_arr.shape, dtype=complex)
    if c2 != 0:
        m, w = whittaker_mw(kappa, WHITTAKER_MU, x)
    elif c1 != 0:
        m = np.asarray(whittaker_m(kappa, WHITTAKER_MU, x))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite amplitude is refused below
        if c1 != 0:
            # m named, so numpy never multiplies it in place with the operands
            # swapped (a complex product rounds differently then): a point's bits
            # depend neither on the grid length nor on the blocks it is cut into
            out = out + c1 * m
        if c2 != 0:
            out = out + c2 * w
    _require_finite(out, th_arr, "Whittaker amplitude", "theta")
    return out if np.asarray(theta).ndim else complex(out[0])


def theta_local_branch(theta, p: LocalBranchParams):
    """Real branch-wise azimuthal profile of the flux-scaled continuity flow.

    Theta = sqrt(A) |theta|^{1/2} |1 - 2 phi theta|^{-(1 + kappa/(2 phi^2))/2}
            exp(-kappa theta / (2 phi)),
    evaluated without 1/phi as

    Theta = |theta|^{1/2} |1 + x|^{-1/2} exp(ln(A)/2 - kappa theta^2 h(x)),
            x = -2 phi theta,  h(x) = (log|1 + x| - x) / x^2,

    where h is summed by its series for |x| < 1/4 (log_remainder).  At
    phi = 0 this is the zero-flux limit sqrt(A theta) e^{kappa theta^2/2}.
    In natural units, with A = 1, |C_theta| <= 2 and 0 < |theta| <= min(20,
    0.95/(2 phi)), the relative error against 80-digit mpmath stays below
    1e-15 for r <= 1e-2 and below 5e-14 for r <= 2.  The larger bound is
    set near 1 - 2 phi theta = 0, by the rounding of 2 phi theta.
    Singular at theta = 0 (canonical regularisation point) and at
    1 - 2 phi theta = 0 (flux-controlled scale); no continuation through
    either is attempted.  Raises ValueError where the amplitude overflows
    the float range.
    """
    th = np.asarray(theta, dtype=float)
    if np.any(th == 0):
        raise ValueError("canonical inverse-square regularisation point (theta = 0)")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite amplitude is refused below
        x = -2.0 * p.phi * th
        core = 1.0 + x
        if np.any(core == 0):
            raise ValueError("flux-controlled singularity (1 - 2 phi theta = 0)")
        # kappa th and th h(x) stay finite where th^2 or x^2 would overflow;
        # sqrt(A) goes into the exponential, so that exp(exponent) cannot
        # overflow or underflow where the amplitude itself does not
        exponent = 0.5 * math.log(p.A_theta) - (p.kappa * th) * (th * log_remainder(x))
        out = np.sqrt(np.abs(th)) * np.abs(core) ** -0.5 * np.exp(exponent)
    _require_finite(out, th, "local branch amplitude", "theta")
    return out if np.asarray(theta).ndim else float(out)


# h(x) = -1/2 + x/3 - x^2/4 + ...; for |x| < 1/4 the 27 terms n <= 26 reach
# the last bit, since 4^-27 / 29 < 2^-53 / 2
_LOG_REMAINDER_SERIES = tuple((-1.0) ** (n + 1) / (n + 2) for n in range(27))


def log_remainder(x):
    """h(x) = (log|1 + x| - x) / x^2, free of cancellation near x = 0 (h(0) = -1/2).

    Summed by its Taylor series where |x| < 1/4 and from the logarithm
    elsewhere, divided by x twice so that x^2 cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.25
    xs = np.where(small, x, 0.0)
    series = np.full(x.shape, _LOG_REMAINDER_SERIES[-1])
    for c in _LOG_REMAINDER_SERIES[-2::-1]:
        series = c + xs * series
    xd = np.where(small, 1.0, x)
    return np.where(small, series, (np.log(np.abs(1.0 + xd)) - xd) / xd / xd)


def local_branch_log_density_slope(theta, p: LocalBranchParams):
    """d(ln Theta^2)/dtheta = (1/theta + 2 kappa theta) / (1 - 2 phi theta)."""
    th = np.asarray(theta, dtype=float)
    return (1.0 / th + 2.0 * p.kappa * th) / (1.0 - 2.0 * p.phi * th)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def damped_radial_profile(r, C_r: float, params: PhysParams):
    """Radial density under the canonical closure: R^2(r) = exp(C_r r^2 / hbar).

    Normalisable over r dr only for C_r < 0.  Raises ValueError where
    r < 0 and where the exponent C_r r^2 / hbar exceeds log(float max), so
    that the density would overflow.
    """
    r = _radius(r)
    with np.errstate(over="ignore"):  # an exponent of +-inf is tested or gives 0
        exponent = C_r * r * r / params.hbar
    if np.any(exponent > _LOG_FLOAT_MAX):
        raise ValueError(
            f"damped radial density overflows: C_r r^2/hbar reaches {np.max(exponent):.6g},"
            f" above log(float max) = {_LOG_FLOAT_MAX:.6g}"
        )
    out = np.exp(exponent)
    return out if np.asarray(r).ndim else float(out)


def radial_profile_normalisable(C_r: float) -> bool:
    return C_r < 0


def damped_axial_profile(z, C_z: float, params: PhysParams):
    """Axial amplitude Z(z) = |z|^{1/2} exp(-|C_z| z^2 / (2 hbar)).

    The node keeps its square-root behaviour; the current only deforms the
    envelope.  Log-derivative: Z'/Z = 1/(2z) + C_z z / hbar for C_z <= 0.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):  # the exponent overflows only to -inf, and exp(-inf) = 0
        # divided by hbar, then 2: 2 hbar is inf for hbar near float max
        envelope = np.exp(-abs(C_z) * z * z / params.hbar / 2.0)
    out = np.sqrt(np.abs(z)) * envelope
    return out if np.asarray(z).ndim else float(out)


def branch_assignment(C_r: float, C_z: float) -> tuple[CurrentBranch, str]:
    """Close the current triple with C_theta = -(C_r + C_z) and classify it.

    'compensating'   C_z = -C_r (azimuthal current vanishes)
    'componentwise'  C_r < 0 and C_z < 0 (both damping, C_theta > 0)
    'inadmissible'   C_theta < 0 (amplitude finiteness forces C_theta >= 0)
    'mixed'          admissible but neither named branch
    """
    C_theta = -(C_r + C_z)
    branch = CurrentBranch(C_r=C_r, C_theta=C_theta, C_z=C_z)
    if C_z == -C_r:
        label = "compensating"
    elif C_r < 0 and C_z < 0:
        label = "componentwise"
    elif C_theta < 0:
        label = "inadmissible"
    else:
        label = "mixed"
    return branch, label
