"""Ermakov-Pinney machinery for the separated amplitude sectors.

A linear Sturm-Liouville equation y'' + Omega^2(q) y = 0 with two
independent solutions (u1, u2) of constant Wronskian W admits the Pinney
partner amplitude

    sigma(q) = sqrt(A u1^2 + B u2^2 + 2 D u1 u2),

which solves sigma'' + Omega^2 sigma = c^2 / sigma^3 whenever
A*B - D^2 = c^2 / W^2.  Along any linear solution y the pair carries the
conserved Ermakov-Lewis quantity

    I = (1/2) [ (sigma y' - sigma' y)^2 + k (y / sigma)^2 ],  k = c^2.

``pinney_residual`` checks the Pinney equation with Omega^2 given as a plain callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SampledProfile, _require_finite
from .oracle import fd_residual


@dataclass
class LinearPair:
    """Two independent solutions of one linear equation, with derivatives.

    ``u(q)`` returns (u1, u2) and ``values(q)`` returns (u1, u2, u1', u2'),
    each from one evaluation, so work the solutions share (a Gaussian, a
    Kummer sweep, a phase) is done once.  The amplitude sigma needs only
    ``u``; its derivative and the invariant need ``values``.
    """

    u: Callable
    values: Callable
    wronskian: float

    def wronskian_at(self, q):
        v1, v2, d1, d2 = self.values(q)
        return v1 * d2 - v2 * d1


@dataclass(frozen=True)
class EPCoefficients:
    """Quadratic-form weights (A, B, D) tied to flux magnitude c and Wronskian W.

    A*B - D^2 and c must be finite; weights past the float range raise ValueError.
    """

    A: float
    B: float
    D: float
    c: float
    W: float

    def __post_init__(self):
        if self.W == 0:
            raise ValueError("Wronskian must be nonzero")
        det = self.A * self.B - self.D * self.D
        if not (np.isfinite(det) and np.isfinite(self.c)):
            raise ValueError(f"EP coefficients leave the float range (A*B - D^2 = {det:g}, c = {self.c:g})")
        target = (self.c / self.W) ** 2
        scale = max(abs(det), abs(target), 1e-300)
        if abs(det - target) > 1e-12 * scale:
            raise ValueError("EP coefficients violate A*B - D^2 = c^2/W^2")
        if not (self.A > 0 or self.B > 0):
            raise ValueError("EP coefficients give a trivial amplitude (need A > 0 or B > 0)")


def ep_coefficients(A: float, B: float, D: float, wronskian: float) -> EPCoefficients:
    """Build EPCoefficients with c fixed by the constraint c = |W| sqrt(AB - D^2)."""
    det = A * B - D * D
    if det < 0:
        raise ValueError("A*B - D^2 must be nonnegative for a real flux constant")
    return EPCoefficients(A, B, D, abs(wronskian) * math.sqrt(det), wronskian)


def pinney_sigma(coef: EPCoefficients, v1, v2):
    """sigma = sqrt(A u1^2 + B u2^2 + 2 D u1 u2) from the values u1, u2.

    A negative radicand anywhere signals an inadmissible coefficient
    choice and raises; it is never clamped.
    """
    radicand = coef.A * v1 * v1 + coef.B * v2 * v2 + 2.0 * coef.D * v1 * v2
    if np.any(np.asarray(radicand) < 0):
        raise ValueError("amplitude radicand negative: inadmissible EP coefficients")
    return np.sqrt(radicand)


def pinney_sigma_prime(coef: EPCoefficients, v1, v2, d1, d2, sigma):
    """sigma' = (A u1 u1' + B u2 u2' + D (u1' u2 + u1 u2')) / sigma from values."""
    num = coef.A * v1 * d1 + coef.B * v2 * d2 + coef.D * (d1 * v2 + v1 * d2)
    return num / sigma


def pinney_amplitude(pair: LinearPair, coef: EPCoefficients) -> Callable:
    """Return sigma(q) = sqrt(A u1^2 + B u2^2 + 2 D u1 u2).

    Evaluates only u1 and u2, in one ``pair.u(q)`` call.  A negative
    radicand anywhere on the requested points signals an inadmissible
    coefficient choice and raises; it is never clamped.  A sigma past the
    float range raises ValueError naming the first such q.
    """
    _check_pair_coef(pair, coef)

    def sigma(q):
        return _finite_sigma(coef, *pair.u(q), q)

    return sigma


def pinney_derivative(pair: LinearPair, coef: EPCoefficients) -> Callable:
    """Analytic sigma'(q) of the Pinney amplitude (no finite differences).

    One ``pair.values(q)`` call gives u1, u2 and their derivatives, and
    sigma is built from the same u1, u2; a negative radicand or a sigma
    past the float range raises as in ``pinney_amplitude``.
    """
    _check_pair_coef(pair, coef)

    def dsigma(q):
        v1, v2, d1, d2 = pair.values(q)
        return pinney_sigma_prime(coef, v1, v2, d1, d2, _finite_sigma(coef, v1, v2, q))

    return dsigma


def _finite_sigma(coef: EPCoefficients, v1, v2, q):
    """pinney_sigma of the values v1, v2 at the points q; ValueError naming
    the first q where sigma is past the float range."""
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite radicand is refused below
        value = pinney_sigma(coef, v1, v2)
    return _require_finite(value, np.asarray(q, dtype=float), "Pinney amplitude sigma", "q")


def _check_pair_coef(pair: LinearPair, coef: EPCoefficients):
    if abs(coef.W - pair.wronskian) > 1e-9 * max(1.0, abs(pair.wronskian)):
        raise ValueError("EP coefficients were built for a different Wronskian")


def ermakov_invariant(y, dy, sigma, dsigma, k):
    """Ermakov-Lewis invariant I = (1/2)[(sigma dy - dsigma y)^2 + k (y/sigma)^2]."""
    if np.any(np.asarray(sigma) == 0):
        raise ValueError("invariant undefined at amplitude node (sigma = 0)")
    cross = sigma * dy - dsigma * y
    return 0.5 * (cross * cross + k * (y / sigma) ** 2)


def pinney_residual(sigma: Callable, omega_sq: Callable, c: float, grid) -> float:
    """Max |sigma'' + Omega^2 sigma - c^2/sigma^3| over interior grid points.

    ``omega_sq(q)`` is the sector's frequency Omega^2 at the points q.
    Fourth-order five-point differences on a uniform grid of >= 5 points;
    the reported value converges as O(h^4) for a true Pinney amplitude.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(sigma(grid), dtype=float)
    if np.any(values == 0):
        raise ValueError("node inside residual window (sigma = 0 on grid)")
    c_sq = c * c

    def ode_form(y, dy, d2y, q):
        return d2y + omega_sq(q) * y - c_sq / y**3

    return fd_residual(SampledProfile(grid, values), ode_form).max_abs
