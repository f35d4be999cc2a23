"""Shared parameter and profile containers used across the package.

Natural units hbar = m = e = B = 1 are the defaults everywhere, so the
formulas in the separated-sector modules are directly recognisable in any
emitted output.  All derived scales (beta, omega_c) are recomputed from the
primary constants on access and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the cyclotron problem.

    beta = e*B/(2*hbar) carries the sign of the charge; omega_c = |e|B/m
    is always positive.
    """

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    B: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.hbar, self.mass, self.charge, self.B)):
            raise ValueError("hbar, mass, charge and B must be finite")
        if not (self.hbar > 0 and self.mass > 0 and self.B > 0):
            raise ValueError("hbar, mass and B must be positive")

    @property
    def beta(self) -> float:
        return self.charge * self.B / (2.0 * self.hbar)

    @property
    def omega_c(self) -> float:
        return abs(self.charge) * self.B / self.mass

    @property
    def eB(self) -> float:
        return self.charge * self.B


@dataclass(frozen=True)
class QuantumNumbers:
    """Labels (n_r, l, k_z) of a stationary state."""

    n_r: int
    l: int = 0
    k_z: float = 0.0

    def __post_init__(self):
        if self.n_r < 0:
            raise ValueError("radial quantum number n_r must be >= 0")
        if not math.isfinite(self.k_z):
            raise ValueError("axial wavenumber k_z must be finite")


@dataclass(frozen=True)
class CurrentBranch:
    """Sectorial current constants with the conservation constraint."""

    C_r: float
    C_theta: float
    C_z: float

    def __post_init__(self):
        total = self.C_r + self.C_theta + self.C_z
        scale = max(1.0, abs(self.C_r), abs(self.C_theta), abs(self.C_z))
        if abs(total) > 1e-14 * scale:
            raise ValueError("sectorial currents must satisfy C_r + C_theta + C_z = 0")


@dataclass
class SampledProfile:
    """A strictly increasing coordinate grid plus the values sampled on it.

    The values keep their dtype, so a complex amplitude stays complex;
    ``step`` gives the spacing of a uniform grid.  Carrier of the sampled
    profiles that ``oracle.fd_residual`` and ``flux.theta_from_w`` take.
    """

    coordinate: str
    grid: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values)
        if self.grid.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        if len(self.values) != len(self.grid):
            raise ValueError("grid and values must have equal length")
        if len(self.grid) >= 2 and not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")

    def step(self) -> float:
        """Uniform grid spacing; raises if the grid is not uniform."""
        return uniform_step(self.grid)


def uniform_step(grid) -> float:
    """Spacing of a uniform grid; ValueError if it is too short or not uniform."""
    h = np.diff(grid)
    if h.size == 0:
        raise ValueError("grid too short to have a step")
    if not np.allclose(h, h[0], rtol=1e-10, atol=0.0):
        raise ValueError("grid is not uniformly spaced")
    return float(h[0])


def _radius(r):
    """r as a float array; ValueError naming the first r < 0, where no radial amplitude is defined."""
    r = np.asarray(r, dtype=float)
    negative = r < 0
    if np.any(negative):
        raise ValueError(f"radial coordinate r must be >= 0 (got r = {r[negative][0]:g})")
    return r


def _radial_argument(r, beta: float):
    """(r, x = beta r^2) of the radial amplitudes, r as a float array; ValueError where r < 0 or x overflows."""
    r = _radius(r)
    with np.errstate(over="ignore"):
        x = beta * r * r
    overflow = np.isinf(x)
    if np.any(overflow):
        raise ValueError(f"radial argument x = beta r^2 overflows the float range at r = {r[overflow][0]:g}")
    return r, x
