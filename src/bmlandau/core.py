"""Shared parameter containers and the checks of sampled grids and values.

``uniform_step`` is the one check of a sampled grid; ``_require_finite``
the one refusal of a value past the float range, naming where it occurs.
Natural units hbar = m = e = B = 1 are the defaults everywhere, so the
formulas in the separated-sector modules are directly recognisable in any
emitted output.  All derived scales (beta, omega_c) are recomputed from the
primary constants on access and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Values sampled on a grid, as ``oracle.fd_residual`` takes them.

    The values keep their dtype, so a complex amplitude stays complex.
    The grid is checked by ``step``, which is ``uniform_step``.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values)
        if self.values.shape[:1] != self.grid.shape[:1]:
            raise ValueError("grid and values must have equal length")

    def step(self) -> float:
        return uniform_step(self.grid)


def uniform_step(grid) -> float:
    """Spacing of a 1-D, increasing, uniform grid of at least 2 points; ValueError naming the first rule it breaks."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("grid must be one-dimensional")
    h = np.diff(grid)
    if h.size == 0:
        raise ValueError("grid too short to have a step")
    if not h[0] > 0:
        raise ValueError("grid must be strictly increasing")
    if not np.allclose(h, h[0], rtol=1e-10, atol=0.0):
        raise ValueError("grid is not uniformly spaced")
    return float(h[0])


def _require_finite(value, q, what: str, name: str, note: str = ""):
    """value, an array formed over the points q (an array of its shape) with overflow ignored.

    Raises ValueError "<what> overflows the float range at <name> = <q><note>"
    with the first q where value is not finite.
    """
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"{what} overflows the float range at {name} = {q[~finite][0]:g}{note}")
    return value


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
    with np.errstate(over="ignore"):  # an infinite x is refused below
        x = beta * r * r
    return r, _require_finite(x, r, "radial argument x = beta r^2", "r")
