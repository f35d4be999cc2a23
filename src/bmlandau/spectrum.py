"""The three energy ladders, the l-degeneracy splitting and the ordering sweep.

QM   : textbook symmetric-gauge spectrum, degenerate for s*l >= 0
EL   : invariant-structure route, hbar omega_c (n_r + 1/2) plus the
       field-sign term (hbar l / 2m)(|eB| - eB)
CBR  : canonically regularised route with the Langer-type shift
       nu = sqrt(l^2 + 1/4) lifting the l-degeneracy.

All three share the axial free-particle term hbar^2 k_z^2 / 2m, and for
eB > 0, l >= 1 they are ordered E_QM <= E_EL <= E_CBR.  ``energy``
evaluates any one of them on whole arrays of quantum numbers.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import PhysParams


class SpectrumModel(Enum):
    QM = "qm"
    EL = "el"
    CBR = "cbr"


# model -> transverse term in the cyclotron quantum hw = hbar omega_c, for float
# arrays n = n_r and l; energy adds the shared axial term
_TRANSVERSE = {
    SpectrumModel.QM: lambda n, l, hw, p: hw * (n + (np.abs(l) - math.copysign(1.0, p.eB) * l) / 2.0 + 0.5),
    SpectrumModel.EL: lambda n, l, hw, p: hw * (n + 0.5) + (p.hbar * l / (2.0 * p.mass)) * (abs(p.eB) - p.eB),
    SpectrumModel.CBR: lambda n, l, hw, p: hw / 2.0 * (2.0 * n + np.sqrt(l * l + 0.25) + 1.0),
}


def energy(model: SpectrumModel, n_r, l, k_z, params: PhysParams):
    """Energy of the states (n_r, l, k_z), broadcast together, on one ladder.

    A float for scalar input, else an array.  n_r < 0 is a ValueError, and
    so is a non-finite energy, for the first such state in row order (its
    flat index is the error's ``state``): the axial term leaves the float
    range (inf, or nan at k_z = 0) when hbar or k_z is too large.
    """
    n_r, l, k_z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (n_r, l, k_z)))
    if np.any(n_r < 0):
        raise ValueError("radial quantum number n_r must be >= 0")
    hb, m = params.hbar, params.mass
    with np.errstate(over="ignore", invalid="ignore"):
        e = _TRANSVERSE[model](n_r, l, hb * params.omega_c, params) + hb * hb * k_z * k_z / (2.0 * m)
    if not np.all(np.isfinite(e)):
        i = int(np.argmin(np.isfinite(e)))  # the first non-finite state in row order
        err = ValueError(
            f"{model.value} energy out of range for hbar = {hb:g}, k_z = {float(k_z.flat[i]):g} "
            f"(got {float(e.flat[i])})"
        )
        err.state = i  # lets a caller over several ladders name the first state
        raise err
    return float(e) if e.ndim == 0 else e


def degeneracy_splitting(l: int, params: PhysParams) -> float:
    """Non-cyclotronic term (hbar omega_c / 2) sqrt(l^2 + 1/4); even in l."""
    return params.hbar * params.omega_c / 2.0 * math.sqrt(l * l + 0.25)


def ordering_flags(l, e_qm, e_el, e_cbr) -> np.ndarray:
    """Per state, "ok" where E_QM <= E_EL <= E_CBR holds, "violated" where it
    fails and "n/a" where the ordering is not stated (l < 1).  The one
    ordering test, shared by the sweep and the CLI's ordering column."""
    holds = (np.asarray(e_qm) <= e_el) & (np.asarray(e_el) <= e_cbr)
    return np.where(np.asarray(l) < 1, "n/a", np.where(holds, "ok", "violated"))


def spectral_ordering_check(n_r, l, k_z, params: PhysParams) -> np.ndarray:
    """Violation mask of the ordering over the states (n_r, l, k_z), all l >= 1."""
    flags = ordering_flags(l, *(energy(model, n_r, l, k_z, params) for model in SpectrumModel))
    if np.any(flags == "n/a"):
        raise ValueError("ordering sweep is stated for l >= 1")
    return flags == "violated"


def default_ordering_grid():
    """The standard sweep grid, ravelled: n_r in 0..10, l in 1..10, k_z in (0, 1, 2), k_z fastest."""
    grid = np.meshgrid(np.arange(11), np.arange(1, 11), (0.0, 1.0, 2.0), indexing="ij")
    return tuple(a.ravel() for a in grid)
