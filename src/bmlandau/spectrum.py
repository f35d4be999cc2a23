"""The three energy spectra and the l-degeneracy splitting.

QM   : textbook symmetric-gauge spectrum, degenerate for s*l >= 0
EL   : invariant-structure route, hbar omega_c (n_r + 1/2) plus the
       field-sign term (hbar l / 2m)(|eB| - eB)
CBR  : canonically regularised route with the Langer-type shift
       nu = sqrt(l^2 + 1/4) lifting the l-degeneracy.

All three share the axial free-particle term hbar^2 k_z^2 / 2m, and for
eB > 0, l >= 1 they are ordered E_QM <= E_EL <= E_CBR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .core import PhysParams, QuantumNumbers
from .sectors import energy_el


class SpectrumModel(Enum):
    QM = "qm"
    EL = "el"
    CBR = "cbr"


def energy_qm(qn: QuantumNumbers, params: PhysParams) -> float:
    """Standard spectrum E = hbar omega_c (n_r + (|l| - s l)/2 + 1/2) + axial, s = sign(eB)."""
    s = math.copysign(1.0, params.eB)
    hb, m = params.hbar, params.mass
    return (
        hb * params.omega_c * (qn.n_r + (abs(qn.l) - s * qn.l) / 2.0 + 0.5)
        + hb * hb * qn.k_z * qn.k_z / (2.0 * m)
    )


def energy_cbr(qn: QuantumNumbers, params: PhysParams) -> float:
    """Regularised spectrum E = (hbar omega_c / 2)(2 n_r + sqrt(l^2 + 1/4) + 1) + axial."""
    hb, m = params.hbar, params.mass
    nu = math.sqrt(qn.l * qn.l + 0.25)
    return hb * params.omega_c / 2.0 * (2.0 * qn.n_r + nu + 1.0) + hb * hb * qn.k_z * qn.k_z / (2.0 * m)


def energy(model: SpectrumModel, qn: QuantumNumbers, params: PhysParams) -> float:
    """Energy of the state qn on one ladder; a non-finite energy is a ValueError.

    The axial term hbar^2 k_z^2 / 2m leaves the float range (inf, or nan
    at k_z = 0) when hbar or k_z is too large.
    """
    if model is SpectrumModel.QM:
        e = energy_qm(qn, params)
    elif model is SpectrumModel.EL:
        e = energy_el(qn, params)
    else:
        e = energy_cbr(qn, params)
    if not math.isfinite(e):
        raise ValueError(f"{model.value} energy out of range for hbar = {params.hbar:g}, k_z = {qn.k_z:g} (got {e})")
    return e


def degeneracy_splitting(l: int, params: PhysParams) -> float:
    """Non-cyclotronic term (hbar omega_c / 2) sqrt(l^2 + 1/4); even in l."""
    return params.hbar * params.omega_c / 2.0 * math.sqrt(l * l + 0.25)


@dataclass
class OrderingReport:
    """Outcome of an E_QM <= E_EL <= E_CBR sweep over quantum numbers."""

    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def ordering_holds(qn: QuantumNumbers, e_qm: float, e_el: float, e_cbr: float) -> bool | None:
    """Whether E_QM <= E_EL <= E_CBR holds for the state qn; None where the
    ordering is not stated (l < 1).  The one ordering test, shared by the
    sweep and the CLI's ordering column."""
    if qn.l < 1:
        return None
    return e_qm <= e_el <= e_cbr


def spectral_ordering_check(qn_grid, params: PhysParams) -> OrderingReport:
    """Verify the ordering on a grid of states with l >= 1.

    Each violating state is reported as (qn, E_QM, E_EL, E_CBR).
    """
    report = OrderingReport()
    for qn in qn_grid:
        e_qm = energy_qm(qn, params)
        e_el = energy_el(qn, params)
        e_cbr = energy_cbr(qn, params)
        ordered = ordering_holds(qn, e_qm, e_el, e_cbr)
        if ordered is None:
            raise ValueError("ordering sweep is stated for l >= 1")
        report.checked += 1
        if not ordered:
            report.violations.append((qn, e_qm, e_el, e_cbr))
    return report


def default_ordering_grid(n_r_max: int = 10, l_max: int = 10, k_z_values=(0.0, 1.0, 2.0)):
    """The standard sweep grid: n_r in [0, n_r_max], l in [1, l_max]."""
    return [
        QuantumNumbers(n, l, kz)
        for n in range(n_r_max + 1)
        for l in range(1, l_max + 1)
        for kz in k_z_values
    ]
