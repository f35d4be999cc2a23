"""Correctness gate: every benchmark output is checked outside the timed loop.

A request fails the gate when

- it exits with a non-zero code;
- a profile has the wrong row count, a grid column that differs from the
  requested grid, or a non-finite value.  An empty (gap) row is allowed
  only at a ``flow`` momentum pole, confirmed at 30 digits;
- a sampled row differs from an mpmath reference (``whitm``/``whitw``,
  ``hyp1f1``, ``besselj`` and the ``flow`` closed form, all at 30 digits)
  by more than ``REL_TOL`` times the profile scale, the largest magnitude
  in that column;
- a spectrum table has the wrong rows, energies or ordering flags;
- a verify report does not pass, or its set of check names is not the
  one registered at the commit that defined this benchmark;
- a repeated request is not byte-identical to its first output (the
  runner compares digests and reports mismatches here).

Natural units (hbar = m = e = B = 1, so beta = 1/2) throughout: the
benchmark never passes --config.
"""

from __future__ import annotations

import json
import math
import random

import mpmath as mp

# The worst sampled error at the commit that defined the benchmark is a
# few 1e-15 of the profile scale; 1e-12 is the accuracy the special
# function docstrings aim for, and the bar used here.
REL_TOL = 1e-12
SAMPLES_PER_PROFILE = 12
DIGITS = 30

EXPECTED_CHECKS = {
    "ep": (
        "ep.invariant_constancy", "ep.pinney_residual_radial", "ep.pinney_residual_theta",
        "ep.pinney_residual_axial", "ep.pinney_convergence", "ep.wronskian_constancy",
        "sectors.omega_theta_axis", "sectors.energy_el_degeneracy", "sectors.energy_el_values",
    ),
    "flux": (
        "flux.uw_vs_closed", "flux.action_derivative", "flux.nonlinpie_closed_form",
        "flux.uw_nonzero_current", "flux.f_linear_flow", "flux.f_branch_split",
        "flux.quadrature_arcsin", "flux.quadrature_roundtrip", "flux.theta_reconstruction",
        "flux.divergence_zero_current", "flux.divergence_nonzero_current",
        "flux.bohm_residual_el", "flux.bohm_residual_cbr", "flux.current_zero_sum",
    ),
    "regular": (
        "regular.radial_ode", "regular.axial_ode", "regular.whittaker_ode", "regular.obstruction",
        "regular.local_branch_logderiv", "regular.local_branch_kappa0",
        "regular.branch_bookkeeping", "regular.damped_profiles", "specfun.kummer_contiguity",
        "specfun.whittaker_equation", "specfun.bessel_half_order", "specfun.gamma_reflection",
        "specfun.whittaker_wronskian",
    ),
    "spectrum": (
        "spectrum.reference_values", "spectrum.ordering_sweep", "spectrum.splitting_positive",
        "spectrum.axial_term_shared",
    ),
}
ALL_CHECKS = tuple(name for names in EXPECTED_CHECKS.values() for name in names)

COLUMNS = {
    "flow": ["theta", "pi_theta", "s_theta"],
    "theta_whittaker": ["theta", "value", "value_im"],
    "r_regularised": ["r", "value"],
    "z_regularised": ["z", "value"],
    "r_ep": ["r", "value"],
}
SPECTRUM_COLUMNS = ["n_r", "l", "k_z", "model", "energy", "ordering"]


def parse_table(text: str, fmt: str):
    """(columns, rows) of a CSV or JSON table; empty CSV cells become None."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["columns"], payload["rows"]
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV output does not end with a newline")
    columns = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return columns, rows


def _number(cell):
    if cell is None or cell == "":
        return None
    return float(cell)


def sample_rows(req, n_rows: int) -> list[int]:
    """Row indices the gate compares with mpmath: both ends plus a seeded draw."""
    rng = random.Random(" ".join(req.argv))
    picks = {0, n_rows - 1}
    while len(picks) < min(SAMPLES_PER_PROFILE, n_rows):
        picks.add(rng.randrange(n_rows))
    return sorted(picks)


# ---------------------------------------------------------------------------
# mpmath references, natural units
# ---------------------------------------------------------------------------

def _flow_denominator(p, theta):
    lam, e = mp.mpf(p["Lambda"]), mp.mpf(p["E_pi"])
    delta = e * e - 64 * lam
    return e + mp.sqrt(delta) * mp.sin(2 * mp.sqrt(lam) * (mp.mpf(theta) - mp.mpf(p["theta0"])))


def _at_pole(p, theta) -> bool:
    with mp.workdps(DIGITS):
        return abs(_flow_denominator(p, theta)) <= 1e-12 * abs(p["E_pi"])


def _flow_ref(p, theta):
    lam, e = mp.mpf(p["Lambda"]), mp.mpf(p["E_pi"])
    th = mp.mpf(theta)
    delta = e * e - 64 * lam
    pi_theta = 8 * lam / _flow_denominator(p, theta)
    u = mp.sqrt(lam) * (th - mp.mpf(p["theta0"]))
    wrap = mp.floor(u / mp.pi + mp.mpf(1) / 2)
    base = mp.atan((e * mp.tan(u) + mp.sqrt(delta)) / (8 * mp.sqrt(lam)))
    s_theta = mp.sqrt(lam) * th + base + mp.pi * wrap  # phi = sqrt(Lambda) at l = 0
    return [pi_theta, s_theta]


def _whittaker_ref(p, theta):
    l = p["l"]
    phi = mp.mpf(p["r"]) ** 2 / 2
    kappa = -1j * phi / (2 * l)
    mu = 1 / mp.sqrt(2)
    x = 2j * l * mp.mpf(theta)
    value = mp.mpc(p["c1"]) * mp.whitm(kappa, mu, x)
    if p["c2"] != 0:
        value += mp.mpc(p["c2"]) * mp.whitw(kappa, mu, x)
    return [value]


def _radial_ref(p, r):
    r = mp.mpf(r)
    nu = mp.sqrt(p["l"] ** 2 + mp.mpf(1) / 4)
    x = r * r / 2
    return [r**nu * mp.exp(-x / 2) * mp.hyp1f1(-p["n_r"], nu + 1, x)]


def _axial_ref(p, z):
    z = mp.mpf(z)
    return [mp.sqrt(z) * mp.besselj(1 / mp.sqrt(2), mp.mpf(p["k_z"]) * z)]


def _ep_ref(p, r):
    r = mp.mpf(r)
    a = mp.mpf(p["a"])
    x = r * r / 2
    u1 = mp.exp(-x / 2) * mp.hyp1f1(a, mp.mpf(1) / 2, x)
    u2 = r * mp.exp(-x / 2) * mp.hyp1f1(a + mp.mpf(1) / 2, mp.mpf(3) / 2, x)
    A, B, D = (mp.mpf(p[k]) for k in "ABD")
    return [mp.sqrt(A * u1 * u1 + B * u2 * u2 + 2 * D * u1 * u2)]


REFERENCES = {
    "flow": _flow_ref,
    "theta_whittaker": _whittaker_ref,
    "r_regularised": _radial_ref,
    "z_regularised": _axial_ref,
    "r_ep": _ep_ref,
}


def reference_energies(n_r: int, l: int, k_z: float) -> dict:
    """E_QM, E_EL and E_CBR for eB > 0 in natural units (omega_c = 1)."""
    axial = mp.mpf(k_z) ** 2 / 2
    return {
        "qm": n_r + (abs(l) - l) / mp.mpf(2) + mp.mpf(1) / 2 + axial,
        "el": n_r + mp.mpf(1) / 2 + axial,
        "cbr": (2 * n_r + mp.sqrt(l * l + mp.mpf(1) / 4) + 1) / 2 + axial,
    }


# ---------------------------------------------------------------------------
# per-kind checks; each returns a list of failure messages
# ---------------------------------------------------------------------------

def _check_profile(req, text: str) -> list[str]:
    columns, rows = parse_table(text, req.fmt)
    want = COLUMNS[req.kind]
    if columns != want:
        return [f"columns {columns} != {want}"]
    if len(rows) != req.points:
        return [f"{len(rows)} rows for a {req.points}-point grid"]
    values = [[_number(c) for c in row] for row in rows]
    if any(len(row) != len(want) for row in values):
        return ["ragged row"]
    start, stop = req.params["start"], req.params["stop"]
    step = (stop - start) / (req.points - 1)
    fails = []
    for i, row in enumerate(values):
        grid = start + i * step if i < req.points - 1 else stop
        if row[0] is None or abs(row[0] - grid) > 1e-12 * max(abs(start), abs(stop)):
            fails.append(f"row {i}: grid value {row[0]!r}, expected {grid!r}")
            break
    scales = [0.0] * len(want)
    for i, row in enumerate(values):
        if any(v is None for v in row[1:]):
            if req.kind != "flow" or not _at_pole(req.params, row[0]):
                fails.append(f"row {i}: gap row away from a momentum pole")
            continue
        if not all(math.isfinite(v) for v in row):
            fails.append(f"row {i}: non-finite value")
            continue
        for j, v in enumerate(row):
            scales[j] = max(scales[j], abs(v))
    if fails:
        return fails[:5]
    complex_value = req.kind == "theta_whittaker"
    if complex_value:
        scales[1] = scales[2] = max(math.hypot(r[1], r[2]) for r in values)
    ref = REFERENCES[req.kind]
    with mp.workdps(DIGITS):
        for i in sample_rows(req, len(values)):
            row = values[i]
            if row[1] is None:
                continue
            want_vals = ref(req.params, row[0])
            if complex_value:
                got = [complex(row[1], row[2])]
                scale = [scales[1]]
            else:
                got = row[1:]
                scale = scales[1:]
            for g, w, s in zip(got, want_vals, scale):
                err = abs(mp.mpc(g) - w)
                if err > REL_TOL * max(s, 1e-300):
                    fails.append(f"row {i} at {row[0]!r}: error {float(err):.3g} > {REL_TOL:g} x scale {s:.3g}")
    return fails


def _check_spectrum(req, text: str) -> list[str]:
    columns, rows = parse_table(text, req.fmt)
    if columns != SPECTRUM_COLUMNS:
        return [f"columns {columns} != {SPECTRUM_COLUMNS}"]
    p = req.params
    expected = []
    with mp.workdps(DIGITS):
        for n_r in p["nr"]:
            for l in p["l"]:
                for k_z in p["kz"]:
                    e = reference_energies(n_r, l, k_z)
                    flag = "n/a" if l < 1 else ("ok" if e["qm"] <= e["el"] <= e["cbr"] else "violated")
                    expected += [(n_r, l, k_z, m, e[m], flag) for m in ("qm", "el", "cbr")]
    if len(rows) != len(expected):
        return [f"{len(rows)} spectrum rows, expected {len(expected)}"]
    fails = []
    for i, (row, want) in enumerate(zip(rows, expected)):
        n_r, l, k_z, model, energy, flag = row
        if (int(n_r), int(l), float(k_z), model, flag) != (want[0], want[1], want[2], want[3], want[5]):
            fails.append(f"row {i}: labels {row[:4] + row[5:]} != {list(want[:4]) + [want[5]]}")
            continue
        energy = float(energy)
        if not math.isfinite(energy) or abs(energy - want[4]) > REL_TOL * abs(want[4]):
            fails.append(f"row {i}: energy {energy!r} != {float(want[4])!r}")
    return fails[:5]


def check_verify_report(text: str, suite: str) -> list[str]:
    """A verify report must pass and carry exactly the registered check names."""
    report = json.loads(text)
    names = [c["name"] for c in report.get("checks", [])]
    want = ALL_CHECKS if suite == "all" else EXPECTED_CHECKS[suite]
    fails = []
    if report.get("pass") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        fails.append(f"verify --suite {suite} did not pass: {failed}")
    if sorted(names) != sorted(want):
        missing = sorted(set(want) - set(names))
        extra = sorted(set(names) - set(want))
        fails.append(f"verify check names differ: missing {missing}, unexpected {extra}")
    return fails


def check_output(req, rc: int, text: str) -> list[str]:
    """Every reason ``req`` failed, given its exit code and captured stdout."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if req.kind.startswith("verify_"):
            return check_verify_report(text, req.params["suite"])
        if req.kind == "spectrum":
            return _check_spectrum(req, text)
        return _check_profile(req, text)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {exc!r}"]
