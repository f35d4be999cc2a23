"""Command-line front-end: spectra, amplitude profiles, verification, flow.

Verbs
-----
spectrum   energy tables over quantum-number ranges for the qm/el/cbr models
amplitude  sampled sector amplitudes (ep, regularised, local, whittaker, damped)
verify     run the named check suites, emit a JSON report, exit 1 on failure
flow       closed-form azimuthal momentum and action profiles

Global flags: --config (JSON file; flags override file, file overrides
defaults), --format {csv,json}, --out PATH (default stdout), --tol FLOAT.
Exit codes: 0 success, 1 verification failure, 2 usage error (also an
unreadable config, an unwritable output path, or an input outside the
working range of a series or integrator).

Output is deterministic: CSV uses a header row, comma delimiter, LF line
ends and 17 significant digits, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import regular as rg
from . import sectors as sec
from . import spectrum as sp
from . import verify as vf
from .core import PhysParams, QuantumNumbers
from .ermakov import ep_coefficients
from .flux import flux_context_from_lambda, pi_theta_closed, s_theta_closed

_MODELS = ("qm", "el", "cbr")
_VALID_PAIRS = {
    "r": ("ep", "regularised", "damped"),
    "theta": ("ep", "local", "whittaker"),
    "z": ("ep", "regularised", "damped"),
}


@dataclass
class RunConfig:
    params: PhysParams
    fmt: str
    out: str | None
    tol: float | None


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_int_range(text: str) -> list[int]:
    """'0:4' -> [0, 1, 2, 3, 4]; '3' -> [3]."""
    try:
        if ":" in text:
            lo, hi = (int(p) for p in text.split(":"))
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"bad range syntax {text!r}; expected START:STOP or a single integer")


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise UsageError(f"bad list syntax {text!r}; expected comma-separated floats")
    if not values:
        raise UsageError("empty value list")
    return values


def _parse_grid(text: str) -> np.ndarray:
    """'0.1:5:200' -> 200 uniformly spaced points from 0.1 to 5 inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad grid syntax {text!r}; expected START:STOP:COUNT")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad grid syntax {text!r}; expected START:STOP:COUNT")
    if count < 2 or not stop > start:
        raise UsageError("grid needs COUNT >= 2 and STOP > START")
    return np.linspace(start, stop, count)


def _load_config(args) -> RunConfig:
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    params = PhysParams(
        hbar=float(file_cfg.get("hbar", 1.0)),
        mass=float(file_cfg.get("mass", 1.0)),
        charge=float(file_cfg.get("charge", 1.0)),
        B=float(file_cfg.get("B", 1.0)),
    )
    fmt = getattr(args, "format", None) or file_cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    tol = getattr(args, "tol", None)
    if tol is None:
        tol = file_cfg.get("tol")
    return RunConfig(params=params, fmt=fmt, out=getattr(args, "out", None), tol=tol)


def _emit_table(columns, rows, metadata, config: RunConfig) -> str:
    if config.fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join("" if v is None else v if isinstance(v, str) else _fmt(v) for v in row))
        return "\n".join(lines) + "\n"
    payload = {
        "columns": list(columns),
        "rows": [[None if v is None else v for v in row] for row in rows],
        "metadata": metadata,
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _write(text: str, config: RunConfig):
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args, config: RunConfig) -> int:
    nr_values = _parse_int_range(args.nr)
    l_values = _parse_int_range(args.l)
    kz_values = _parse_float_list(args.kz)
    if any(n < 0 for n in nr_values):
        raise UsageError("n_r must be nonnegative")
    models = _MODELS if args.model == "all" else (args.model,)

    with_order = args.model == "all"
    columns = ["n_r", "l", "k_z", "model", "energy"] + (["ordering"] if with_order else [])
    rows = []
    for n in nr_values:
        for l in l_values:
            for kz in kz_values:
                qn = QuantumNumbers(n, l, kz)
                energies = {m: sp.energy(sp.SpectrumModel(m), qn, config.params) for m in models}
                if with_order:
                    ordered = energies["qm"] <= energies["el"] <= energies["cbr"]
                    flag = "n/a" if l < 1 else ("ok" if ordered else "violated")
                for m in models:
                    row = [str(n), str(l), _fmt(kz), m, energies[m]]
                    if with_order:
                        row.append(flag)
                    rows.append(row)
    meta = {"command": "spectrum", "model": args.model}
    _write(_emit_table(columns, rows, meta, config), config)
    return 0


# ---------------------------------------------------------------------------
# amplitude
# ---------------------------------------------------------------------------

def cmd_amplitude(args, config: RunConfig) -> int:
    sector, branch = args.sector, args.branch
    if branch not in _VALID_PAIRS[sector]:
        raise UsageError(
            f"branch {branch!r} is not valid for sector {sector!r}; "
            f"valid pairs: " + "; ".join(f"{s}: {', '.join(bs)}" for s, bs in _VALID_PAIRS.items())
        )
    grid = _parse_grid(args.grid)
    params = config.params

    if branch == "ep":
        if sector == "r":
            pair = sec.radial_basis(args.a, params)
            coef = ep_coefficients(args.A, args.B, args.D, pair.wronskian)
            from .ermakov import pinney_amplitude

            values = pinney_amplitude(pair, coef)(grid)
        else:
            omega = args.omega if sector == "theta" else args.kz
            if omega is None:
                raise UsageError(f"sector {sector!r} ep branch needs --omega/--kz")
            coef = ep_coefficients(args.A, args.B, args.D, omega)
            maker = sec.theta_amplitude_trig if sector == "theta" else sec.axial_amplitude_trig
            values = maker(coef, omega)(grid)
    elif branch == "regularised":
        if sector == "r":
            values = rg.radial_regularised(QuantumNumbers(args.nr, args.l_index, 0.0), params)(grid)
        else:
            if args.kz is None or args.kz <= 0:
                raise UsageError("axial regularised branch needs --kz > 0")
            values = rg.axial_regularised(args.kz)(grid)
    elif branch == "local":
        p = rg.local_branch_params(args.atheta, args.radius, args.ctheta, params)
        values = rg.theta_local_branch(grid, p)
    elif branch == "whittaker":
        phi = params.beta * args.radius**2
        values = rg.azimuthal_whittaker(grid, args.l_index, phi, args.c1, args.c2)
    else:  # damped
        if sector == "r":
            values = rg.damped_radial_profile(grid, args.cr, params)
        else:
            values = rg.damped_axial_profile(grid, args.cz, params)

    values = np.asarray(values)
    coord_name = {"r": "r", "theta": "theta", "z": "z"}[sector]
    if np.iscomplexobj(values):
        columns = [coord_name, "value", "value_im"]
        rows = [[q, v.real, v.imag] for q, v in zip(grid, values)]
    else:
        columns = [coord_name, "value"]
        rows = [[q, float(v)] for q, v in zip(grid, values)]
    meta = {"command": "amplitude", "sector": sector, "branch": branch}
    _write(_emit_table(columns, rows, meta, config), config)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, config: RunConfig) -> int:
    report = vf.run_suite(args.suite, tol_override=config.tol)
    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    _write(text, config)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def cmd_flow(args, config: RunConfig) -> int:
    try:
        ctx = flux_context_from_lambda(args.lam, args.l_index, args.e_pi, args.theta0, config.params)
    except ValueError as exc:
        raise UsageError(str(exc))
    if ctx.discriminant <= 0:
        raise UsageError("discriminant branch not covered by closed form (Delta_pi <= 0)")
    grid = _parse_grid(args.grid)

    delta = ctx.discriminant
    rows = []
    pole_scale = 1e-12 * max(abs(ctx.E_pi), 1.0)
    for th in grid:
        denom = ctx.E_pi + math.sqrt(delta) * math.sin(2.0 * math.sqrt(ctx.Lambda) * (th - ctx.theta0))
        if abs(denom) < pole_scale:
            rows.append([th, None, None])  # momentum pole: gap row
            continue
        rows.append([th, float(pi_theta_closed(th, ctx)), float(s_theta_closed(th, ctx))])
    columns = ["theta", "pi_theta", "s_theta"]
    meta = {
        "command": "flow",
        "Lambda": ctx.Lambda,
        "E_pi": ctx.E_pi,
        "theta0": ctx.theta0,
        "phi": ctx.phi,
    }
    _write(_emit_table(columns, rows, meta, config), config)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # global flags live on a parent so they are accepted before or after
    # the subcommand; SUPPRESS keeps the later parse from clobbering the
    # earlier one with a default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="JSON config file (flags override file values)"
    )
    common.add_argument(
        "--format", choices=("csv", "json"), default=argparse.SUPPRESS, help="output format"
    )
    common.add_argument("--out", default=argparse.SUPPRESS, help="output path (default: stdout)")
    common.add_argument(
        "--tol", type=float, default=argparse.SUPPRESS, help="tolerance override for verify"
    )

    parser = argparse.ArgumentParser(
        prog="bmlandau",
        description="Bohm-Madelung Landau-problem amplitudes, spectra and verification",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="energy tables", parents=[common])
    p_spec.add_argument("--nr", required=True, help="radial range START:STOP or single value")
    p_spec.add_argument("--l", required=True, help="angular range START:STOP or single value")
    p_spec.add_argument("--kz", required=True, help="comma-separated axial wavenumbers")
    p_spec.add_argument("--model", choices=_MODELS + ("all",), default="all")

    p_amp = sub.add_parser("amplitude", help="sampled sector amplitudes", parents=[common])
    p_amp.add_argument("--sector", choices=("r", "theta", "z"), required=True)
    p_amp.add_argument(
        "--branch", choices=("ep", "regularised", "local", "whittaker", "damped"), required=True
    )
    p_amp.add_argument("--grid", required=True, help="START:STOP:COUNT")
    p_amp.add_argument("--A", type=float, default=1.0, help="ep quadratic-form weight")
    p_amp.add_argument("--B", type=float, default=1.0, help="ep quadratic-form weight")
    p_amp.add_argument("--D", type=float, default=0.0, help="ep cross weight")
    p_amp.add_argument("--a", type=float, default=0.0, help="radial Kummer label (ep)")
    p_amp.add_argument("--omega", type=float, default=None, help="angular frequency (theta ep)")
    p_amp.add_argument("--kz", type=float, default=None, help="axial wavenumber")
    p_amp.add_argument("--nr", type=int, default=0, help="radial quantum number (regularised)")
    p_amp.add_argument("--l", dest="l_index", type=int, default=0, help="angular index")
    p_amp.add_argument("--r", dest="radius", type=float, default=1.0, help="radius parameter")
    p_amp.add_argument("--ctheta", type=float, default=0.0, help="azimuthal current constant")
    p_amp.add_argument("--cr", type=float, default=-1.0, help="radial current constant (damped)")
    p_amp.add_argument("--cz", type=float, default=-1.0, help="axial current constant (damped)")
    p_amp.add_argument("--atheta", type=float, default=1.0, help="local branch normalisation")
    p_amp.add_argument("--c1", type=complex, default=1 + 0j, help="Whittaker M coefficient")
    p_amp.add_argument("--c2", type=complex, default=0j, help="Whittaker W coefficient")

    p_ver = sub.add_parser("verify", help="run verification suites", parents=[common])
    p_ver.add_argument("--suite", choices=tuple(vf.SUITES) + ("all",), default="all")

    p_flow = sub.add_parser("flow", help="closed-form azimuthal momentum and action", parents=[common])
    p_flow.add_argument("--lambda", dest="lam", type=float, required=True, help="Lambda = l^2 + phi^2")
    p_flow.add_argument("--e-pi", dest="e_pi", type=float, required=True, help="integration constant")
    p_flow.add_argument("--theta0", type=float, default=0.0)
    p_flow.add_argument("--l", dest="l_index", type=int, default=0)
    p_flow.add_argument("--grid", required=True, help="START:STOP:COUNT")

    return parser


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "amplitude": cmd_amplitude,
    "verify": cmd_verify,
    "flow": cmd_flow,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return _HANDLERS[args.command](args, config)
    except (UsageError, ValueError, ZeroDivisionError, OSError, RuntimeError) as exc:
        # OSError: unreadable --config or unwritable --out; RuntimeError:
        # a series or integration left its working range or budget
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
