"""Command-line front-end: spectra, amplitude profiles, verification, flow.

Verbs
-----
spectrum   energy tables over quantum-number ranges for the qm/el/cbr models
amplitude  sampled sector amplitudes (ep, regularised, local, whittaker, damped)
verify     run the named check suites, emit a JSON report, exit 1 on failure
flow       closed-form azimuthal momentum and action profiles

spectrum and flow evaluate the library functions once on whole arrays;
amplitude builds the evaluator of its (sector, branch) pair from one table
(_AMPLITUDES) and evaluates its grid in fixed blocks of 16,384 points,
mapped like the table writer's blocks (_by_blocks, tables._map_blocks).
The CLI only parses, masks momentum-pole rows and formats.  Each verb
imports the modules it calls when it runs: at import this module loads
only core, spectrum and tables, so an amplitude request never compiles
the verify checks or the oracle.

Global flags: --config (JSON file; flags override file, file overrides
defaults), --format {csv,json}, --out PATH (default stdout), --tol FLOAT.
Exit codes: 0 success, 1 verification failure, 2 usage error (also an
unreadable config, an unwritable output path, or an input outside the
working range of a series or integrator).

Every float and complex input (flags, the --kz list, grid bounds, the
config constants) must be finite; nan and inf are usage errors.  So must
every value cell of an amplitude or flow table that is not a gap: one
that is nan or inf exits 2, naming its column and grid value.

Output is deterministic: CSV uses a header row, comma delimiter, LF line
ends and 17 significant digits (each cell as format(x, ".17g")), and a
JSON table is byte-identical to json.dumps({"columns", "rows",
"metadata"}, indent=2), each float as float.__repr__ writes it: the
shortest digits that read back as that float.  Each verb hands
bmlandau.tables whole columns of two kinds: float arrays, whose masked
cells (np.ma) are gaps, empty in CSV and null in JSON, and label columns
of str, written as they are in CSV and as JSON strings.  The verify
report is small and nested and goes through json.dumps whole.

The argument parser is built on the first call of main and reused by
every later call in the process.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import spectrum as sp
from .core import PhysParams, QuantumNumbers
from .tables import _emit_table, _map_blocks

_MODELS = tuple(m.value for m in sp.SpectrumModel)
_SUITES = ("ep", "flux", "regular", "spectrum")  # verify.SUITES, written out so the parser needs no verify
_GRID_HELP = "START:STOP:COUNT; write a negative START as --grid=-1:1:50"
_EVAL_BLOCK = 1 << 14  # grid points per amplitude evaluation block


@dataclass
class RunConfig:
    params: PhysParams
    fmt: str
    out: str | None
    tol: float | None


class UsageError(Exception):
    pass


def _finite(text, kind=float):
    """kind(text) that rejects nan and +-inf: the parser of every float and
    complex input (flag text, list and grid items, config values)."""
    try:
        value = kind(text)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


_finite_complex = partial(_finite, kind=complex)


def _parse_int_range(text: str) -> range:
    """'0:4' -> range(0, 5); '3' -> range(3, 4)."""
    try:
        lo, hi = map(int, text.split(":") if ":" in text else [text, text])
        if hi < lo:
            raise ValueError
    except ValueError:
        raise UsageError(f"bad range syntax {text!r}; expected START:STOP or a single integer")
    if hi - lo >= sys.maxsize:  # len() of the range would overflow
        raise UsageError(f"range {text!r} holds more than {sys.maxsize} values")
    return range(lo, hi + 1)


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [_finite(p) for p in text.split(",") if p != ""]
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad list syntax {text!r}; expected comma-separated finite floats")
    if not values:
        raise UsageError("empty value list")
    return values


def _parse_grid(text: str) -> np.ndarray:
    """'0.1:5:200' -> 200 uniformly spaced points from 0.1 to 5 inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad grid syntax {text!r}; expected START:STOP:COUNT")
    try:
        start, stop, count = _finite(parts[0]), _finite(parts[1]), int(parts[2])
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"bad grid syntax {text!r}; expected START:STOP:COUNT with finite bounds")
    if count < 2 or not stop > start or not cmath.isfinite(stop - start):
        raise UsageError("grid needs COUNT >= 2 and STOP > START with a finite span")
    try:
        return np.linspace(start, stop, count)
    except MemoryError:
        raise UsageError(f"grid COUNT {count} is too large to allocate") from None


def _load_config(args) -> RunConfig:
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")

    def number(key, default):
        # JSON configs accept NaN and Infinity; reject them like the flags
        try:
            return _finite(file_cfg.get(key, default))
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"config {key}: {exc}")

    params = PhysParams(
        hbar=number("hbar", 1.0), mass=number("mass", 1.0), charge=number("charge", 1.0), B=number("B", 1.0)
    )
    fmt = getattr(args, "format", None) or file_cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    tol = getattr(args, "tol", None)
    if tol is None and file_cfg.get("tol") is not None:
        tol = number("tol", None)
    return RunConfig(params=params, fmt=fmt, out=getattr(args, "out", None), tol=tol)


def _write(text: str, config: RunConfig):
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse_non_finite_cells(names, columns):
    """ValueError naming the column and the grid value (columns[0]) of the
    first row with a nan or inf value cell that is not a gap (masked): a
    profile table holds finite values only."""
    finite = [np.isfinite(np.asarray(column)) | getattr(column, "mask", False) for column in columns[1:]]
    if not all(map(np.all, finite)):
        i = min(int(np.argmin(f)) for f in finite if not f.all())
        j = next(j for j, f in enumerate(finite, 1) if not f[i])
        raise ValueError(f"table cell {names[j]} = {columns[j][i]} at {names[0]} = {columns[0][i]:g} is not finite")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args, config: RunConfig) -> int:
    ranges = _parse_int_range(args.nr), _parse_int_range(args.l), _parse_float_list(args.kz)
    if ranges[0][0] < 0:
        raise UsageError("n_r must be nonnegative")
    models = _MODELS if args.model == "all" else (args.model,)

    # a row per state (k_z fastest) and model (fastest); the labels print the parsed values
    shape = (*map(len, ranges), len(models))
    try:
        index = np.indices(shape).reshape(4, -1)
        n, l, kz = (np.array(values, dtype=float)[i[:: len(models)]] for values, i in zip(ranges, index))
        labels = map(str, ranges[0]), map(str, ranges[1]), (format(c, ".17g") for c in ranges[2]), models
        columns = [np.array(list(t), dtype=object)[i] for t, i in zip(labels, index)]
    except MemoryError:
        raise UsageError(f"spectrum of {math.prod(shape[:3])} states is too large to allocate") from None
    energies, errors = [], []
    for m in models:
        try:
            energies.append(sp.energy(sp.SpectrumModel(m), n, l, kz, config.params))
        except ValueError as exc:  # an energy out of range
            errors.append(exc)
    if errors:  # name the first state in row order, and on it the first model
        raise min(errors, key=lambda exc: exc.state)
    names = ["n_r", "l", "k_z", "model", "energy"]
    columns.append(np.column_stack(energies).ravel())
    if args.model == "all":
        names.append("ordering")
        columns.append(np.repeat(np.array(sp.ordering_flags(l, *energies), dtype=object), len(models)))
    meta = {"command": "spectrum", "model": args.model}
    _write(_emit_table(names, columns, meta, config.fmt), config)
    return 0


# ---------------------------------------------------------------------------
# amplitude
# ---------------------------------------------------------------------------

def _by_blocks(evaluate, grid):
    """evaluate(grid) as the concatenation of evaluate on fixed blocks of
    _EVAL_BLOCK grid points, mapped by tables._map_blocks.

    The blocks are cut by grid index, never by CPU count: a series stops on
    the maxima over its own points, so a block's bits depend on where it
    is cut, and fixed cuts give the same bytes on every machine.  A grid of
    one block is evaluated inline, once.  If any block of a larger grid
    raises, the whole grid is evaluated again inline, so a refusal names
    the point that the whole call names."""
    if grid.size <= _EVAL_BLOCK:
        return evaluate(grid)
    try:
        return np.concatenate(_map_blocks(lambda s: evaluate(grid[s : s + _EVAL_BLOCK]), grid.size, _EVAL_BLOCK))
    except Exception:  # the whole call's refusal
        return evaluate(grid)


def _pinney(args, params, omega=None):
    """The ep evaluator: the Pinney amplitude of the radial basis pair at
    --a, or with omega that of the fixed-frequency trigonometric pair."""
    from . import sectors as sec
    from .ermakov import ep_coefficients, pinney_amplitude

    if omega is None:
        pair = sec.radial_basis(args.a, params)
        return pinney_amplitude(pair, ep_coefficients(args.A, args.B, args.D, pair.wronskian))
    return sec.trig_amplitude(ep_coefficients(args.A, args.B, args.D, omega), omega)


def _whittaker(args, params, rg):
    """The theta whittaker evaluator at the flux ratio phi = beta r^2."""
    try:
        phi = params.beta * args.radius**2
    except OverflowError:
        raise ValueError(f"flux ratio phi = beta r^2 overflows the float range at r = {args.radius:g}") from None
    return partial(rg.azimuthal_whittaker, l=args.l_index, phi=phi, c1=args.c1, c2=args.c2)


# (sector, branch) -> (the flag the pair cannot do without, or None;
# builder (args, params, regular) -> evaluate(grid)).  In branch order, so
# that the parser's choices and each sector's branches in the invalid-pair
# message keep the order they have always had.
_AMPLITUDES = {
    ("r", "ep"): (None, lambda args, params, rg: _pinney(args, params)),
    ("theta", "ep"): ("--omega", lambda args, params, rg: _pinney(args, params, args.omega)),
    ("z", "ep"): ("--kz", lambda args, params, rg: _pinney(args, params, args.kz)),
    ("r", "regularised"): (
        None, lambda args, params, rg: rg.radial_regularised(QuantumNumbers(args.nr, args.l_index, 0.0), params)
    ),
    ("z", "regularised"): ("--kz", lambda args, params, rg: rg.axial_regularised(args.kz)),
    ("theta", "local"): (
        None,
        lambda args, params, rg: partial(
            rg.theta_local_branch, p=rg.local_branch_params(args.atheta, args.radius, args.ctheta, params)
        ),
    ),
    ("theta", "whittaker"): (None, _whittaker),
    ("r", "damped"): (None, lambda args, params, rg: partial(rg.damped_radial_profile, C_r=args.cr, params=params)),
    ("z", "damped"): (None, lambda args, params, rg: partial(rg.damped_axial_profile, C_z=args.cz, params=params)),
}


def _amplitude_choices(k):
    """The sectors (k = 0) or the branches (k = 1) of _AMPLITUDES, in table order."""
    return tuple(dict.fromkeys(pair[k] for pair in _AMPLITUDES))


def cmd_amplitude(args, config: RunConfig) -> int:
    sector, branch = args.sector, args.branch
    if (sector, branch) not in _AMPLITUDES:
        valid = (f"{s}: " + ", ".join(b for t, b in _AMPLITUDES if t == s) for s in _amplitude_choices(0))
        raise UsageError(f"branch {branch!r} is not valid for sector {sector!r}; valid pairs: " + "; ".join(valid))
    flag, build = _AMPLITUDES[sector, branch]
    grid = _parse_grid(args.grid)
    if flag and getattr(args, flag[2:]) is None:
        raise UsageError(f"sector {sector!r} {branch} branch needs {flag}")
    from . import regular

    values = np.asarray(_by_blocks(build(args, config.params, regular), grid))
    if np.iscomplexobj(values):
        names, columns = [sector, "value", "value_im"], [grid, values.real, values.imag]
    else:
        names, columns = [sector, "value"], [grid, values]
    meta = {"command": "amplitude", "sector": sector, "branch": branch}
    _refuse_non_finite_cells(names, columns)
    _write(_emit_table(names, columns, meta, config.fmt), config)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, config: RunConfig) -> int:
    from . import verify as vf

    report = vf.run_suite(args.suite, tol_override=config.tol)
    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    _write(text, config)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def cmd_flow(args, config: RunConfig) -> int:
    from .flux import _momentum_and_pole, flux_context_from_lambda, s_theta_closed

    # ValueError (Lambda < l^2, Delta_pi <= 0) maps to exit 2 in main
    ctx = flux_context_from_lambda(args.lam, args.l_index, args.e_pi, args.theta0, config.params)
    grid = _parse_grid(args.grid)

    pi_vals, pole = _momentum_and_pole(grid, ctx)
    columns = [grid, pi_vals, s_theta_closed(grid, ctx)]
    if pole.any():  # momentum pole: a gap row; numpy.ma loads only then (about 20 ms, 1.3 MB)
        columns[1:] = [np.ma.array(column, mask=pole) for column in columns[1:]]
    names = ["theta", "pi_theta", "s_theta"]
    meta = {
        "command": "flow",
        "Lambda": ctx.Lambda,
        "E_pi": ctx.E_pi,
        "theta0": ctx.theta0,
        "phi": ctx.phi,
    }
    _refuse_non_finite_cells(names, columns)
    _write(_emit_table(names, columns, meta, config.fmt), config)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The bmlandau parser, built on first use and shared by later calls
    (parse_args keeps no state in the parser between calls)."""
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
        "--tol", type=_finite, default=argparse.SUPPRESS, help="tolerance override for verify"
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
    p_amp.add_argument("--sector", choices=_amplitude_choices(0), required=True)
    p_amp.add_argument("--branch", choices=_amplitude_choices(1), required=True)
    p_amp.add_argument("--grid", required=True, help=_GRID_HELP)
    p_amp.add_argument("--A", type=_finite, default=1.0, help="ep quadratic-form weight")
    p_amp.add_argument("--B", type=_finite, default=1.0, help="ep quadratic-form weight")
    p_amp.add_argument("--D", type=_finite, default=0.0, help="ep cross weight")
    p_amp.add_argument("--a", type=_finite, default=0.0, help="radial Kummer label (ep)")
    p_amp.add_argument("--omega", type=_finite, default=None, help="angular frequency (theta ep)")
    p_amp.add_argument("--kz", type=_finite, default=None, help="axial wavenumber")
    p_amp.add_argument("--nr", type=int, default=0, help="radial quantum number (regularised)")
    p_amp.add_argument("--l", dest="l_index", type=int, default=0, help="angular index")
    p_amp.add_argument("--r", dest="radius", type=_finite, default=1.0, help="radius parameter")
    p_amp.add_argument("--ctheta", type=_finite, default=0.0, help="azimuthal current constant")
    p_amp.add_argument("--cr", type=_finite, default=-1.0, help="radial current constant (damped)")
    p_amp.add_argument("--cz", type=_finite, default=-1.0, help="axial current constant (damped)")
    p_amp.add_argument("--atheta", type=_finite, default=1.0, help="local branch normalisation")
    p_amp.add_argument("--c1", type=_finite_complex, default=1 + 0j, help="Whittaker M coefficient")
    p_amp.add_argument("--c2", type=_finite_complex, default=0j, help="Whittaker W coefficient")

    p_ver = sub.add_parser("verify", help="run verification suites", parents=[common])
    p_ver.add_argument("--suite", choices=_SUITES + ("all",), default="all")

    p_flow = sub.add_parser("flow", help="closed-form azimuthal momentum and action", parents=[common])
    p_flow.add_argument("--lambda", dest="lam", type=_finite, required=True, help="Lambda = l^2 + phi^2")
    p_flow.add_argument("--e-pi", dest="e_pi", type=_finite, required=True, help="integration constant")
    p_flow.add_argument("--theta0", type=_finite, default=0.0)
    p_flow.add_argument("--l", dest="l_index", type=int, default=0)
    p_flow.add_argument("--grid", required=True, help=_GRID_HELP)

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
    except (UsageError, ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        # ArithmeticError: a pole or a float overflow in the inputs' arithmetic;
        # OSError: unreadable --config or unwritable --out; RuntimeError:
        # a series or integration left its working range or budget
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
