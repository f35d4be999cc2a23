"""Command-line front-end: spectra, amplitude profiles, verification, flow.

Verbs
-----
spectrum   energy tables over quantum-number ranges for the qm/el/cbr models
amplitude  sampled sector amplitudes (ep, regularised, local, whittaker, damped)
verify     run the named check suites, emit a JSON report, exit 1 on failure
flow       closed-form azimuthal momentum and action profiles

Each verb evaluates the library functions once on the whole grid array;
the CLI only parses, masks momentum-pole rows and formats.

Global flags: --config (JSON file; flags override file, file overrides
defaults), --format {csv,json}, --out PATH (default stdout), --tol FLOAT.
Exit codes: 0 success, 1 verification failure, 2 usage error (also an
unreadable config, an unwritable output path, or an input outside the
working range of a series or integrator).

Every float and complex input (flags, the --kz list, grid bounds, the
config constants) must be finite; nan and inf are usage errors.

Output is deterministic: CSV uses a header row, comma delimiter, LF line
ends and 17 significant digits (each cell as format(x, ".17g")), so
repeated runs are byte-identical. CSV text is built by numpy a block of
cells at a time (_csv_text): the 17 digits of each float are one integer,
laid out in a byte grid with a mask of the characters the cell shows.
The blocks of a table are written by one thread per CPU the process may
run on and joined in order; a table of one block, or a process on one
CPU, writes them inline. A JSON table is byte-identical to
json.dumps({"columns", "rows", "metadata"}, indent=2): one template over
its flat cells, filled by one "%", where a finite float takes a "%r"
slot (float.__repr__ is the text json writes for it) and any other cell
a "%s" slot holding json.dumps(cell).
The verify report is small and nested and goes through json.dumps whole.

The argument parser is built on the first call of main and reused by
every later call in the process.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import regular as rg
from . import sectors as sec
from . import spectrum as sp
from . import verify as vf
from .core import PhysParams, QuantumNumbers
from .ermakov import ep_coefficients, pinney_amplitude
from .flux import _momentum_denominator, flux_context_from_lambda, pi_theta_closed, s_theta_closed

_MODELS = tuple(m.value for m in sp.SpectrumModel)
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


def _emit_table(columns, rows, metadata, config: RunConfig) -> str:
    """The table (a 2-D array or equal-length rows) as text: CSV by
    _csv_text, JSON by one template over the flat cells filled by one "%"."""
    if config.fmt == "csv":
        return _csv_text(columns, rows)
    text = json.dumps({"columns": list(columns), "rows": [], "metadata": metadata}, indent=2)
    cells = rows.ravel().tolist() if isinstance(rows, np.ndarray) else list(itertools.chain.from_iterable(rows))
    if not cells:
        return text + "\n"
    if isinstance(rows, np.ndarray) and rows.dtype == float:
        odd = np.flatnonzero(~np.isfinite(rows.ravel())).tolist()
    else:
        odd = [i for i, v in enumerate(cells) if type(v) is not float or not math.isfinite(v)]
    # the layout json.dumps(indent=2) gives a row of floats at depth 2
    width, lead, sep = len(columns), "    [\n      ", ",\n      "
    row = lead + sep.join(["%r"] * width) + "\n    ],\n"
    template = row * (len(cells) // width)
    if odd:  # each odd cell's slot becomes "%s", its value json.dumps(value)
        pieces, start = [], 0
        for i in odd:
            at = (i // width) * len(row) + len(lead) + (i % width) * (2 + len(sep))
            pieces += template[start:at], "%s"
            start = at + 2
            cells[i] = json.dumps(cells[i])
        template = "".join(pieces) + template[start:]
    # the first '"rows": []' is the key itself: only the columns come
    # before it, and a JSON string holds no unescaped quote
    body = (template % tuple(cells))[:-2]
    return text.replace('"rows": []', '"rows": [\n' + body + "\n  ]", 1) + "\n"


# Each block of CSV cells is built as bytes.  Each cell is a row of a byte
# grid holding every character its text can have, in the column layout of
# _GRID, and a mask row picks the ones it shows.
_BLOCK = 1 << 13  # cells per block: bounds each thread's scratch arrays
_GRID = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000", np.uint8)  # sign, "0.000", digits and points, exponent
_DIGITS = slice(6, 39, 2)  # digit j of 17 at column 6 + 2j; column 7 + 2j is a point after it
# "0000".."9999" as 4-byte words, indexed by value
_QUADS = np.ascontiguousarray(np.moveaxis(np.indices((10,) * 4, np.uint8), 0, -1) + 48).view(np.uint32).ravel()
_QUADS.flags.writeable = False  # shared by the block threads, like _GRID and the _shown masks
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a float into two 26-bit halves


def _split(a):
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


@cache
def _power_of_ten(k: int) -> tuple[float, float]:
    """(hi, lo): hi the float nearest 10**k and lo the float nearest
    10**k - hi, so hi + lo holds 10**k to about 2**-106."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int division rounds correctly
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


def _round17(a, X):
    """For a > 0 and decimal exponent X: the integer nearest a * 10**(16 - X),
    the floor of that product, and where it lies within 1e-9 of a
    half-integer, so that this rounding may differ from the exact one.

    The product is a * hi as a float and its exact rounding error (Dekker's
    two-product), plus a * lo: about 2**-100 relative, far inside 1e-9 of
    a product below 2**60.  For a in 1e-240..1e240 every term is a
    normal float.
    """
    k = 16 - X
    k0 = int(k.min())
    hi, lo = np.array([_power_of_ten(j) for j in range(k0, int(k.max()) + 1)]).T[:, k - k0]
    p = a * hi
    (ah, al), (hh, hl) = _split(a), _split(hi)
    f = np.floor(p)
    r = (p - f) + ((((ah * hh - p) + ah * hl) + al * hh) + al * hl + a * lo)
    n = np.floor(r + 0.5)
    f = f.astype(np.int64)
    return f + n.astype(np.int64), f + np.floor(r).astype(np.int64), np.abs(r - n) > 0.5 - 1e-9


@cache
def _shown(width: int):
    """The mask row of every cell shape, a width-byte row whose last column
    is the separator, indexed by sign, scientific form, 3-digit exponent,
    exponent + 4 of a fixed-form cell and count of significant digits - 1."""
    no_yes = [False, True]
    neg, sci, big, X, m = np.meshgrid(no_yes, no_yes, no_yes, range(-4, 17), range(1, 18), indexing="ij", sparse=True)
    q = np.where(sci, 1, np.maximum(X + 1, 0))  # digits before the point
    m = np.where(sci, m, np.maximum(m, q))  # digits shown
    lead = ~sci & (X < 0)  # "0." and -X - 1 zeros before the digits
    show = np.zeros((2, 2, 2, 21, 17, width), bool)
    show[..., 0] = neg
    show[..., 1] = show[..., 2] = lead
    show[..., 3:6] = np.arange(3) < np.where(lead, -1 - X, 0)[..., None]
    show[..., _DIGITS] = np.arange(17) < m[..., None]
    show[..., 7:38:2] = (np.arange(1, 17) == q[..., None]) & (q < m)[..., None]
    show[..., 39:41] = show[..., 42:44] = sci[..., None]
    show[..., 41] = sci & big
    show[..., -1] = True
    show.flags.writeable = False
    return show


def _csv_text(columns, rows) -> str:
    """The CSV text: the header, then each cell as format(float(v), ".17g"),
    a str cell as it is and a gap (None) cell empty.

    The 17 digits of |x| are the integer nearest |x| * 10**(16 - X), X its
    decimal exponent, from _round17; format() writes a cell this cannot
    settle (a near tie, nan, inf, |x| outside 1e-240..1e240) and every str
    cell.  The blocks of _BLOCK cells are written by _csv_block, on the
    _block_pool threads for a table of more than one block.
    """
    width = len(columns)
    if isinstance(rows, np.ndarray) and rows.dtype == float:
        values, text = rows.ravel(), {}
    else:
        cells = rows.ravel().tolist() if isinstance(rows, np.ndarray) else list(itertools.chain.from_iterable(rows))
        text = {i: "" if v is None else v for i, v in enumerate(cells) if v is None or isinstance(v, str)}
        values = np.array([0.0 if i in text else float(v) for i, v in enumerate(cells)], dtype=float)
    is_text = np.zeros(len(values), bool)
    is_text[list(text)] = True
    seps = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)
    starts = range(0, len(values), _BLOCK)
    pool = _block_pool() if len(starts) > 1 else None
    blocks = (pool.map if pool else map)(partial(_csv_block, values, is_text, text, seps), starts)
    return "".join([",".join(columns) + "\n", *blocks])


def _csv_block(values, is_text, text, seps, start) -> str:
    """The CSV text of the _BLOCK cells of values from start on.  It may run
    on a pool thread, so it calls only numpy and this module's private
    helpers: a tracer that wraps the package's public functions need not
    be thread-safe."""
    x = values[start : start + _BLOCK]
    c, a = len(x), np.abs(x)
    zero, sure = a == 0, (a >= 1e-240) & (a <= 1e240)
    a = np.where(sure, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    N, low, tie = _round17(a, X)
    off = (low >= 10**17).astype(np.int64) - (low < 10**16)
    if off.any():  # log10 rounded across a power of ten
        X += off
        N, low, tie = _round17(a, X)
    sure &= ~tie & (low >= 10**16) & (N < 10**17)
    N, X = np.where(sure, N, 0), np.where(sure, X, 0)  # N = 0 prints "0", the text of a zero cell
    quads = np.empty((c, 4), np.int64)
    head, rest = np.divmod(N, 10**16)
    quads[:, 0], rest = np.divmod(rest, 10**12)
    quads[:, 1], rest = np.divmod(rest, 10**8)
    quads[:, 2], quads[:, 3] = np.divmod(rest, 10**4)
    digits = np.empty((c, 17), np.uint8)
    digits[:, 0] = head + 48
    digits[:, 1:] = _QUADS[quads].view(np.uint8).reshape(c, 16)
    m = np.where(N == 0, 1, 17 - np.argmax(digits[:, ::-1] != 48, axis=1))  # through the last nonzero digit
    odd = np.flatnonzero(~(sure | zero) | is_text[start : start + c])
    texts = [
        (text[i] if i in text else format(v, ".17g")).encode("utf-8", "surrogatepass")
        for i, v in zip((odd + start).tolist(), x[odd].tolist())
    ]
    W = max([_GRID.size + 1] + [len(t) + 1 for t in texts])
    grid = np.empty((c, W), np.uint8)
    grid[:, : _GRID.size] = _GRID
    grid[:, _DIGITS] = digits
    e = np.abs(X)
    grid[:, 40] = np.where(X < 0, ord("-"), ord("+"))
    grid[:, 41], grid[:, 42], grid[:, 43] = e // 100 + 48, e // 10 % 10 + 48, e % 10 + 48
    grid[:, -1] = seps[(start + np.arange(c)) % len(seps)]
    sci = (X < -4) | (X > 16)
    flags = (np.signbit(x), sci, e >= 100)
    show = _shown(W)[(*(f.view(np.int8) for f in flags), np.where(sci, 0, X + 4), m - 1)]
    if texts:
        grid[odd, :-1] = np.frombuffer(b"".join(t.ljust(W - 1, b"\0") for t in texts), np.uint8).reshape(-1, W - 1)
        show[odd, :-1] = np.arange(W - 1) < np.array([len(t) for t in texts])[:, None]
    # a block ends at a cell's end, so its bytes decode on their own
    return np.compress(show.ravel(), grid.ravel()).tobytes().decode("utf-8", "surrogatepass")


@cache
def _block_pool():
    """The CSV block writers: one thread per CPU this process may run on,
    made by the first table of more than one block; None on one CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(cpus, thread_name_prefix="bmlandau-csv")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads: it makes its own
    os.register_at_fork(after_in_child=_block_pool.cache_clear)


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

    # states in row order (k_z fastest); the labels print the parsed values
    states = list(itertools.product(nr_values, l_values, kz_values))
    n, l, kz = (np.array(v, dtype=float) for v in zip(*states))
    energies, errors = [], []
    for m in models:
        try:
            energies.append(sp.energy(sp.SpectrumModel(m), n, l, kz, config.params))
        except ValueError as exc:  # an energy out of range
            errors.append(exc)
    if errors:  # name the first state in row order, and on it the first model
        raise min(errors, key=lambda exc: exc.state)
    columns = ["n_r", "l", "k_z", "model", "energy"]
    flags = [()] * len(states)
    if args.model == "all":
        columns.append("ordering")
        flags = [(flag,) for flag in sp.ordering_flags(l, *energies).tolist()]
    rows = []
    for (a, b, c), flag, state_energies in zip(states, flags, zip(*(e.tolist() for e in energies))):
        rows += [[str(a), str(b), format(c, ".17g"), m, e, *flag] for m, e in zip(models, state_energies)]
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
            values = pinney_amplitude(pair, coef)(grid)
        else:
            omega = args.omega if sector == "theta" else args.kz
            if omega is None:
                raise UsageError(f"sector {sector!r} ep branch needs --omega/--kz")
            coef = ep_coefficients(args.A, args.B, args.D, omega)
            values = sec.trig_amplitude(coef, omega)(grid)
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
        try:
            phi = params.beta * args.radius**2
        except OverflowError:
            raise ValueError(f"flux ratio phi = beta r^2 overflows the float range at r = {args.radius:g}") from None
        values = rg.azimuthal_whittaker(grid, args.l_index, phi, args.c1, args.c2)
    else:  # damped
        if sector == "r":
            values = rg.damped_radial_profile(grid, args.cr, params)
        else:
            values = rg.damped_axial_profile(grid, args.cz, params)

    values = np.asarray(values)
    if np.iscomplexobj(values):
        columns = [sector, "value", "value_im"]
        rows = np.column_stack((grid, values.real, values.imag))
    else:
        columns = [sector, "value"]
        rows = np.column_stack((grid, values))
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
    # ValueError (Lambda < l^2, Delta_pi <= 0) maps to exit 2 in main
    ctx = flux_context_from_lambda(args.lam, args.l_index, args.e_pi, args.theta0, config.params)
    grid = _parse_grid(args.grid)

    _, pole = _momentum_denominator(grid, ctx)
    ok = ~pole
    pi_vals = np.empty_like(grid)
    pi_vals[ok] = pi_theta_closed(grid[ok], ctx)
    rows = np.column_stack((grid, pi_vals, s_theta_closed(grid, ctx)))
    if pole.any():  # momentum pole: gap row
        rows = rows.astype(object)
        rows[pole, 1:] = None
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
    p_amp.add_argument("--sector", choices=("r", "theta", "z"), required=True)
    p_amp.add_argument(
        "--branch", choices=("ep", "regularised", "local", "whittaker", "damped"), required=True
    )
    p_amp.add_argument("--grid", required=True, help="START:STOP:COUNT")
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
    p_ver.add_argument("--suite", choices=tuple(vf.SUITES) + ("all",), default="all")

    p_flow = sub.add_parser("flow", help="closed-form azimuthal momentum and action", parents=[common])
    p_flow.add_argument("--lambda", dest="lam", type=_finite, required=True, help="Lambda = l^2 + phi^2")
    p_flow.add_argument("--e-pi", dest="e_pi", type=_finite, required=True, help="integration constant")
    p_flow.add_argument("--theta0", type=_finite, default=0.0)
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
