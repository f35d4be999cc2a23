"""Independent numerical ground truth for every closed-form check.

One adaptive initial-value integrator (embedded Dormand-Prince 5(4) pair
with cubic-Hermite dense output), one fourth-order five-point
central-difference stencil for every derivative a check takes, and one
singularity-tolerant quadrature (tanh-sinh double exponential).
Deliberately a single rule each: verification simplicity beats
configurability.

The quadrature nodes and weights of each level depend only on the
interval-free variable t, so they are computed once per level, cached,
and scaled to the interval at each call (precomputed tables in the
manner of Bailey, Jeyabalan & Li 2005).  quad_singular evaluates the
integrand once per level, on the array of that level's kept nodes.
Given arrays of limits, it integrates many intervals in lock-step: the
kept nodes of every unconverged interval go to the integrand in one
array, and each interval is summed, tested and retired on its own, so it
equals the single-interval call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import SampledProfile


@dataclass
class IVPProblem:
    """An initial-value problem y'(q) = rhs(y, q) on a coordinate span."""

    rhs: Callable
    y0: Sequence[float]
    span: tuple[float, float]
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.span[0] == self.span[1]:
            raise ValueError("degenerate coordinate span")
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.ndim != 1:
            raise ValueError("initial state y0 must be one-dimensional")


@dataclass
class ResidualReport:
    """Worst pointwise residual of a sampled profile against an ODE form."""

    max_abs: float
    location: float
    step: float


# Dormand-Prince 5(4) tableau.  Fifth-order solution is propagated; the
# embedded fourth-order difference provides the local error estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = tuple(
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4


class IVPSolution:
    """Accepted steps plus a cubic-Hermite dense interpolant."""

    def __init__(self, ts, ys, fs):
        self.ts = np.asarray(ts)
        self.ys = np.asarray(ys)
        self.fs = np.asarray(fs)
        self._sign = 1.0 if self.ts[-1] >= self.ts[0] else -1.0

    def __call__(self, t):
        """State at t, a float or an array of any shape; the result has shape t.shape + (dim,)."""
        t = np.asarray(t, dtype=float)
        t_arr = t.ravel()
        ts = self.ts * self._sign
        tq = t_arr * self._sign
        if np.any(tq < ts[0] - 1e-12) or np.any(tq > ts[-1] + 1e-12):
            raise ValueError("dense evaluation outside the integrated span")
        idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
        t0, t1 = self.ts[idx], self.ts[idx + 1]
        h = t1 - t0
        s = np.where(h != 0, (t_arr - t0) / np.where(h != 0, h, 1.0), 0.0)
        y0, y1 = self.ys[idx], self.ys[idx + 1]
        f0, f1 = self.fs[idx], self.fs[idx + 1]
        s = s[:, None]
        hcol = h[:, None]
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        out = h00 * y0 + h10 * hcol * f0 + h01 * y1 + h11 * hcol * f1
        return out.reshape(t.shape + out.shape[1:])


def integrate_ivp(p: IVPProblem) -> IVPSolution:
    """Adaptive Dormand-Prince 5(4) integration with dense output.

    The local error estimate per step is kept below
    rel_tol * |y| + abs_tol componentwise.
    """
    t0, t1 = float(p.span[0]), float(p.span[1])
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)

    t = t0
    y = p.y0.astype(float).copy()
    f = np.asarray(p.rhs(y, t), dtype=float)
    if f.shape != y.shape:
        raise ValueError("rhs output size does not match state dimension")

    # initial step from the scale of y and f
    scale0 = p.abs_tol + p.rel_tol * np.abs(y)
    d0 = np.max(np.abs(y) / scale0)
    d1 = np.max(np.abs(f) / scale0)
    h = 0.01 * span if d1 == 0 or d0 == 0 else min(0.01 * span, 0.01 * d0 / d1)
    h = min(h, p.max_step, span)

    ts, ys, fs = [t], [y.copy()], [f.copy()]
    k = np.empty((7, y.size))
    min_step = 1e-14 * max(span, abs(t0), 1.0)

    while (t1 - t) * direction > 0:
        h = min(h, abs(t1 - t), p.max_step)
        if h < min_step:
            raise RuntimeError(f"integration stalled near coordinate {t!r}")
        hd = h * direction

        k[0] = f
        for i in range(1, 7):
            yi = y + hd * np.dot(_DP_A[i], k[:i])
            k[i] = p.rhs(yi, t + _DP_C[i] * hd)
        y_new = y + hd * np.dot(_DP_B5, k)
        err_vec = hd * np.dot(_DP_E, k)
        scale = p.abs_tol + p.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.max(np.abs(err_vec) / scale)

        if err <= 1.0 or h <= min_step:
            t = t + hd
            y = y_new
            f = k[6].copy()  # FSAL: last stage is rhs at (t+h, y_new)
            ts.append(t)
            ys.append(y.copy())
            fs.append(f.copy())
        factor = 0.9 * (max(err, 1e-16)) ** (-0.2)
        h = h * min(5.0, max(0.2, factor))

    return IVPSolution(np.array(ts), np.array(ys), np.array(fs))


def _five_point(y, h: float):
    """Centre values y[2:-2] and first and second derivatives along the first axis of a stacked array.

    The first axis holds at least 5 samples at step h; the fourth-order
    central weights (Fornberg 1988) leave rounding of about eps/h^2.
    """
    y = np.asarray(y)
    if len(y) < 5:
        raise ValueError("five-point stencil needs at least 5 grid points along the axis")
    m2, m1, y0, p1, p2 = y[:-4], y[1:-3], y[2:-2], y[3:-1], y[4:]
    d1 = (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)
    d2 = (-m2 + 16.0 * m1 - 30.0 * y0 + 16.0 * p1 - p2) / (12.0 * h * h)
    return y0, d1, d2


def _five_point_at(f: Callable, x, h: float):
    """(f, f', f'') at x, a number or an array, from one call of f.

    f receives the samples x + k h, k = -2, ..., 2, stacked on a new
    leading axis (shape (5,) + x.shape) and returns values of that shape;
    a scalar value, such as a constant amplitude, broadcasts.  A tuple of
    values, each broadcast likewise, such as the (M, W) of whittaker_mw,
    gives each of f, f' and f'' as an array with the tuple on its leading
    axis, so callers unpack it as they would the tuple.
    """
    x = np.asarray(x)
    xs = x + h * np.arange(-2.0, 3.0).reshape((5,) + (1,) * x.ndim)
    y = f(xs)
    if isinstance(y, tuple):
        y = np.stack([np.broadcast_to(v, xs.shape) for v in y], axis=1)
    else:
        y = np.broadcast_to(y, xs.shape)
    return tuple(d[0] for d in _five_point(y, h))


def fd_residual(candidate: SampledProfile, ode_form: Callable) -> ResidualReport:
    """Max residual of ode_form(y, y', y'', q) over interior grid points.

    Derivatives come from the five-point stencil, so two points at each
    end are left out; the candidate grid must be uniform with at least 5 points.
    """
    h = candidate.step()
    q = candidate.grid[2:-2]
    vals = np.abs(ode_form(*_five_point(candidate.values, h), q))
    i = int(np.argmax(vals))
    return ResidualReport(max_abs=float(vals[i]), location=float(q[i]), step=h)


_TS_TMAX = 6.8  # beyond this the double-exponential weight underflows
_TS_MAX_LEVEL = 12  # the level budget; quad_singular reads it at call time

# level -> (unit offsets, unit weights) of the nodes t > 0 new at that
# level; the -t node shares both values.  Nothing here depends on the
# interval: a call scales the unit values by its half-width.
_TS_LEVELS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _level_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-interval offsets 2 e2/(1+e2) and weights of one tanh-sinh level.

    Level 0 holds t = 1, 2, ... (t = 0 is added by the caller), level
    k >= 1 the odd multiples of 2^-k, all up to _TS_TMAX.  The abscissa
    is x = mid + half*tanh(u), u = (pi/2) sinh(t), written through the
    offset from the nearer endpoint: 1 - |tanh(u)| = 2 e2/(1+e2) with
    e2 = exp(-2|u|), and sech^2(u) = 4 e2/(1+e2)^2, so nothing overflows.
    Nodes whose weight underflows to zero are left out.  Built once per
    level with the scalar math functions, so the unit values are those of
    the scalar formula.
    """
    table = _TS_LEVELS.get(level)
    if table is None:
        h = 2.0**-level

        def unit_node(t):
            e2 = math.exp(-2.0 * (0.5 * math.pi * math.sinh(t)))
            return 2.0 * e2 / (1.0 + e2), 0.5 * math.pi * math.cosh(t) * 4.0 * e2 / (1.0 + e2) ** 2

        ks = range(1, int(_TS_TMAX / h) + 1, 1 if level == 0 else 2)
        nodes = np.fromiter((unit_node(k * h) for k in ks), np.dtype((float, 2)), len(ks))
        nodes = nodes[nodes[:, 1] != 0.0]
        table = _TS_LEVELS[level] = (nodes[:, 0].copy(), nodes[:, 1].copy())
    return table


def _level_nodes(level: int, a, b):
    """Abscissae x and weights w of one level on (a, b).

    a and b are floats or arrays of one shape S; the node arrays have
    shape S + (n,), one row per interval.
    """
    unit_offset, unit_weight = _level_table(level)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    offset = half * unit_offset
    w = half * unit_weight
    x = np.concatenate((b - offset, a + offset), axis=-1)
    w = np.concatenate((w, w), axis=-1)
    if level == 0:
        x = np.concatenate((0.5 * (a + b), x), axis=-1)
        w = np.concatenate((half * 0.5 * math.pi, w), axis=-1)
    return x, w


def quad_singular(f: Callable, a, b, tol: float = 1e-10):
    """Tanh-sinh quadrature of f on (a, b), or on many intervals at once; absolute tolerance ``tol``.

    Integrable endpoint singularities are handled by the double
    exponential clustering of nodes, which are generated as exact offsets
    from the endpoints.  A node that rounds onto an endpoint, or whose
    weight underflows to zero, is dropped, as are non-finite values of f.
    Near a nonzero endpoint the abscissa x cannot resolve offsets below
    its float spacing, so a singularity there must be written by the
    caller in offset form: substitute x = endpoint + u and integrate over
    u from 0 (as flux.theta_first_integral_quadrature does).

    a and b are floats or arrays that broadcast to one shape S.  The
    intervals run in lock-step, one level at a time, and f is called
    once per level as ``f(x, i)``: x is a 1-D array of the level's kept
    nodes, interval after interval, and i gives each node's interval
    index in ``np.ravel`` order of the broadcast limits (all zeros for
    float limits), so f can look up per-interval parameters.  f returns
    an array of values shaped like x.  Each interval keeps its own sum
    (one ``np.dot`` over its nodes, in table order), its own history and
    its own convergence level, and leaves the batch when it converges; so
    each entry equals the float call on that interval bit for bit.  b < a
    integrates (b, a) and negates.  The result is a float for float
    limits and an array of shape S otherwise.  If any interval is still
    unconverged after level 12, RuntimeError is raised.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    a, b = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel() for v in (a, b))
    flip = b < a
    lo, hi = np.where(flip, b, a), np.where(flip, a, b)

    def level_sums(level, rows):
        x, w = _level_nodes(level, lo[rows], hi[rows])
        keep = (w != 0.0) & (x != lo[rows, None]) & (x != hi[rows, None])
        fx = np.zeros(x.shape)
        fx[keep] = f(x[keep], np.repeat(rows, np.count_nonzero(keep, axis=1)))
        ok = keep & np.isfinite(fx)
        return np.array([np.dot(wr[okr], fr[okr]) for wr, fr, okr in zip(w, fx, ok)])

    out = np.zeros(lo.shape)
    rows = np.flatnonzero(lo != hi)
    h = 1.0
    total = level_sums(0, rows) if rows.size else None
    for level in range(1, _TS_MAX_LEVEL + 1):
        if not rows.size:
            break
        h *= 0.5
        prev, total = total, 0.5 * total + h * level_sums(level, rows)
        if level >= 2:
            done = np.abs(total - prev) <= tol
            out[rows[done]] = total[done]
            rows, total = rows[~done], total[~done]
    if rows.size:
        raise RuntimeError("quadrature budget exceeded: tanh-sinh did not converge")
    out = np.where(flip, -out, out)
    return out.reshape(shape) if shape else float(out[0])
