"""Independent numerical ground truth for every closed-form check.

One adaptive initial-value integrator (embedded Dormand-Prince 5(4) pair
with cubic-Hermite dense output), one fourth-order five-point
central-difference stencil for every derivative a check takes, and one
singularity-tolerant quadrature (tanh-sinh double exponential).
Deliberately a single rule each: verification simplicity beats
configurability.

The integrator steps in Python floats: the flux checks integrate
2-component states, where numpy's fixed cost per call outweighs the
arithmetic, so the seven stages are written out one by one (the form of
Hairer, Norsett & Wanner's dopri5) and only the rhs sees an ndarray.
The accepted steps are stacked into arrays for the dense output.

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
    """An initial-value problem y'(q) = rhs(y, q) on a coordinate span.

    rhs receives the state as a fresh 1-D float ndarray and the
    coordinate as a float, and returns a sequence of dim floats (a list,
    a tuple or an ndarray of shape (dim,)).
    """

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


@dataclass(frozen=True)
class IVPStats:
    """Work of one integration (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4).

    nfev counts rhs calls, accepted and rejected the steps tried, and
    h_min and h_max bound the sizes of the accepted steps.
    """

    nfev: int
    accepted: int
    rejected: int
    h_min: float
    h_max: float


class IVPSolution:
    """Accepted steps plus a cubic-Hermite dense interpolant; stats is an IVPStats, or None."""

    def __init__(self, ts, ys, fs, stats=None):
        self.ts = np.asarray(ts)
        self.ys = np.asarray(ys)
        self.fs = np.asarray(fs)
        self.stats = stats
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


def _dp_step(rhs: Callable, t: float, y: list, f: list, hd: float):
    """One Dormand-Prince 5(4) step of signed size hd from (t, y), with f = rhs(y, t).

    rhs maps a list of floats and a coordinate to a list of floats.
    Returns the fifth-order state at t + hd, the rhs there (the last
    stage, reused as the first of the next step) and the componentwise
    local error estimate hd * (b5 - b4) . k.  The stages are written out
    one by one, as in Hairer, Norsett & Wanner's dopri5.
    """
    k1 = f
    k2 = rhs([y_ + hd * (1 / 5 * a) for y_, a in zip(y, k1)], t + 1 / 5 * hd)
    k3 = rhs([y_ + hd * (3 / 40 * a + 9 / 40 * b) for y_, a, b in zip(y, k1, k2)], t + 3 / 10 * hd)
    k4 = rhs(
        [y_ + hd * (44 / 45 * a - 56 / 15 * b + 32 / 9 * c) for y_, a, b, c in zip(y, k1, k2, k3)],
        t + 4 / 5 * hd,
    )
    k5 = rhs(
        [
            y_ + hd * (19372 / 6561 * a - 25360 / 2187 * b + 64448 / 6561 * c - 212 / 729 * d)
            for y_, a, b, c, d in zip(y, k1, k2, k3, k4)
        ],
        t + 8 / 9 * hd,
    )
    k6 = rhs(
        [
            y_ + hd * (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c + 49 / 176 * d - 5103 / 18656 * e)
            for y_, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
        ],
        t + hd,
    )
    y_new = [
        y_ + hd * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d - 2187 / 6784 * e + 11 / 84 * g)
        for y_, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
    ]
    k7 = rhs(y_new, t + hd)
    err = [
        hd * (71 / 57600 * a - 71 / 16695 * c + 71 / 1920 * d - 17253 / 339200 * e + 22 / 525 * g
              - 1 / 40 * q)
        for a, c, d, e, g, q in zip(k1, k3, k4, k5, k6, k7)
    ]
    return y_new, k7, err


def integrate_ivp(p: IVPProblem) -> IVPSolution:
    """Adaptive Dormand-Prince 5(4) integration with dense output.

    The local error estimate per step is kept below
    rel_tol * max(|y|, |y_new|) + abs_tol componentwise, with the step
    controller 0.9 err^(-1/5) clamped to [0.2, 5] and steps no longer
    than max_step.  State, stages and controller are Python floats; p.rhs
    is read once per call and receives each stage as a fresh 1-D float
    ndarray.  An rhs output whose shape is not (dim,) raises ValueError
    on whichever call returns it.  A step whose new state or error
    estimate has a non-finite component (a nan from the rhs, or an
    overflow) is rejected, so a rhs that turns nan or a state that leaves
    the float range ends in the stall below rather than in a nan or inf
    state.  RuntimeError is raised once the step falls below 1e-14 of
    the span's scale ("integration stalled").  The solution's stats
    count rhs calls and steps.
    """
    t0, t1 = float(p.span[0]), float(p.span[1])
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    rtol, atol = p.rel_tol, p.abs_tol
    user_rhs = p.rhs
    y = np.asarray(p.y0, dtype=float).tolist()
    shape = (len(y),)
    nfev = 0

    def rhs(y, t):
        nonlocal nfev
        nfev += 1
        f = np.asarray(user_rhs(np.array(y), t), dtype=float)
        if f.shape != shape:
            raise ValueError("rhs output size does not match state dimension")
        return f.tolist()

    t = t0
    f = rhs(y, t)

    # initial step from the scale of y and f
    scale0 = [atol + rtol * abs(v) for v in y]
    d0 = max(abs(v) / s for v, s in zip(y, scale0))
    d1 = max(abs(v) / s for v, s in zip(f, scale0))
    h = 0.01 * span if d1 == 0 or d0 == 0 else min(0.01 * span, 0.01 * d0 / d1)
    h = min(h, p.max_step, span)

    ts, ys, fs = [t], [y], [f]
    min_step = 1e-14 * max(span, abs(t0), 1.0)
    rejected = 0
    h_min, h_max = math.inf, 0.0

    while (t1 - t) * direction > 0:
        h = min(h, abs(t1 - t), p.max_step)
        if h < min_step:
            raise RuntimeError(f"integration stalled near coordinate {t!r}")
        hd = h * direction

        y_new, f_new, err_vec = _dp_step(rhs, t, y, f, hd)
        errs = [abs(e) / (atol + rtol * max(abs(a), abs(b))) for e, a, b in zip(err_vec, y, y_new)]
        # Python's max drops a nan that is not first, and float arithmetic
        # overflows to inf without a warning: a nan or an inf in the new
        # state or its error rejects the step and shrinks the next one
        err = max(errs) if all(map(math.isfinite, y_new + errs)) else math.nan

        if err <= 1.0 or (h <= min_step and err == err):
            t = t + hd
            y, f = y_new, f_new
            ts.append(t)
            ys.append(y)
            fs.append(f)
            h_min, h_max = min(h_min, h), max(h_max, h)
        else:
            rejected += 1
        factor = 0.9 * (max(err, 1e-16)) ** (-0.2)
        h = h * min(5.0, max(0.2, factor))

    stats = IVPStats(nfev, len(ts) - 1, rejected, h_min, h_max)
    return IVPSolution(np.array(ts), np.array(ys), np.array(fs), stats)


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
