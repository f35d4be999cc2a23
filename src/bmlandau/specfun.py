"""Self-contained special functions behind every closed-form amplitude.

Provides the confluent hypergeometric function 1F1, a Lanczos
principal-branch log-gamma, the Whittaker functions M and W, and the
Bessel function J of real order.  ``whittaker_mw`` returns M and W
together from the two Kummer functions M_{kappa,+-mu} that W needs, so a
caller of both evaluates no third one.  J goes through the complex 1F1
on the imaginary axis (DLMF 10.16.5), so every exported function goes
through ``hyp1f1``.

Everything is computed in float64 and complex128, never in long double,
so results do not depend on the platform.  There are no asymptotic
expansions: each region of 1F1 has a validated argument range, and an
argument outside it is rejected with a message naming the region.  The
``hyp1f1`` docstring holds the region table (Gil, Segura & Temme 2007,
chapters 4 and 9), the ranges, the measured errors and the broadcasting
of a, b and x; ``bessel_j``'s holds J's range and error, and
``_sum_series``'s the one series term loop and its limits.
"""

from __future__ import annotations

import cmath
import math
import numbers
from itertools import accumulate
from typing import NamedTuple

import numpy as np

# validated |x| of a non-polynomial 1F1: real x and complex x off the
# imaginary axis up to SERIES_RANGE, complex x with Re x = 0 up to _AXIS_RANGE
SERIES_RANGE = 30.0
_AXIS_RANGE = 2000.0
# validated degree n = -a of a polynomial 1F1 (integer-typed a <= 0)
_MAX_DEGREE = 60

# series limits (small-term ratio, term budget), read by _sum_series at call time
_REL_TOL = 1e-15
_MAX_TERMS = 500


def _is_nonpositive_integer(z) -> bool:
    """Exact test: true only for integer-typed values <= 0."""
    return isinstance(z, numbers.Integral) and z <= 0


def _hits_gamma_pole(z):
    """Value equal to a non-positive integer (any numeric type; elementwise for an ndarray)."""
    if isinstance(z, np.ndarray) and z.ndim:
        z = z.astype(complex)
        return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == z.real.round())
    zc = complex(z)
    return zc.imag == 0.0 and zc.real <= 0.0 and zc.real == round(zc.real)


def _all_finite(*arrays) -> bool:
    """Every entry of every array is finite (np.count_nonzero is one C call; ndarray.all() runs through Python)."""
    return all(np.count_nonzero(np.isfinite(v)) == v.size for v in arrays)


def _check_finite(value, what: str):
    if not _all_finite(value):
        raise ArithmeticError(f"{what} produced a non-finite value")
    return value


# Relative slack per term of the scalar bounds in _sum_series: covers the
# float64 rounding of the bounds and the rounding of the array terms and
# sums, a few ulp per term.
_BOUND_SLACK = 1e-14
# The bounds are trusted only between these magnitudes, where float64 has
# no underflow or overflow and the array sums stay finite.
_BOUND_TINY = 1e-280
_BOUND_HUGE = 1e280


def _moderate(*values) -> bool:
    """Each real and imaginary part is 0 or has magnitude in [1e-100, 1e100]."""
    parts = (p for v in values for p in (complex(v).real, complex(v).imag))
    return all(p == 0 or 1e-100 <= abs(p) <= 1e100 for p in parts)


def _array_test(term, total, starts):
    """The array convergence test max|term| <= _REL_TOL * max|partial sum| over each group of points.

    Group i starts at starts[i].  A non-finite term (an overflow) never
    counts as small.  Returns lists of the verdicts and of those maxima of
    |partial sum|, one entry per group.
    """
    total_max = np.maximum.reduceat(np.abs(total), starts)
    term_max = np.maximum.reduceat(np.abs(term), starts)
    return (np.isfinite(term_max) & (term_max <= _REL_TOL * total_max)).tolist(), total_max.tolist()


def _next_test(growth, i, k, s, m):
    """Group i's scalar bounds (s, m) after term k, run on to the next term whose array test they let pass.

    Returns (t, s, m, g): that term t, the bounds there and g =
    growth(i, t - 1); the terms before t are skipped (see _sum_series).
    t is past _MAX_TERMS when the budget has no such term left.
    """
    while k < _MAX_TERMS:
        g = growth(i, k)
        s *= g
        if not _BOUND_TINY <= s <= _BOUND_HUGE:
            s = math.nan
        m += s
        k += 1
        eps = (k + 1) * _BOUND_SLACK
        if not s * (1.0 - eps) > _REL_TOL * m * (1.0 + eps):
            return k, s, m, g
    return k + 1, s, m, math.nan


# an overflowed term is never small (_array_test), so a series that
# overflows ends at the term budget instead of warning
@np.errstate(over="ignore", invalid="ignore")
def _sum_series(x, ratio, growth, counts, n_terms=None):
    """Sum term_0 = 1, term_{k+1} = term_k p_k x / q_k over the 1-D ``x``, group by group.

    Group i is the next counts[i] points of ``x``, and each group is
    summed as if it were alone.  ratio(k, i) gives (p_k, q_k) of group i
    as scalars, and ratio(k, slice(None)) arrays with one entry per group.

    With ``n_terms`` exactly that many terms after term_0 are added (a
    terminating polynomial).  Otherwise a group stops after two
    consecutive terms pass ``_array_test`` over its points at ``_REL_TOL``
    with growth(i, k) < 1 (or nan), since tiny first terms may precede
    growing ones, and its points leave the working arrays; ``_MAX_TERMS``
    terms without that raise RuntimeError.

    Every term of group i is c_k x^k with c_k the same at each of its
    points, and ``growth(i, k)`` is |c_{k+1} / c_k| max|x| over the group.
    So the product s of the growths is the group's max|term_k|, and m, the
    s summed since the last array test plus that test's max|partial sum|,
    bounds its current max|partial sum|.  While s (1 - eps) > _REL_TOL m
    (1 + eps) the array test cannot pass: it is skipped and the term
    counts as not small.  eps = (k + 1) _BOUND_SLACK covers rounding.  A
    nan growth or an s outside [_BOUND_TINY, _BOUND_HUGE] turns s into
    nan, and every later term is tested.  These scalars are Python floats,
    run on group by group to each group's next array test (_next_test),
    so a term that no group tests costs the loop no scalar work.
    """
    term = np.ones_like(x)
    total = term.copy()
    sizes = list(counts)
    live = list(range(len(sizes)))  # the groups still summing
    out = home = None  # once a group has left: the results, and each working point's place in them
    # the first point of each live group and, while several are live, the
    # live group of each working point (an index into ratio's arrays)
    starts, at = [0, *accumulate(sizes[:-1])], np.repeat(live, sizes) if len(live) > 1 else None
    # each live group's next array test (_next_test) and its run of small terms
    plan = [] if n_terms is not None else [_next_test(growth, i, 0, 1.0, 1.0) for i in live]
    streak = [0] * len(live)
    due = min(plan)[0] if plan else None
    k = 0
    while k != n_terms:
        if k >= _MAX_TERMS:
            raise RuntimeError(f"series budget exceeded: 1F1 did not converge in {_MAX_TERMS} terms")
        if len(live) == 1:  # one group: its scalar ratio, with no per-point gather
            p, q = ratio(k, live[0])
        else:
            p, q = (v[at] for v in ratio(k, slice(None)))
        # f named, so numpy never multiplies it in place: the operand
        # order, and with it every bit, does not depend on the array size
        f = p * x / q
        term = term * f
        total = total + term
        k += 1
        if k != due:
            continue
        small, total_max = _array_test(term, total, starts)
        done = [False] * len(live)
        for j, (t, s, m, g) in enumerate(plan):
            if t != k:
                continue
            streak[j] = streak[j] + 1 if small[j] and not g >= 1.0 else 0
            if streak[j] >= 2:
                done[j] = True
                continue
            plan[j] = _next_test(growth, live[j], k, s, min(m, total_max[j]))
            if plan[j][0] > k + 1:
                streak[j] = 0  # the terms it skips are not small
        if all(done):
            break
        if any(done):
            if out is None:
                out, home = np.empty_like(x), np.arange(x.size)
            leaving = np.repeat(done, sizes)
            out[home[leaving]] = total[leaving]
            x, term, total, home = (v[~leaving] for v in (x, term, total, home))
            live, sizes, plan, streak = ([v for v, d in zip(seq, done) if not d] for seq in (live, sizes, plan, streak))
            starts, at = [0, *accumulate(sizes[:-1])], np.repeat(live, sizes) if len(live) > 1 else None
        due = min(plan)[0]
    if out is None:
        return total
    out[home] = total
    return out


class _Groups(NamedTuple):
    """Kummer parameters (a + a_lo, b) of the points of a sweep, group by group.

    a, a_lo and b are arrays with one entry per group, and group i holds
    the next counts[i] points.  A scalar x is a group of one point.
    """

    a: np.ndarray
    a_lo: np.ndarray
    b: np.ndarray
    counts: list

    def params(self):
        """(a, a_lo, b) of each group, in Python floats (or complex)."""
        return list(zip(self.a.tolist(), self.a_lo.tolist(), self.b.tolist()))

    def starts(self):
        """The index of each group's first point."""
        return [0, *accumulate(self.counts[:-1])]

    def where(self, mask):
        """The groups of the points where ``mask`` holds, in their order."""
        counts = np.add.reduceat(mask, self.starts(), dtype=np.intp)
        keep = np.flatnonzero(counts)
        return _Groups(self.a[keep], self.a_lo[keep], self.b[keep], counts[keep].tolist())


def _kummer_series(g, x, n_terms=None):
    """The Kummer series of 1F1(a + a_lo, b; x) of the groups ``g`` as one _sum_series sweep over ``x``.

    a, b and x share one dtype, float64 or complex128, the sweep's.  No b
    is a pole the series reaches: hyp1f1 refuses those before summing.
    """
    params = g.params()
    x_max = [0.0] * len(params) if n_terms is not None else \
        np.maximum.reduceat(np.abs(x), g.starts()).tolist()
    # no trusted bound: test every term
    x_max = [x_i if _moderate(a_i, b_i, x_i) else math.nan for (a_i, _, b_i), x_i in zip(params, x_max)]

    def growth(i, k):
        a_i, a_lo_i, b_i = params[i]
        return abs(a_i + k + a_lo_i) / abs(b_i + k) * (x_max[i] / (k + 1))

    # a_lo is 0.0 or the rounding error of a (see _kummer_general's Re x < 0
    # region), and adding 0.0 to a + k, which is never -0.0, changes no bit;
    # one group's ratio is formed in Python scalars, whose + and * round
    # as numpy's do
    def ratio(k, i):
        a, a_lo, b = params[i] if isinstance(i, int) else (g.a, g.a_lo, g.b)
        return a + k + a_lo, (b + k) * (k + 1)

    return _sum_series(x, ratio, growth, g.counts, n_terms)


def _kummer_polynomial(n, b, x):
    """1F1(-n, b; x) by the forward recurrence in a (DLMF 13.3.1).

    M(-k-1) = ((2k + b - x) M(-k) - k M(-k+1)) / (b + k) from M(0) = 1;
    the k = 0 step gives M(-1) = (b - x) / b.  b is one number, or one
    per point of x.
    """
    prev, cur = np.zeros_like(x), np.ones_like(x)
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports overflow
        for k in range(n):
            prev, cur = cur, ((2 * k + b - x) * cur - k * prev) / (b + k)
    return cur


# Complex 1F1 sums the Kummer series for |x| <= _CONTINUE_FROM and continues
# Kummer's equation by Taylor series beyond it (see _kummer_general).
_CONTINUE_FROM = 2.0
# within _RECESSIVE_NEAR of a non-positive integer a, the series also serves
# the points u (Re u >= 0) with |u| - Re u <= _SERIES_LOSS beyond it
_RECESSIVE_NEAR = 0.05
_SERIES_LOSS = 2.0
# nodes of a ray sit at distances t_0 = _CONTINUE_FROM, t_{j+1} = t_j + min(t_j / 2, _NODE_STEP)
_NODE_STEP = 2.0
# each part of a ray's direction is a multiple of 1 / _RAY_GRID, so the
# points t d of one ray share its nodes whatever the rounding of t d
_RAY_GRID = 1024
# a Taylor sum stops after two consecutive terms below _TAYLOR_TOL of its
# absolute-term sum; _TAYLOR_MAX_TERMS terms without that raise RuntimeError
_TAYLOR_TOL = 2.0**-54
_TAYLOR_MAX_TERMS = 500


def _two_diff(b, a):
    """(c, c_lo) with c = fl(b - a) and b - a = c + c_lo exactly (TwoSum).

    For floats, or for complex numbers part by part, since complex + and -
    act on the real and imaginary parts separately.
    """
    c = b - a
    return c, (b - (c - (c - b))) + (-a - (c - b))


def _taylor_coefficients(a, a_lo, b, x0, y, dy, radius):
    """Taylor coefficients c_n about x0 of the solution of Kummer's equation with y(x0), y'(x0).

    x y'' + (b - x) y' - a y = 0 (DLMF 13.2.1) gives
    c_{n+2} = ((n + a) c_n - (n + 1)(n + b - x0) c_{n+1}) / (x0 (n + 1)(n + 2)),
    and at x0 = 0, where y = 1 and y' = a / b, the series ratio
    c_{n+2} = (n + 1 + a) c_{n+1} / ((n + 2)(n + 1 + b)); enough terms are
    kept for |x - x0| <= radius.  Where |x - x0| <= |x0|/2 an error made
    in c_n reaches the sum damped by (|x - x0| / |x0|)^m after m more
    terms, so the recurrence is stable there.
    """
    c = [y, dy]
    power = radius
    scale = abs(y) + abs(dy) * power
    small = 0
    n = 0
    while small < 2:
        if n >= _TAYLOR_MAX_TERMS:
            raise RuntimeError(
                f"series budget exceeded: 1F1 continuation did not converge in {_TAYLOR_MAX_TERMS} terms"
            )
        if x0 == 0:
            c.append((n + 1 + a + a_lo) * c[n + 1] / ((n + 2) * (n + 1 + b)))
        else:
            c.append(((n + a + a_lo) * c[n] - (n + 1) * (n + b - x0) * c[n + 1]) / (x0 * ((n + 1) * (n + 2))))
        power *= radius
        size = abs(c[-1]) * power
        scale += size
        small = small + 1 if size <= _TAYLOR_TOL * scale else 0
        n += 1
    return c


def _taylor_step(c, s):
    """(y, y') at x0 + s from the Taylor coefficients c about x0 (Horner)."""
    y = dy = 0j
    for n in range(len(c) - 1, 0, -1):
        y = y * s + c[n]
        dy = dy * s + n * c[n]
    return y * s + c[0], dy


def _horner(coefs, counts, s):
    """sum_n c_n s^n at the points s, coefs[i] serving the next counts[i] points, longest list first.

    A point's sum starts at the last coefficient of its own list, which
    joins the sum when the longer lists reach that index.  Every product
    is out of place: numpy rounds an in-place complex product of one point
    differently.
    """
    acc, end = None, 0
    for i, c in enumerate(coefs):
        top = len(c) - 1
        joining = np.full(counts[i], c[top])
        acc = joining if acc is None else np.concatenate((acc, joining))
        end += counts[i]
        s_live = s[:end]
        bottom = len(coefs[i + 1]) - 1 if i + 1 < len(coefs) else 0
        if i == 0:  # the first list alone: scalar coefficients, no gather
            terms = reversed(c[bottom:top])
        else:
            rows = np.array([c_j[bottom:top] for c_j in coefs[:i + 1]])[:, ::-1].T
            terms = (row.repeat(counts[:i + 1]) for row in rows)
        for term in terms:
            acc = acc * s_live + term
    return acc


def _ray_sweep(g, u):
    """1F1(a + a_lo, b; u) of the groups ``g`` at their points u, |u| > _CONTINUE_FROM.

    Each group and ray (the direction of u rounded to multiples of
    1 / _RAY_GRID) has one node chain.  Its node values (y, y') at t_0 d
    are a Taylor step from x = 0, carried node to node in Python complex
    scalars.  Each point is one Horner sum about the last node at or below
    its distance, and one pass per node index sums the points of every
    chain at that node.  Node j of a chain and its coefficients depend
    only on (a, b, d, j), so a point's value does not depend on the other
    points.
    """
    params = g.params()
    size = np.abs(u)
    rays = np.round(u / size * _RAY_GRID) + 0.0  # + 0.0 turns -0.0 into 0.0
    # the group of each point, and the first point of each chain
    group = np.repeat(np.arange(len(params)), g.counts)
    firsts = g.starts()
    if (rays == rays[firsts][group]).all():
        chain = group  # one ray per group
    else:
        width = 2 * _RAY_GRID + 1
        key = (group * width + (rays.real + _RAY_GRID)) * width + (rays.imag + _RAY_GRID)
        _, firsts, chain = np.unique(key, return_index=True, return_inverse=True)
        chain = chain.reshape(-1)
    d = [complex(rays[i]) / _RAY_GRID for i in firsts]
    t = size / np.array([abs(d_c) for d_c in d])[chain]
    t_last = float(t.max())
    nodes = [_CONTINUE_FROM]
    while nodes[-1] + min(nodes[-1] / 2.0, _NODE_STEP) <= t_last:
        nodes.append(nodes[-1] + min(nodes[-1] / 2.0, _NODE_STEP))
    at = np.maximum(np.searchsorted(nodes, t, side="right") - 1, 0)
    # the points of node j on chain c are order[bounds[j n + c]:bounds[j n + c + 1]]
    n = len(d)
    segment = at * n + chain
    order = np.argsort(segment, kind="stable")
    sizes = np.bincount(segment, minlength=len(nodes) * n)
    bounds = [0] + np.cumsum(sizes).tolist()
    # each chain's last node with points (the point farthest out is at the last node)
    last = (len(nodes) - 1 - np.argmax(sizes.reshape(len(nodes), n)[::-1] > 0, axis=0)).tolist()
    # each chain's parameters, and (y, y') at its current node
    chain_params = [params[group[first]] for first in firsts]
    y = []
    for (a, a_lo, b), d_c in zip(chain_params, d):
        x_0 = nodes[0] * d_c
        y.append(_taylor_step(_taylor_coefficients(a, a_lo, b, 0, 1.0, (a + a_lo) / b, abs(x_0)), x_0))
    out = np.empty_like(u)
    for j, t_j in enumerate(nodes):
        step = min(t_j / 2.0, _NODE_STEP)
        node = []  # (coefficients, x_j, first, end) of each chain with points at node j
        for c, (a, a_lo, b) in enumerate(chain_params):
            if j > last[c]:
                continue
            x_j = t_j * d[c]
            # the radius also covers the points' distance from the exact ray
            coef = _taylor_coefficients(a, a_lo, b, x_j, *y[c], step + (t_j + step) / _RAY_GRID)
            if j < last[c]:
                y[c] = _taylor_step(coef, nodes[j + 1] * d[c] - x_j)
            lo, hi = bounds[j * n + c], bounds[j * n + c + 1]
            if hi > lo:
                node.append((coef, x_j, lo, hi))
        if len(node) == 1:
            coef, x_j, lo, hi = node[0]
            mine = order[lo:hi]
            out[mine] = _horner([coef], [hi - lo], u[mine] - x_j)
        elif node:
            node.sort(key=lambda seg: -len(seg[0]))
            mine = np.concatenate([order[lo:hi] for _, _, lo, hi in node])
            counts = [hi - lo for _, _, lo, hi in node]
            out[mine] = _horner([seg[0] for seg in node], counts, u[mine] - np.repeat([seg[1] for seg in node], counts))
    return out


def _kummer_general(g, x):
    """1F1(a, b; x) of the groups ``g`` (see _Groups) at their 1-D points ``x``, all float or all complex, outside the polynomial case.

    Points with Re x < 0 (complex ones only where |x| > _CONTINUE_FROM)
    take the Kummer transformation e^x 1F1(b - a, b; -x) (DLMF 13.2.39),
    b - a an exact two-float sum, so every argument u of the right half
    has Re u >= 0.  Real u, and complex u with |u| <= _CONTINUE_FROM, sum
    the Kummer series.  Other complex u continue Kummer's equation along
    their ray (_ray_sweep; Gil, Segura & Temme 2007, ch. 9).  Within
    _RECESSIVE_NEAR of a = 0, -1, -2, ... 1F1 is nearly a polynomial,
    recessive against e^u along a ray into Re u > 0, so the continuation's
    error would grow like e^{Re u}; there the series is summed where it
    loses at most about e^{|u| - Re u} <= e^{_SERIES_LOSS} to cancellation,
    and at every u when a is exactly such an integer (it terminates).
    Each region is one sweep over all its groups, and every choice above
    is made per group.
    """
    complex_x = x.dtype.kind == "c"

    def split(g, x, upper, lower_fn, upper_fn):
        # a split that sends every point one way keeps the groups as they are
        if not upper.any():
            return lower_fn(g, x)
        if upper.all():
            return upper_fn(g, x)
        return _by_region(x, upper, lambda x: lower_fn(g.where(~upper), x), lambda x: upper_fn(g.where(upper), x))

    def right_half(g, u):
        if not complex_x:
            return _kummer_series(g, u)
        # per group: 0 continues every point, 1 sums the series at every
        # point (a terminates), 2 sums it where it loses at most e^_SERIES_LOSS
        modes = []
        for a, a_lo, _ in g.params():
            n = min(round(a.real), 0)
            modes.append(0 if abs(a + a_lo - n) >= _RECESSIVE_NEAR else 1 if a_lo == 0 and a == n else 2)
        if not any(modes):
            return _ray_sweep(g, u)
        mode = np.repeat(modes, g.counts)
        along = (mode == 0) | ((mode == 2) & (np.abs(u) - u.real > _SERIES_LOSS))
        return split(g, u, along, _kummer_series, _ray_sweep)

    def left_half(g, x):
        c, c_lo = _two_diff(g.b, g.a)
        # both factors named: numpy elides no temporary, so the operand
        # order, and with it every bit, does not depend on the array's size
        exp_x = np.exp(x)
        transformed = right_half(_Groups(c, c_lo, g.b, g.counts), -x)
        return transformed * exp_x

    def halves(g, x):
        return split(g, x, x.real < 0, right_half, left_half)

    if not complex_x:
        return halves(g, x)
    return split(g, x, np.abs(x) > _CONTINUE_FROM, _kummer_series, halves)


def _by_region(x, upper, lower_fn, upper_fn):
    """lower_fn on the entries of ``x`` where ``upper`` is false, upper_fn on the rest.

    Each function sees only its own entries, so its sweep and stopping
    rule do not depend on the other region; a region with no entries is
    not evaluated.
    """
    if not upper.any():
        return lower_fn(x)
    if upper.all():
        return upper_fn(x)
    out = np.empty_like(x)
    out[~upper] = lower_fn(x[~upper])
    out[upper] = upper_fn(x[upper])
    return out


def _check_range(x):
    """Raise ValueError, naming the region, where a point of ``x`` leaves its validated range."""
    size = np.abs(x)
    if size.max() <= SERIES_RANGE:
        return
    if not np.iscomplexobj(x):
        raise ValueError(f"hyp1f1: real x out of validated range |x| <= {SERIES_RANGE:g}")
    axis = x.real == 0
    if np.any(size[axis] > _AXIS_RANGE):
        raise ValueError(f"hyp1f1: x on the imaginary axis out of validated range |x| <= {_AXIS_RANGE:g}")
    if np.any(size[~axis] > SERIES_RANGE):
        raise ValueError(
            f"hyp1f1: complex x off the imaginary axis out of validated range |x| <= {SERIES_RANGE:g}"
        )


def hyp1f1(a, b, x):
    """Kummer confluent hypergeometric function 1F1(a, b; x).

    Real arguments are computed in float64 and complex ones (any of a, b
    or x complex) in complex128, by region; each region of an array is its
    own sweep, so a point does not depend on the other regions (nor on
    the other (a, b) groups, see below).  Where x is "transformed", 1F1
    is e^x 1F1(b - a, b; -x) (DLMF 13.2.39), with b - a an exact
    two-float sum:

    ==========================  ==========================================
    integer-typed a = -n <= 0   real b and x: forward recurrence in a
                                (DLMF 13.3.1), n steps; complex: the
                                terminating series, degree n; any x;
                                n <= 60
    real, x >= 0                Kummer series sum_k (a)_k x^k/((b)_k k!)
    real, x < 0                 transformed Kummer series
    complex, |x| <= 2           Kummer series
    complex, |x| > 2            Taylor continuation along the ray from 0
                                through x, transformed where Re x < 0
    ==========================  ==========================================

    The continuation solves x y'' + (b - x) y' - a y = 0 from y(0) = 1,
    y'(0) = a/b, one Taylor step to t_0 = 2.  Nodes sit at distances t_0 and
    t_{j+1} = t_j + min(t_j / 2, 2); their values (y, y') are carried in
    Python complex scalars, and each point is one Horner sum about the
    last node at or below it.  The nodes depend only on a, b and the ray
    (directions rounded to multiples of 1/1024), so a point's value does
    not depend on the other points.  Errors, against 30-digit mpmath:

    - Recurrence: for b > 0, n <= 60 and |x| <= 100 below
      1e-13 max(|M|, e^{x/2}) / min(b, 1); the largest seen was 2e-14 of
      max(|M|, e^{x/2}) with b >= 1 and 2.2e-13 with b = 0.1.
    - Real series: below 1e-13 of their scale, the sum of the absolute
      terms, times e^x for x < 0 (largest seen 4e-15, for a in [-6, 6],
      b in [0.05, 6] and |x| <= 30): relative error when b > 0 and a > 0
      (x >= 0) or b - a > 0 (x < 0).  Complex series: below 1e-14 of its
      scale (largest seen 6e-16 at random, 1.5e-15 in a targeted search).
    - Continuation: against the local size of the solution, |M| + |M'|
      with M = 1F1(a, b; x) and M' = dM/dx, which unlike |M| does not
      vanish: below 1e-13 of it for real b in [-5.5, 6], |Re a| <= 6 and
      |Im a| <= 3, with a and b - a at least 0.05 from 0, -1, -2, ...
      (largest seen 5e-14; 2e-15 for |x| <= 4; 1.3e-14 on the +-i axis
      for 30 < |x| <= 2000).  The bound holds off the imaginary axis for
      |x| <= 30 and on it for |x| <= 2000; off the axis the error grows
      past 30 (1.5e-12 of |M| + |M'| seen at |x| = 150), so the range
      there stays 30.  For the azimuthal sector, a = 1/2 + mu - kappa and
      b = 1 + 2 mu with mu = +-1/sqrt2 and kappa = -i phi / (2 l)
      (0 <= phi <= 2) or real |kappa| <= 1, it is below 1e-15 of
      |M| + |M'| for |x| <= 4, 1e-14 up to 30 and 1e-13 on the +-i axis
      up to 2000 (largest seen 8e-16, 3e-15 and 3.1e-14).
      ``regular.azimuthal_whittaker`` allows |phi| <= 6|l|, that is
      |Im a| <= 3, inside the general bound above.
    - Continuation with a (b - a where transformed) within 0.05 of 0, -1,
      -2, ...: 1F1 is then nearly a polynomial, recessive against e^x on
      rays into Re x > 0 (e^{-x} on rays into Re x < 0), and the
      continuation's error grows like e^{|Re x|}.  The series is summed
      instead where |x| - |Re x| <= 2, where it loses at most about e^2
      to cancellation, and at every x when a (b - a) is exactly such an
      integer, where it terminates.  On other rays the error is not
      bounded as above: with b = 1/4 and |x| = 29.9 it was 8e-14 of
      |M| + |M'| at a = -2 + 0.01i, x on the ray e^{0.8i}, and 1.4e-10
      at a = -2 + 1e-8 i on the ray e^{0.4i}.
    - Complex b is outside the bounds above: where M decays along the
      ray while the other solution of the equation does not, the error
      grows with the ratio, e.g. 1e-12 of |M| + |M'| at a = 5 + 2.6i,
      b = 1.6 - 4.5i, x = 18i.

    A series sweep stops once the running term falls below 1e-15
    |partial sum| (maxima over the sweep) for two consecutive terms while
    the terms shrink; an overflowed term never counts as small, and 500
    terms without that raise RuntimeError.  The array test is skipped on
    terms where the scalar bound |c_k| max|x|^k shows it must fail, which
    leaves the stopping term and every result bit unchanged.  The
    continuation has fixed limits of its own: a Taylor sum ends after two
    terms below 2^-54 of its absolute-term sum, and 500 terms without that
    raise RuntimeError.  The polynomial test is on the Python/numpy integer
    type, never on float rounding.

    ``a``, ``b`` and ``x`` broadcast against each other (the
    ``scipy.special`` convention); the integer a of the polynomial case
    is a scalar, and an integer-typed array a raises ValueError.  The
    points of one distinct (a, b), told apart by its bits, form a group:
    its values are those of ``hyp1f1(a_k, b_k, x_group)`` on the group's
    points (broadcast, flattened, as a 1-D array) bit for bit, and every
    stopping test, budget and region choice above is the group's own.  A
    point therefore depends only on the points of its group and region.
    Each region is one sweep over all its groups, one series loop and one
    Horner pass per node index over the node chains of every group and
    ray.  That pays for many small groups; a group of a few thousand
    points is faster in a call of its own.  A scalar (or 0-d) x is a group
    of one point, summed as that point in a 1-element array: its bits
    equal those of ``hyp1f1(a, b, np.array([x]))[0]``.  Scalar a and b
    give the shape of ``x``; with an array a or b the result has the
    broadcast shape.  Real inputs give a float result, complex inputs (any
    of a, b or x) a complex one, and scalar arguments a Python scalar.  A
    polynomial degree n > 60, past the range validated above, raises
    ValueError naming that range.  So does a non-finite a, b or x, and,
    outside the polynomial case, |x| > 2000 for complex x on the
    imaginary axis (Re x = 0) and |x| > 30 for real x and complex x off
    it; the message names the region.  A b at a pole raises in any group,
    outside the polynomial case of lower degree.
    """
    a_arr, b_arr, x_arr = np.asarray(a), np.asarray(b), np.asarray(x)
    if a_arr.dtype.kind in "iub" and not isinstance(a, numbers.Integral):
        raise ValueError("hyp1f1: the polynomial case takes a scalar integer a, not an integer array")
    polynomial = _is_nonpositive_integer(a)
    if polynomial and -a > _MAX_DEGREE:
        raise ValueError(f"hyp1f1: polynomial degree -a = {-a} out of validated range -a <= {_MAX_DEGREE}")
    kind = complex if "c" in (a_arr.dtype.kind, b_arr.dtype.kind, x_arr.dtype.kind) else float
    a_arr, b_arr, x_arr = (v.astype(kind, copy=False) for v in (a_arr, b_arr, x_arr))
    if not _all_finite(a_arr, b_arr, x_arr):
        raise ValueError("hyp1f1: non-finite argument")
    pole = _hits_gamma_pole(b_arr)
    # b at a pole -m is tolerated only in the polynomial case of degree
    # n <= m, whose terms divide by b + k for k < n only
    if np.count_nonzero(pole) and not (polynomial and (-int(a) <= -b_arr.real[pole]).all()):
        raise ValueError("pole of Kummer function: b is a non-positive integer")
    shape = np.broadcast(a_arr, b_arr, x_arr).shape
    if not math.prod(shape):
        return np.empty(shape, dtype=kind)

    g, x_pts, perm = _parameter_groups(a_arr, b_arr, x_arr, shape)
    if not polynomial:
        _check_range(x_pts)
        out = _kummer_general(g, x_pts)
    elif kind is complex:
        out = _kummer_series(g, x_pts, -int(a))
    else:
        out = _kummer_polynomial(-int(a), g.b[0] if len(g.counts) == 1 else np.repeat(g.b, g.counts), x_pts)
    _check_finite(out, "hyp1f1")
    if perm is not None:
        out, sorted_out = np.empty_like(out), out
        out[perm] = sorted_out
    return out.reshape(shape) if shape else out.item()


def _parameter_groups(a, b, x, shape):
    """(groups, points, perm) of a call, a, b and x arrays of one dtype.

    The points are x broadcast to ``shape`` and flattened, a scalar x a
    single point, and ordered by group (``perm`` the ordering, None when
    they already are).  A group is one distinct (a, b), told apart by its
    bits, so -0.0 and 0.0 fall in two groups as they would in two calls;
    groups are numbered in the order of their first point.
    """
    points = x.reshape(-1) if x.shape == shape else np.broadcast_to(x, shape).ravel()
    if a.size == b.size == 1:  # one (a, b): every point in one group
        return _Groups(a.reshape(1), np.zeros(1), b.reshape(1), [points.size]), points, None
    pairs = np.empty(np.broadcast(a, b).shape + (2,), x.dtype)
    pairs[..., 0], pairs[..., 1] = a, b
    number, first, pair_group = {}, [], []  # group of each distinct bit pattern; its first entry
    for i, key in enumerate(map(tuple, pairs.reshape(-1, 2).view(np.int64).tolist())):
        if key not in number:
            number[key] = len(first)
            first.append(i)
        pair_group.append(number[key])
    a, b = pairs.reshape(-1, 2).take(first, axis=0).T
    group = np.broadcast_to(np.reshape(pair_group, pairs.shape[:-1]), shape).ravel()
    groups = _Groups(a, np.zeros(len(first)), b, np.bincount(group, minlength=len(first)).tolist())
    if np.all(group[1:] >= group[:-1]):
        return groups, points, None
    perm = np.argsort(group, kind="stable")
    return groups, points[perm], perm


def hyp1f1_deriv(a, b, x):
    """d/dx 1F1(a, b; x) = (a/b) 1F1(a+1, b+1; x) (contiguous relation).

    ``a + 1`` keeps integer type, so polynomial termination is preserved.
    """
    return (a / b) * hyp1f1(a + 1, b + 1, x)


# Lanczos approximation, g = 7, 9 coefficients.  Relative accuracy is a
# few 1e-15 on the real axis and better than 1e-12 off-axis, comfortably
# inside the 1e-12 / 1e-10 targets.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _log_sin_pi(z: complex) -> complex:
    """Principal log sin(pi z), also where sin(pi z) overflows (|Im z| past about 226).

    sin(pi z) = (-1)^n sin(pi (z - n)) with n the integer nearest Re z.
    z - n is exact, so the sine keeps the distance from z to the pole n,
    which rounding pi z would lose.
    """
    n = round(z.real)
    try:
        sine = cmath.sin(math.pi * (z - n))
    except OverflowError:
        # for Im w > 0, sin(pi w) = (i/2) e^{-i pi w} (1 - e^{2 i pi w}); for
        # Im z < 0 take w = conj(z) and conjugate back
        w = z if z.imag > 0 else z.conjugate()
        log_sin = complex(math.pi * w.imag, -math.pi * w.real) + cmath.log(0.5j)
        log_sin += cmath.log(1.0 - cmath.exp(2j * math.pi * w))
        log_sin = complex(log_sin.real, math.remainder(log_sin.imag, 2.0 * math.pi))
        return log_sin if z.imag > 0 else log_sin.conjugate()
    return cmath.log(-sine if n % 2 else sine)


def ln_gamma(z) -> complex:
    """Principal-branch log-gamma via a fixed Lanczos sum.

    For Re z < 0.5 the reflection formula is used; the branch there is the
    principal logarithm of the reflected factors, which exponentiates to
    the exact gamma function everywhere off the poles.  Where sin(pi z)
    overflows, its logarithm comes from the exponential form of the sine.
    """
    z = complex(z)
    if _hits_gamma_pole(z):
        raise ValueError("gamma pole: log-gamma undefined at non-positive integers")
    if z.real < 0.5:
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        return _LOG_PI - _log_sin_pi(z) - ln_gamma(1.0 - z)
    zz = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(acc)


def rgamma(z) -> complex:
    """1/Gamma(z), returning exactly 0.0 at the poles of Gamma."""
    if _hits_gamma_pole(z):
        return 0.0 + 0.0j
    return cmath.exp(-ln_gamma(z))


def whittaker_m(kappa, mu, x):
    """Whittaker function M_{kappa,mu}(x), scalar or array x.

    M = exp(-x/2) x^{mu+1/2} 1F1(mu - kappa + 1/2, 1 + 2 mu; x), with the
    principal branch of x^{mu+1/2} (cut on the negative real axis, where a
    -0 imaginary part takes the lower side, as numpy's log does).  The
    error is that of ``hyp1f1`` times |exp(-x/2) x^{mu+1/2}|, plus the
    rounding of x^{mu+1/2} = exp((mu + 1/2) log x), about
    eps |(mu + 1/2) log x| relative.  At x = 0, M is 0 for Re(mu + 1/2) > 0
    and singular otherwise (ValueError).
    """
    kappa = complex(kappa)
    mu = complex(mu)
    b = 1.0 + 2.0 * mu
    if _hits_gamma_pole(b):
        raise ValueError("pole of Kummer function: 1 + 2*mu is a non-positive integer")
    x_arr = np.atleast_1d(np.asarray(x, dtype=complex))  # a scalar x is a one-point array
    zero = x_arr == 0
    if np.any(zero) and (mu + 0.5).real <= 0:
        raise ValueError("whittaker_m singular at x = 0 for Re(mu + 1/2) <= 0")
    a = mu - kappa + 0.5

    def nonzero(x):
        kummer = hyp1f1(a, b, x)  # first: it refuses an x whose power would overflow
        power = np.exp((mu + 0.5) * np.log(x))
        return np.exp(-0.5 * x) * power * kummer

    # M is 0 at x = 0; the other points are one sweep of their own
    value = _by_region(x_arr, zero, nonzero, np.zeros_like)
    _check_finite(value, "whittaker_m")
    return value if np.ndim(x) else value.item()


def whittaker_mw(kappa, mu, x):
    """The pair (M_{kappa,mu}(x), W_{kappa,mu}(x)) from two Kummer functions.

    W comes from the M-connection formula (DLMF 13.14.33)

    W = Gamma(-2mu)/Gamma(1/2 - mu - kappa) M_{kappa,mu}
      + Gamma(2mu)/Gamma(1/2 + mu - kappa) M_{kappa,-mu},

    valid when 2 mu is not an integer; the M_{kappa,mu} it uses is the
    one returned, so a caller needing both pays for M_{kappa,+mu} and
    M_{kappa,-mu} only.
    """
    kappa = complex(kappa)
    mu = complex(mu)
    two_mu = 2.0 * mu
    if abs(two_mu.imag) < 1e-12 and abs(two_mu.real - round(two_mu.real)) < 1e-12:
        raise ValueError("connection formula degenerate: 2*mu is an integer")
    c_plus = cmath.exp(ln_gamma(-two_mu)) * rgamma(0.5 - mu - kappa)
    c_minus = cmath.exp(ln_gamma(two_mu)) * rgamma(0.5 + mu - kappa)
    # both M named, so numpy never multiplies one in place with the operands
    # swapped (a complex product rounds differently then): W's bits depend
    # neither on the grid length nor on the blocks it is cut into; a scalar
    # x is a one-point array, so its W is summed as an array entry too
    x_arr = np.atleast_1d(x)
    m = whittaker_m(kappa, mu, x_arr)
    m_minus = whittaker_m(kappa, -mu, x_arr)
    w = c_plus * m + c_minus * m_minus
    _check_finite(w, "whittaker_w")
    return (m, w) if np.ndim(x) else (m.item(), w.item())


def whittaker_w(kappa, mu, x):
    """Whittaker function W_{kappa,mu}(x): the second entry of ``whittaker_mw``."""
    return whittaker_mw(kappa, mu, x)[1]


# below this x, x/2 is subnormal and may round (5e-324 / 2 rounds to 0)
_HALF_EXACT_FROM = 2.0 * np.finfo(float).tiny


def _log_half(x):
    """log(x/2), finite for every x > 0 (x = 0 entries read log(1/2): mask them)."""
    x = np.where(x > 0, x, 1.0)
    with np.errstate(divide="ignore"):  # the discarded log(x / 2) of tiny x
        return np.where(x >= _HALF_EXACT_FROM, np.log(x / 2.0), np.log(x) - math.log(2.0))


def bessel_j(nu: float, x):
    """Bessel J_nu(x), nu >= 0 real, 0 <= x <= 1000, through complex 1F1 on the imaginary axis.

    J_nu(x) = (x/2)^nu / Gamma(nu + 1) e^{-ix} 1F1(nu + 1/2, 2 nu + 1; 2ix)
    (DLMF 10.16.5).  The factor (x/2)^nu / Gamma(nu + 1) is applied in
    float64 to the reduced value Re(e^{-ix} 1F1(...)), whose imaginary
    part vanishes; the 1F1 is ``hyp1f1``'s on the +i axis, the series for
    x <= 1 and the continuation beyond, so J needs 1F1 up to |2ix| = 2000.
    Absolute error below 1e-14 for nu in [0, 6] and x <= 1000 (largest
    seen 2.5e-15, near x = 8 with nu near 6), measured against mpmath at
    30 digits.

    Non-finite ``x``, x < 0, x > 1000 and nu outside [0, 6] raise ValueError.
    """
    if not 0 <= nu <= 6:  # past 6 the continuation loses J: 8.8e35 for J_60(100) = 1.06e-3
        raise ValueError(f"bessel_j: order nu = {nu:g} out of validated range 0 <= nu <= 6")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))  # a scalar x is a one-point array
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("bessel_j: non-finite argument")
    if np.any(x_arr < 0):
        raise ValueError("bessel_j requires x >= 0")
    if not x_arr.size:
        return np.empty(x_arr.shape)
    if float(np.max(x_arr)) > _AXIS_RANGE / 2.0:
        raise ValueError(f"bessel_j: x out of validated range x <= {_AXIS_RANGE / 2.0:g}")

    # both factors named, as in whittaker_mw: no product runs in place with
    # its operands swapped, so J's bits do not depend on the grid length
    kummer = hyp1f1(nu + 0.5, 2.0 * nu + 1.0, 2j * x_arr)
    phase = np.exp(-1j * x_arr)
    reduced = (kummer * phase).real

    # prefactor applied in float64; x = 0 entries handled exactly
    log_pref = np.where(x_arr > 0, nu * _log_half(x_arr), 0.0)
    pref = np.exp(log_pref - ln_gamma(nu + 1.0).real)
    result = np.where(x_arr > 0, pref * reduced, 1.0 if nu == 0 else 0.0)
    _check_finite(result, "bessel_j")
    return result if np.ndim(x) else result.item()
