"""Self-contained special functions behind every closed-form amplitude.

Provides the confluent hypergeometric function 1F1, a Lanczos
principal-branch log-gamma, the Whittaker functions M and W, and the
Bessel function J of real order.  ``whittaker_mw`` returns M and W
together from the two Kummer functions M_{kappa,+-mu} that W needs, so a
caller of both evaluates no third one.

1F1 is computed in float64 for real arguments and in complex128 for
complex ones, by region (Gil, Segura & Temme, *Numerical Methods for
Special Functions*, 2007, chapters 4 and 9); each region of an array is
its own sweep, so a point's accuracy does not depend on points of
another region:

- integer-typed a = -n: the forward recurrence in a (DLMF 13.3.1) for
  real b and x, the terminating series otherwise.
- real x, and complex x with |x| <= 2: the Kummer series.
- complex x with |x| > 2: a Taylor continuation of Kummer's equation
  x y'' + (b - x) y' - a y = 0 (DLMF 13.2.1) along the ray from 0
  through x (Gil, Segura & Temme, ch. 9), started from the series at
  |x| = 2.  The points of one ray share its nodes; each ray is a sweep.
- Re x < 0 (complex x only where |x| > 2): one Kummer transformation
  e^x 1F1(b - a, b; -x) (DLMF 13.2.39) for both dtypes, with the series
  or continuation above at -x; for real x its series does not cancel
  when b - a > 0.

Bessel J_nu(x) is (x/2)^nu e^{-ix} 1F1(nu + 1/2, 2 nu + 1; 2ix) /
Gamma(nu + 1) (DLMF 10.16.5), the complex 1F1 on the imaginary axis, so
every exported function goes through ``hyp1f1``.

No long double is used anywhere, so results do not depend on the
platform's long double (float64, x87 extended or software quad).  The
measured accuracy of each region is in the docstrings of ``hyp1f1`` and
``bessel_j``.

No asymptotic or large-argument expansions.  Arguments are validated by
region: complex x on the imaginary axis (Re x = 0) for |x| <= 2000, so
J_nu for 0 <= x <= 1000; real x, and complex x off the axis, for
|x| <= 30; any finite x for a polynomial 1F1.  A larger argument is
rejected with a message naming its region, as are non-finite arguments.

The series share one term loop, ``_sum_series``, with fixed limits: a
term counts as small below 1e-15 of the partial sum while the terms
shrink, an overflowed term never does, and a series that has not
converged in 500 terms raises RuntimeError.  Every term of one sweep is
c_k x^k with c_k independent of the grid point, so the largest term over
the grid and a bound on every partial sum follow from two scalars; the
array convergence test runs only on terms where these scalars leave it a
chance to pass.  The truncation rule and every result bit are those of
a loop that tests every term.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers

import numpy as np

# validated |x| of a non-polynomial 1F1: real x and complex x off the
# imaginary axis up to SERIES_RANGE, complex x with Re x = 0 up to _AXIS_RANGE
SERIES_RANGE = 30.0
_AXIS_RANGE = 2000.0

# series limits (small-term ratio, term budget), read by _sum_series at call time
_REL_TOL = 1e-15
_MAX_TERMS = 500


def _is_nonpositive_integer(z) -> bool:
    """Exact test: true only for integer-typed values <= 0."""
    return isinstance(z, numbers.Integral) and z <= 0


def _is_nonreal(z) -> bool:
    return isinstance(z, numbers.Complex) and not isinstance(z, numbers.Real)


def _hits_gamma_pole(z) -> bool:
    """Value equal to a non-positive integer (any numeric type)."""
    zc = complex(z)
    return zc.imag == 0.0 and zc.real <= 0.0 and zc.real == round(zc.real)


def _check_finite(value, what: str):
    if not np.all(np.isfinite(value)):
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


def _array_test(term, total):
    """The array convergence test max|term| <= _REL_TOL * max|partial sum|.

    A non-finite term (an overflow) never counts as small.  Returns the
    verdict and that maximum.
    """
    total_max = np.max(np.abs(total))
    term_max = np.max(np.abs(term))
    return np.isfinite(term_max) and term_max <= _REL_TOL * total_max, float(total_max)


# an overflowed term is never small (_array_test), so a series that
# overflows ends at the term budget instead of warning
@np.errstate(over="ignore", invalid="ignore")
def _sum_series(like, factor, growth, what: str, n_terms=None):
    """Sum term_0 = 1, term_{k+1} = term_k * factor(k) over an array shaped ``like``.

    With ``n_terms`` exactly that many terms after term_0 are added (a
    terminating polynomial).  Otherwise the sum stops after two consecutive
    terms pass ``_array_test`` at ``_REL_TOL`` with growth(k) < 1 (or nan),
    since tiny first terms may precede growing ones; ``_MAX_TERMS`` terms
    without that raise RuntimeError.

    Every term is c_k x^k with c_k the same at every grid point, and
    ``growth(k)`` is |c_{k+1} / c_k| max|x|.  So the product s of the
    growths is max|term_k| over the grid, and m, the s summed since the
    last array test plus that test's max|partial sum|, bounds the current
    max|partial sum|.  While s (1 - eps) > _REL_TOL m (1 + eps) the array
    test cannot pass: it is skipped and the term counts as not small.
    eps = (k + 1) _BOUND_SLACK covers rounding.  A nan growth or an s
    outside [_BOUND_TINY, _BOUND_HUGE] turns s into nan, and every later
    term is tested.
    """
    term = np.ones_like(like)
    total = term.copy()
    s = m = 1.0
    small_streak = 0
    k = 0
    while True:
        if n_terms is not None and k >= n_terms:
            break
        if k >= _MAX_TERMS:
            raise RuntimeError(f"series budget exceeded: {what} did not converge in {_MAX_TERMS} terms")
        term = term * factor(k)
        total = total + term
        if n_terms is not None:
            k += 1
            continue
        g = growth(k)
        s *= g
        if not _BOUND_TINY <= s <= _BOUND_HUGE:
            s = math.nan
        m += s
        k += 1
        eps = (k + 1) * _BOUND_SLACK
        if s * (1.0 - eps) > _REL_TOL * m * (1.0 + eps):
            small_streak = 0
            continue
        small, total_max = _array_test(term, total)
        m = min(m, total_max)
        if small and not g >= 1.0:
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    return total


# The per-term factors are module functions bound with functools.partial,
# not closures over the arrays: with the arrays in closure cells, peak RSS
# of a 1e5-point Whittaker request rose by 3.5 MB (allocator layout; the
# live memory was the same).
def _kummer_factor(aw, a_lo, bw, xw, k):
    """Term ratio (a + k) x / ((b + k)(k + 1)) of the Kummer series, a = aw + a_lo.

    a_lo is 0.0 or the rounding error of aw (see hyp1f1's x < 0 region);
    adding 0.0 to aw + k, which is never -0.0, changes no bit.
    """
    denom = (bw + k) * (k + 1)
    if denom == 0:
        raise ValueError("pole of Kummer function: b is a non-positive integer")
    return (aw + k + a_lo) * xw / denom


def _kummer_series(a, b, x, work, n_terms=None, a_lo=0.0):
    """The Kummer series of 1F1(a + a_lo, b; x) as one _sum_series sweep over ``x`` in dtype ``work``.

    ``a`` and ``b`` are Python floats for a float64 sweep and complex for
    a complex128 one.
    """
    x_max = float(np.max(np.abs(x))) if n_terms is None else 0.0
    if not _moderate(a, b, x_max):
        x_max = math.nan  # no trusted bound: test every term

    def growth(k):
        return abs(a + k + a_lo) / abs(b + k) * (x_max / (k + 1))

    xw = x.astype(work)
    factor = functools.partial(_kummer_factor, work(a), a_lo, work(b), xw)
    return _sum_series(xw, factor, growth, "1F1", n_terms=n_terms)


def _kummer_polynomial(n, b, x):
    """1F1(-n, b; x) by the forward recurrence in a (DLMF 13.3.1).

    M(-k-1) = ((2k + b - x) M(-k) - k M(-k+1)) / (b + k) from M(0) = 1;
    the k = 0 step gives M(-1) = (b - x) / b.
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


def _taylor_budget():
    raise RuntimeError(
        f"series budget exceeded: 1F1 continuation did not converge in {_TAYLOR_MAX_TERMS} terms"
    )


def _kummer_start(a, a_lo, b, x0):
    """(1F1, d/dx 1F1) of 1F1(a + a_lo, b; x) at the scalar x0, by the Kummer series in Python complex."""
    term = y = 1.0 + 0j
    dy = 0j
    scale = 1.0
    small = 0
    for k in range(_TAYLOR_MAX_TERMS):
        term *= (a + k + a_lo) * x0 / ((b + k) * (k + 1))
        y += term
        dy += (k + 1) * term
        size = abs(term) * (k + 2)
        scale += size
        small = small + 1 if size <= _TAYLOR_TOL * scale else 0
        if small == 2:
            return y, dy / x0
    _taylor_budget()


def _taylor_coefficients(a, a_lo, b, x0, y, dy, radius):
    """Taylor coefficients c_n about x0 of the solution of Kummer's equation with y(x0), y'(x0).

    x y'' + (b - x) y' - a y = 0 (DLMF 13.2.1) gives
    c_{n+2} = ((n + a) c_n - (n + 1)(n + b - x0) c_{n+1}) / (x0 (n + 1)(n + 2));
    enough terms are kept for |x - x0| <= radius.  Where |x - x0| <= |x0|/2
    an error made in c_n reaches the sum damped by (|x - x0| / |x0|)^m
    after m more terms, so the recurrence is stable there.
    """
    c = [y, dy]
    power = radius
    scale = abs(y) + abs(dy) * power
    small = 0
    n = 0
    while small < 2:
        if n >= _TAYLOR_MAX_TERMS:
            _taylor_budget()
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


def _ray_sweep(a, a_lo, b, d, x):
    """1F1(a + a_lo, b; x) at points x near the ray t d, t > _CONTINUE_FROM.

    The node values (y, y') start from the Kummer series at t_0 d and are
    carried node to node in Python complex scalars; each point is one
    Horner sum about the last node at or below its distance.  Node j and
    its coefficients depend only on (a, b, d, j), so a point's value does
    not depend on the other points of the sweep.
    """
    t = np.abs(x) / abs(d)
    t_last = float(np.max(t))
    nodes = [_CONTINUE_FROM]
    while nodes[-1] + min(nodes[-1] / 2.0, _NODE_STEP) <= t_last:
        nodes.append(nodes[-1] + min(nodes[-1] / 2.0, _NODE_STEP))
    at = np.maximum(np.searchsorted(nodes, t, side="right") - 1, 0)
    # the points of node j are order[start[j]:start[j + 1]], in their order in x
    order = np.argsort(at, kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(at, minlength=len(nodes)))))
    out = np.empty_like(x)
    y, dy = _kummer_start(a, a_lo, b, nodes[0] * d)
    for j, t_j in enumerate(nodes):
        step = min(t_j / 2.0, _NODE_STEP)
        x_j = t_j * d
        # the radius also covers the points' distance from the exact ray
        c = _taylor_coefficients(a, a_lo, b, x_j, y, dy, step + (t_j + step) / _RAY_GRID)
        if start[j + 1] > start[j]:
            mine = order[start[j]:start[j + 1]]
            s = x[mine] - x_j
            acc = np.full_like(s, c[-1])
            for c_n in reversed(c[:-1]):
                # not acc *= s: numpy's in-place complex product rounds
                # differently for short and long arrays
                acc = acc * s + c_n
            out[mine] = acc
        if j + 1 < len(nodes):
            y, dy = _taylor_step(c, nodes[j + 1] * d - x_j)
    return out


def _kummer_general(a, b, x):
    """1F1(a, b; x) of float a, b, x or of complex ones, outside the polynomial case.

    Points with Re x < 0 (complex ones only where |x| > _CONTINUE_FROM)
    take the Kummer transformation e^x 1F1(b - a, b; -x) (DLMF 13.2.39),
    b - a an exact two-float sum, so every argument u of the right half
    has Re u >= 0.  Real u, and complex u with |u| <= _CONTINUE_FROM, sum
    the Kummer series.  Other complex u continue Kummer's equation along
    their ray (_ray_sweep; Gil, Segura & Temme 2007, ch. 9), grouped by
    direction rounded to multiples of 1 / _RAY_GRID.  Within
    _RECESSIVE_NEAR of a = 0, -1, -2, ... 1F1 is nearly a polynomial,
    recessive against e^u along a ray into Re u > 0, so the continuation's
    error would grow like e^{Re u}; there the series is summed where it
    loses at most about e^{|u| - Re u} <= e^{_SERIES_LOSS} to cancellation,
    and at every u when a is exactly such an integer (it terminates).
    """
    complex_x = np.iscomplexobj(x)

    def by_ray(a, a_lo, u):
        rays = np.round(u / np.abs(u) * _RAY_GRID) + 0.0  # + 0.0 turns -0.0 into 0.0
        if np.all(rays == rays[0]):
            return _ray_sweep(a, a_lo, b, complex(rays[0]) / _RAY_GRID, u)
        distinct, which = np.unique(rays, return_inverse=True)
        out = np.empty_like(u)
        for i, ray in enumerate(distinct):
            mine = which == i
            out[mine] = _ray_sweep(a, a_lo, b, complex(ray) / _RAY_GRID, u[mine])
        return out

    def right_half(a, a_lo, u):
        if not complex_x:
            return _kummer_series(a, b, u, np.float64, a_lo=a_lo)
        series = functools.partial(_kummer_series, a, b, work=np.complex128, a_lo=a_lo)
        n = min(round(a.real), 0)
        if abs(a + a_lo - n) >= _RECESSIVE_NEAR:
            return by_ray(a, a_lo, u)
        if a_lo == 0 and a == n:
            return series(u)
        return _by_region(u, np.abs(u) - u.real > _SERIES_LOSS, series, lambda u: by_ray(a, a_lo, u))

    def left_half(x):
        c, c_lo = _two_diff(b, a)
        # both factors named: numpy elides no temporary, so the operand
        # order, and with it every bit, does not depend on the array's size
        exp_x = np.exp(x)
        transformed = right_half(c, c_lo, -x)
        return transformed * exp_x

    def halves(x):
        return _by_region(x, x.real < 0, lambda x: right_half(a, 0.0, x), left_half)

    if not complex_x:
        return halves(x)
    # the rays index 1-D arrays, but the series keeps the caller's shape:
    # a 0-d complex sweep rounds differently from a 1-element one
    series = functools.partial(_kummer_series, a, b, work=np.complex128)
    return _by_region(x, np.abs(x) > _CONTINUE_FROM, series, lambda x: halves(x.reshape(-1)).reshape(x.shape))


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
    if float(np.max(size)) <= SERIES_RANGE:
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
    own sweep, so a point does not depend on the other regions.  Where x
    is "transformed", 1F1 is e^x 1F1(b - a, b; -x) (DLMF 13.2.39), with
    b - a an exact two-float sum:

    ==========================  ==========================================
    integer-typed a = -n <= 0   real b and x: forward recurrence in a
                                (DLMF 13.3.1), n steps; complex: the
                                terminating series, degree n; any x
    real, x >= 0                Kummer series sum_k (a)_k x^k/((b)_k k!)
    real, x < 0                 transformed Kummer series
    complex, |x| <= 2           Kummer series
    complex, |x| > 2            Taylor continuation along the ray from 0
                                through x, transformed where Re x < 0
    ==========================  ==========================================

    The continuation solves x y'' + (b - x) y' - a y = 0 from the series
    at |x| = 2.  Nodes sit at distances t_0 = 2 and
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

    ``x`` may be a scalar or ndarray.  Real inputs give a float result,
    complex inputs a complex one.  Non-finite ``x`` raises ValueError, as
    does, outside the polynomial case, |x| > 2000 for complex x on the
    imaginary axis (Re x = 0) and |x| > 30 for real x and complex x off
    it; the message names the region.
    """
    polynomial = _is_nonpositive_integer(a)
    if _hits_gamma_pole(b):
        # b at a pole -m is tolerated only in the polynomial case of degree
        # n <= m, whose terms divide by b + k for k < n only
        if not (polynomial and -int(a) <= -round(complex(b).real)):
            raise ValueError("pole of Kummer function: b is a non-positive integer")

    x_arr = np.asarray(x)
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("hyp1f1: non-finite argument")
    kind = complex if _is_nonreal(a) or _is_nonreal(b) or np.iscomplexobj(x_arr) else float
    if not x_arr.size:
        return np.empty(x_arr.shape, dtype=kind)

    if not polynomial:
        _check_range(x_arr)
        out = _kummer_general(kind(a), kind(b), x_arr.astype(kind))
    elif kind is complex:
        out = _kummer_series(complex(a), complex(b), x_arr.astype(complex), np.complex128, -int(a))
    else:
        out = _kummer_polynomial(-int(a), float(b), x_arr.astype(float))
    _check_finite(out, "hyp1f1")
    return out if out.ndim else out.item()


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


def ln_gamma(z) -> complex:
    """Principal-branch log-gamma via a fixed Lanczos sum.

    For Re z < 0.5 the reflection formula is used; the branch there is the
    principal logarithm of the reflected factors, which exponentiates to
    the exact gamma function everywhere off the poles.
    """
    z = complex(z)
    if _hits_gamma_pole(z):
        raise ValueError("gamma pole: log-gamma undefined at non-positive integers")
    if z.real < 0.5:
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        return _LOG_PI - cmath.log(cmath.sin(math.pi * z)) - ln_gamma(1.0 - z)
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
    principal branch of x^{mu+1/2} (cut on the negative real axis).  The
    error is that of ``hyp1f1`` times |exp(-x/2) x^{mu+1/2}|, plus the
    rounding of x^{mu+1/2} = exp((mu + 1/2) log x), about
    eps |(mu + 1/2) log x| relative.
    """
    kappa = complex(kappa)
    mu = complex(mu)
    b = 1.0 + 2.0 * mu
    if _hits_gamma_pole(b):
        raise ValueError("pole of Kummer function: 1 + 2*mu is a non-positive integer")
    x_arr = np.asarray(x, dtype=complex)
    if np.any(x_arr == 0):
        if (mu + 0.5).real > 0 and x_arr.ndim == 0:
            return 0.0 + 0.0j
        raise ValueError("whittaker_m singular at x = 0 for Re(mu + 1/2) <= 0")
    a = mu - kappa + 0.5
    power = np.exp((mu + 0.5) * np.log(x_arr))
    value = np.exp(-0.5 * x_arr) * power * hyp1f1(a, b, x_arr)
    _check_finite(value, "whittaker_m")
    return value if np.asarray(x).ndim else complex(value)


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
    # both M named: numpy multiplies a fresh array of 16,384 or more points
    # in place, which rounds differently, so W would depend on the grid length
    m = whittaker_m(kappa, mu, x)
    m_minus = whittaker_m(kappa, -mu, x)
    w = c_plus * m + c_minus * m_minus
    _check_finite(w, "whittaker_w")
    return m, w


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

    Non-finite ``x``, x < 0, nu < 0 and x > 1000 raise ValueError.
    """
    if nu < 0:
        raise ValueError("bessel_j requires nu >= 0")
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("bessel_j: non-finite argument")
    if np.any(x_arr < 0):
        raise ValueError("bessel_j requires x >= 0")
    if not x_arr.size:
        return np.empty(x_arr.shape)
    if float(np.max(x_arr)) > _AXIS_RANGE / 2.0:
        raise ValueError(f"bessel_j: x out of validated range x <= {_AXIS_RANGE / 2.0:g}")

    # both factors named, as in whittaker_mw: no product is done in place
    kummer = hyp1f1(nu + 0.5, 2.0 * nu + 1.0, 2j * x_arr)
    phase = np.exp(-1j * x_arr)
    reduced = (kummer * phase).real

    # prefactor applied in float64; x = 0 entries handled exactly
    log_pref = np.where(x_arr > 0, nu * _log_half(x_arr), 0.0)
    pref = np.exp(log_pref - ln_gamma(nu + 1.0).real)
    result = np.where(x_arr > 0, pref * reduced, 1.0 if nu == 0 else 0.0)
    _check_finite(result, "bessel_j")
    return result if result.ndim else result.item()
