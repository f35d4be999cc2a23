"""Seeded request lists for the three benchmark workloads.

Every request is a ``bmlandau`` command line plus the physical parameters
that the correctness gate needs to recompute sampled rows with mpmath.
The workload seed picks the parameters and the order of the requests;
the mix of verbs in a pass is fixed, so a pass costs about the same on
every seed and run-to-run spread reflects the program, not the draw.

Parameter ranges.  Each range is centred on the example documented in
the README for that verb and spans it by about a factor of two.  Grid
extents are fixed in units of the series argument, at the README
example's value, so the number of series terms, and so the cost of a
request, does not depend on the seed; the seed varies the physics.  Grid
counts are the workload's (1e5 points on ``profile_1e5``, 1e3 on
``small_requests``).

- flow ``Lambda`` in [0.5, 2]: the README example uses Lambda = 1.
- flow ``E_pi`` = f * 8 sqrt(Lambda) with f in [1.1, 2]: f > 1 keeps the
  discriminant positive, the only branch the closed form covers; the
  README example has f = 10/8.  E_pi > 0 as in the README.
- flow ``theta0`` in [0, pi): the README uses 0; the phase is periodic.
  Grid 0:6.3 as in the README.
- theta Whittaker ``l`` in {1, 2, 3} and ``r`` in [0.5, 1.5] (so the flux
  ratio phi = r^2/2 is in [0.125, 1.125]): the README example is l = 1,
  r = 1.  Grid 0.2/l:2/l, so the argument 2 i l theta spans 0.4i..4i as
  on the README grid 0.2:2 at l = 1.  Half of the small requests add a
  W_{kappa,mu} term (c2 != 0), the other branch of the amplitude.
- radial regularised ``n_r`` in 0..6 and ``l`` in 0..4: the README spectrum
  examples use n_r in 0:4 and l in 0:6.  Grid 0:3, the README radial grid.
- axial regularised ``k_z`` in [0.5, 2]: the README example is k_z = 1 on
  0.1:5.  Grid 0.1/k_z:5/k_z, so the Bessel argument spans 0.1..5 as there.
- radial Pinney (``ep``) Kummer label ``a`` in [-1, 0.5] (the CLI default is
  0), weights A, B in [0.5, 2] and D = rho sqrt(A B) with rho in
  [-0.5, 0.5], which keeps A B - D^2 > 0.  Grid 0:3.
- spectrum tables: n_r 0:n with n in 0..4, l from 0 or 1 up to 1..6, one
  or two k_z in [0, 2]: the README tables are n_r 0:4, l 1:6, k_z 0,1.

``verify_all`` has no generated inputs: its only request is
``verify --suite all`` and the seed is ignored.

``HELDOUT_SEED`` is kept out of every tuning run; a later claim of a gain
must also hold on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

HELDOUT_SEED = 7919

WORKLOADS = ("verify_all", "profile_1e5", "small_requests")

PROFILE_POINTS = 100_000
SMALL_POINTS = 1_000
SMALL_CYCLES = 10  # each cycle holds one request of every small kind

# the first request of a pass is fixed per workload, so the cold request
# that set-up time includes costs the same on every seed
PROFILE_KINDS = ("r_regularised", "flow", "theta_whittaker", "z_regularised", "r_ep")
SMALL_KINDS = PROFILE_KINDS + ("spectrum", "verify_spectrum")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what the gate needs to check its output."""

    kind: str
    argv: tuple
    params: dict = field(default_factory=dict)
    points: int = 0  # grid count; 0 for spectrum tables and verify
    fmt: str = "csv"


def _g(x: float) -> str:
    """Shortest repr, so the CLI parses back exactly the value the gate uses."""
    return repr(float(x))


def _flow(rng: random.Random, n: int, fmt: str) -> Request:
    lam = rng.uniform(0.5, 2.0)
    e_pi = rng.uniform(1.1, 2.0) * 8.0 * math.sqrt(lam)
    theta0 = rng.uniform(0.0, math.pi)
    lam, e_pi, theta0 = float(_g(lam)), float(_g(e_pi)), float(_g(theta0))
    argv = ("flow", f"--lambda={_g(lam)}", f"--e-pi={_g(e_pi)}", f"--theta0={_g(theta0)}",
            f"--grid=0:6.3:{n}", f"--format={fmt}")
    return Request("flow", argv, {"Lambda": lam, "E_pi": e_pi, "theta0": theta0,
                                  "start": 0.0, "stop": 6.3}, n, fmt)


def _theta_whittaker(rng: random.Random, n: int, fmt: str, with_w: bool = False) -> Request:
    l = rng.randint(1, 3)
    r = float(_g(rng.uniform(0.5, 1.5)))
    theta_min, theta_max = float(_g(0.2 / l)), float(_g(2.0 / l))
    c1, c2 = complex(1.0, 0.0), complex(0.0, 0.0)
    if with_w:
        c1 = complex(float(_g(rng.uniform(0.5, 1.5))), 0.0)
        c2 = complex(0.0, float(_g(rng.uniform(0.2, 1.0))))
    argv = ("amplitude", "--sector", "theta", "--branch", "whittaker", f"--l={l}",
            f"--r={_g(r)}", f"--c1={c1}", f"--c2={c2}",
            f"--grid={_g(theta_min)}:{_g(theta_max)}:{n}", f"--format={fmt}")
    return Request("theta_whittaker", argv, {"l": l, "r": r, "c1": c1, "c2": c2,
                                             "start": theta_min, "stop": theta_max}, n, fmt)


def _r_regularised(rng: random.Random, n: int, fmt: str) -> Request:
    n_r, l = rng.randint(0, 6), rng.randint(0, 4)
    argv = ("amplitude", "--sector", "r", "--branch", "regularised", f"--nr={n_r}",
            f"--l={l}", f"--grid=0:3:{n}", f"--format={fmt}")
    return Request("r_regularised", argv, {"n_r": n_r, "l": l, "start": 0.0, "stop": 3.0}, n, fmt)


def _z_regularised(rng: random.Random, n: int, fmt: str) -> Request:
    k_z = float(_g(rng.uniform(0.5, 2.0)))
    z_min, z_max = float(_g(0.1 / k_z)), float(_g(5.0 / k_z))
    argv = ("amplitude", "--sector", "z", "--branch", "regularised", f"--kz={_g(k_z)}",
            f"--grid={_g(z_min)}:{_g(z_max)}:{n}", f"--format={fmt}")
    return Request("z_regularised", argv, {"k_z": k_z, "start": z_min, "stop": z_max}, n, fmt)


def _r_ep(rng: random.Random, n: int, fmt: str) -> Request:
    a = float(_g(rng.uniform(-1.0, 0.5)))
    A, B = float(_g(rng.uniform(0.5, 2.0))), float(_g(rng.uniform(0.5, 2.0)))
    D = float(_g(rng.uniform(-0.5, 0.5) * math.sqrt(A * B)))
    argv = ("amplitude", "--sector", "r", "--branch", "ep", f"--a={_g(a)}", f"--A={_g(A)}",
            f"--B={_g(B)}", f"--D={_g(D)}", f"--grid=0:3:{n}", f"--format={fmt}")
    return Request("r_ep", argv, {"a": a, "A": A, "B": B, "D": D, "start": 0.0, "stop": 3.0}, n, fmt)


def _spectrum(rng: random.Random, fmt: str) -> Request:
    nr_max = rng.randint(0, 4)
    l_lo = rng.randint(0, 1)
    l_hi = rng.randint(max(l_lo, 1), 6)
    kz = sorted({float(_g(rng.uniform(0.0, 2.0))) for _ in range(rng.randint(1, 2))})
    argv = ("spectrum", f"--nr=0:{nr_max}", f"--l={l_lo}:{l_hi}",
            "--kz", ",".join(_g(k) for k in kz), "--model", "all", f"--format={fmt}")
    params = {"nr": list(range(nr_max + 1)), "l": list(range(l_lo, l_hi + 1)), "kz": kz}
    return Request("spectrum", argv, params, 0, fmt)


def _verify(suite: str) -> Request:
    return Request(f"verify_{suite}", ("verify", "--suite", suite), {"suite": suite}, 0, "json")


def _make(kind: str, rng: random.Random, n: int, fmt: str) -> Request:
    if kind == "flow":
        return _flow(rng, n, fmt)
    if kind == "theta_whittaker":
        # the JSON half of the small requests adds the W branch (connection formula)
        return _theta_whittaker(rng, n, fmt, with_w=fmt == "json")
    if kind == "r_regularised":
        return _r_regularised(rng, n, fmt)
    if kind == "z_regularised":
        return _z_regularised(rng, n, fmt)
    if kind == "r_ep":
        return _r_ep(rng, n, fmt)
    if kind == "spectrum":
        return _spectrum(rng, fmt)
    return _verify("spectrum")


def requests_for(workload: str, seed: int, scale: float = 1.0) -> list[Request]:
    """The request list of one pass of ``workload``.

    ``scale`` shrinks grid counts and the number of small-request cycles;
    only the short self-test mode sets it below 1.
    """
    rng = random.Random(seed)
    if workload == "verify_all":
        return [_verify("all")]
    if workload == "profile_1e5":
        first, *rest = PROFILE_KINDS
        rng.shuffle(rest)
        n = max(int(PROFILE_POINTS * scale), 10)
        return [_make(kind, rng, n, "csv") for kind in [first, *rest]]
    if workload == "small_requests":
        n = max(int(SMALL_POINTS * scale), 10)
        first, *rest = SMALL_KINDS
        kinds = [first]
        for cycle in range(max(int(SMALL_CYCLES * scale), 1)):
            order = rest + [first] if cycle else list(rest)
            rng.shuffle(order)
            kinds += order
        return [_make(kind, rng, n, "csv" if i % 2 == 0 else "json") for i, kind in enumerate(kinds)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
