"""Per-layer spans and counts, recorded from outside the program.

The layers are the ``bmlandau`` modules.  ``Tracer.install`` replaces each
public function of a layer with a wrapper that records a span (name,
start, end, parent span, request id) and per-name counts.  The wrapper is
put in every ``bmlandau`` namespace that holds the function, including
names imported with ``from .x import f`` (``flux.quad_singular``,
``verify.integrate_ivp``, ``regular.hyp1f1``) and the ``verify.SUITES``
registry, so every call path goes through it.  ``uninstall`` puts the
originals back.  Nothing inside ``src/`` is edited.

Special cases, all observed from outside:

- ``cli``: only ``main`` is wrapped, so its self time is the CLI's own
  work (parsing, per-point loops, formatting) minus the library calls.
- ``core``: the validating ``__post_init__`` of each container and
  ``SampledProfile.step``.
- ``specfun.hyp1f1`` is split into ``_poly`` (integer a <= 0, a
  terminating series), ``_complex`` and ``_real`` by its argument types.
- ``oracle.quad_singular`` counts integrand evaluations by wrapping ``f``;
  ``oracle.integrate_ivp`` counts right-hand-side evaluations by wrapping
  ``p.rhs`` and accepted steps as ``len(sol.ts) - 1``.
- ``regular.radial_regularised``/``axial_regularised`` are factories that
  cost nothing; the closures they return are wrapped instead.
- the verify checks are named by the check name they report.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import numbers
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = ("core", "specfun", "oracle", "ermakov", "sectors", "flux", "regular", "spectrum", "verify", "cli")

# the sampled array among the positional arguments, for spans that count points
POINTS = {
    "flux.first_integral_radicand": lambda args: args[0],
    "flux.pi_theta_closed": lambda args: args[0],
    "flux.s_theta_closed": lambda args: args[0],
    "specfun.bessel_j": lambda args: args[1],
    "regular.azimuthal_whittaker": lambda args: args[0],
    "regular.theta_local_branch": lambda args: args[0],
    "oracle.fd_residual": lambda args: args[0].grid,
}
CLOSURE_FACTORIES = ("regular.radial_regularised", "regular.axial_regularised")
CORE_METHODS = (
    ("PhysParams", "__post_init__"),
    ("QuantumNumbers", "__post_init__"),
    ("SampledProfile", "__post_init__"),
    ("SampledProfile", "step"),
)


@dataclass
class Stat:
    calls: int = 0
    points: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n


def _points(x) -> int:
    return int(np.size(x))


def _hyp1f1_kind(a, b, x) -> str:
    if isinstance(a, numbers.Integral) and a <= 0:
        return "specfun.hyp1f1_poly"
    nonreal = lambda z: isinstance(z, numbers.Complex) and not isinstance(z, numbers.Real)
    if nonreal(a) or nonreal(b) or np.iscomplexobj(x):
        return "specfun.hyp1f1_complex"
    return "specfun.hyp1f1_real"


class Tracer:
    """Spans kept in memory, per-name stats, and the wrappers that feed them."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, request id)
        self.stats: dict[str, Stat] = {}
        self.request = -1
        self.check_suite: dict[str, str] = {}  # verify check span name -> suite
        self.renames: dict[str, str] = {}  # check function span name -> check span name
        self._stack: list = []  # [span index, seconds covered by children]
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def run(self, name, fn, args, kwargs, points=0):
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1][0] if stack else -1
        frame = [index, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.spans[index] = (name, start, end, parent, self.request)
            st = self.stat(name)
            st.calls += 1
            st.points += points
            st.self_s += duration - frame[1]
            st.total_s += duration

    def finish(self):
        """Move stats recorded under a check's function name to its check name."""
        for old, new in self.renames.items():
            if old in self.stats:
                self.stats[new] = self.stats.pop(old)

    # -- wrappers ------------------------------------------------------------

    def _plain(self, name, fn):
        sampled = POINTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run(name, fn, args, kwargs, _points(sampled(args)) if sampled else 0)

        return wrapper

    def _hyp1f1(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b, x, *rest, **kwargs):
            return self.run(_hyp1f1_kind(a, b, x), fn, (a, b, x, *rest), kwargs, _points(x))

        return wrapper

    def _quad_singular(self, fn):
        name = "oracle.quad_singular"

        @functools.wraps(fn)
        def wrapper(f, *rest, **kwargs):
            st = self.stat(name)

            def counted(*a):
                st.add("integrand_evals", 1)
                return f(*a)

            return self.run(name, fn, (counted, *rest), kwargs)

        return wrapper

    def _integrate_ivp(self, fn):
        name = "oracle.integrate_ivp"

        @functools.wraps(fn)
        def wrapper(p):
            st = self.stat(name)
            rhs = p.rhs

            def counted(*a):
                st.add("rhs_evals", 1)
                return rhs(*a)

            p.rhs = counted
            try:
                sol = self.run(name, fn, (p,), {})
            finally:
                p.rhs = rhs
            st.add("accepted_steps", len(sol.ts) - 1)
            return sol

        return wrapper

    def _closure_factory(self, name, fn):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            inner = fn(*args, **kwargs)

            @functools.wraps(inner)
            def closure(q):
                return self.run(name, inner, (q,), {}, _points(q))

            return closure

        return factory

    def _check(self, suite, fn):
        placeholder = f"verify.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run(placeholder, fn, args, kwargs)
            name = f"verify.{result.name}"
            self.renames[placeholder] = name
            self.check_suite[name] = suite
            return result

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _rewire(self, original, wrapper, modules):
        """Point every reference to ``original`` in the package at ``wrapper``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, tuple) and any(v is original for v in item):
                            self._undo.append((value, key, item))
                            value[key] = tuple(wrapper if v is original else v for v in item)

    def install(self):
        modules = {layer: importlib.import_module(f"bmlandau.{layer}") for layer in LAYERS}
        package = [m for n, m in sorted(sys.modules.items()) if n == "bmlandau" or n.startswith("bmlandau.")]
        suites = {fn: suite for suite, fns in modules["verify"].SUITES.items() for fn in fns}
        for layer, mod in modules.items():
            if layer == "core":
                continue
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or attr.startswith("_"):
                    continue
                if layer == "cli" and attr != "main":
                    continue
                name = f"{layer}.{attr}"
                if name == "specfun.hyp1f1":
                    wrapper = self._hyp1f1(fn)
                elif name == "oracle.quad_singular":
                    wrapper = self._quad_singular(fn)
                elif name == "oracle.integrate_ivp":
                    wrapper = self._integrate_ivp(fn)
                elif name in CLOSURE_FACTORIES:
                    wrapper = self._closure_factory(name, fn)
                elif fn in suites:
                    wrapper = self._check(suites[fn], fn)
                else:
                    wrapper = self._plain(name, fn)
                self._rewire(fn, wrapper, package)
        core = modules["core"]
        for cls_name, method in CORE_METHODS:
            cls = getattr(core, cls_name)
            fn = cls.__dict__[method]
            name = f"core.{cls_name}" + ("" if method == "__post_init__" else f".{method}")
            self._undo.append((cls, method, fn))
            setattr(cls, method, self._plain(name, fn))

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """One CSV line per span: request,index,parent,name,start_s,end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request,index,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                name = self.renames.get(name, name)
                fh.write(f"{request},{i},{parent},{name},{start!r},{end!r}\n")
