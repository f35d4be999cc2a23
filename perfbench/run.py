"""End-to-end and per-layer benchmark of the bmlandau CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Every request goes through the public entry point ``bmlandau.cli.main``
in this process, one client in a closed loop (the next request is sent
when the previous one returns), with stdout captured in memory.

Workloads (see ``workloads.py`` for the parameter ranges):

- ``verify_all``: repeated ``verify --suite all``, the oracle-heavy path
  (tanh-sinh quadrature, Dormand-Prince, series special functions).
- ``profile_1e5``: a seeded mix of 1e5-point CSV profiles (flow, theta
  Whittaker, radial and axial regularised, radial Pinney).  Per-element
  cost in the CLI loops, the array special functions and the closed
  forms; never calls the oracle.
- ``small_requests``: the same verbs on 1e3-point grids plus small
  spectrum tables and ``verify --suite spectrum``, alternating CSV and
  JSON.  Fixed per-call cost dominates.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
set-up time and peak memory come from fresh worker processes started
before the timed loop.  Every reported time is wall-clock time rescaled
to a nominal machine speed by a reference task timed between requests
(``speed.py`` says why); the raw figures are printed beside them.  With ``--trace 1`` it carries the per-layer
metrics: an untraced loop and then a traced loop, each for half of
``--seconds``; spans are written to ``.bench_out/`` when the run ends.
Every output is checked by the correctness gate (``gate.py``) after the
loop.  ``--short`` shrinks grids and run length for the self-tests.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
from speed import NOMINAL_S, SpeedTrace  # noqa: E402
from workloads import WORKLOADS, requests_for  # noqa: E402
from worker import invoke  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("rows_per_s", "rows/s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (function span, fields); the unit of a field is "s" for self_s, "ratio"
# for accept_ratio and "count" otherwise
FUNCTION_METRICS = (
    ("oracle.quad_singular", ("calls", "integrand_evals", "self_s")),
    ("flux.first_integral_radicand", ("calls", "points", "self_s")),
    ("flux.theta_first_integral_quadrature", ("calls", "self_s")),
    ("oracle.integrate_ivp",
     ("calls", "rhs_evals", "accepted_steps", "rejected_steps", "accept_ratio", "self_s")),
    ("oracle.fd_residual", ("calls", "points", "self_s")),
    *((f"specfun.hyp1f1_{kind}", ("calls", "points", "self_s")) for kind in ("real", "complex", "poly")),
    ("specfun.bessel_j", ("calls", "points", "self_s")),
    *((f"specfun.{f}", ("calls", "self_s")) for f in ("whittaker_m", "whittaker_w", "ln_gamma")),
    *((f"flux.{f}", ("calls", "points", "self_s")) for f in ("pi_theta_closed", "s_theta_closed")),
    ("cli.main", ("calls", "self_s")),
    *((f"regular.{f}", ("calls", "points", "self_s"))
      for f in ("radial_regularised", "axial_regularised", "azimuthal_whittaker", "theta_local_branch")),
    *((f"ermakov.{f}", ("calls", "self_s")) for f in ("pinney_residual", "ermakov_invariant")),
    *((f"spectrum.{f}", ("calls", "self_s")) for f in ("energy", "spectral_ordering_check")),
    ("sectors.energy_el", ("calls",)),
)


def _per_layer_names() -> list[tuple[str, str]]:
    names = [
        (f"{fn}.{field}", {"self_s": "s", "accept_ratio": "ratio"}.get(field, "count"))
        for fn, fields in FUNCTION_METRICS
        for field in fields
    ]
    names.append(("cli.output_bytes", "bytes"))
    names += [(f"verify.suite.{suite}.s", "s") for suite in gate.EXPECTED_CHECKS]
    names += [(f"verify.{check}.s", "s") for check in gate.ALL_CHECKS]
    names += [(f"layer.{layer}.self_s", "s") for layer in layers.LAYERS]
    names += [("trace.overhead_s", "s"), ("trace.span_cover", "ratio"), ("trace.library_cover", "ratio")]
    return names


PER_LAYER = _per_layer_names()

SETUP_WORKERS = {"verify_all": 3, "profile_1e5": 7, "small_requests": 7}
TAIL_PERCENTILES = (99.0, 90.0)  # highest with at least 10 samples beyond it
MIN_PASSES = 2  # a second pass checks that repeated requests are byte-identical
SHORT_SCALE = 0.05
WORKER_TIMEOUT_S = 120


class Recorder:
    """Exit codes, first outputs and repeat mismatches of every request sent."""

    def __init__(self, requests):
        self.requests = requests
        self.first: dict[int, str] = {}
        self.runs = Counter()
        self.bad = Counter()
        self.worker_runs = 0
        self.worker_bad = 0
        self.messages: list[str] = []

    def record(self, index: int, rc: int, out: str, err: str):
        self.runs[index] += 1
        if rc != 0:
            self.bad[index] += 1
            self._note(index, f"exit code {rc}: {err.strip()[-300:]}")
        elif index not in self.first:
            self.first[index] = out
        elif out != self.first[index]:
            self.bad[index] += 1
            self._note(index, "repeated request is not byte-identical")

    def _note(self, index: int, message: str):
        if len(self.messages) < 20:
            self.messages.append(f"{' '.join(self.requests[index].argv)}: {message}")

    def rows(self, index: int) -> int:
        """Data rows in the first output: table rows, or checks of a verify report."""
        req, text = self.requests[index], self.first.get(index)
        if text is None:
            return 0
        if req.kind.startswith("verify_"):
            return len(json.loads(text)["checks"])
        if req.fmt == "json":
            return len(json.loads(text)["rows"])
        return text.count("\n") - 1

    def check(self, main):
        """Gate every first output; each run of a request that fails it is a failure."""
        for index, req in enumerate(self.requests):
            if self.runs[index] == 1:  # determinism needs a repeat
                self.record(index, *invoke(main, req.argv))
        for index, text in self.first.items():
            fails = gate.check_output(self.requests[index], 0, text)
            if fails:
                self.bad[index] = self.runs[index]
                for message in fails[:3]:
                    self._note(index, message)

    @property
    def attempted(self) -> int:
        return sum(self.runs.values()) + self.worker_runs

    @property
    def failed(self) -> int:
        return sum(self.bad.values()) + self.worker_bad


@dataclass
class Loop:
    """Request latencies of one closed loop, raw and rescaled to nominal speed."""

    passes: int
    pass_of: list
    raw: list
    scaled: list
    out_bytes: float  # per pass

    def pass_times(self, latencies) -> list[float]:
        totals = [0.0] * self.passes
        for p, t in zip(self.pass_of, latencies):
            totals[p] += t
        return totals

    @property
    def factor(self) -> float:
        """Overall rescaling: nominal over measured machine speed."""
        return sum(self.scaled) / sum(self.raw)


def closed_loop(main, requests, seconds: float, recorder: Recorder, tracer=None) -> Loop:
    """Send the request list repeatedly, one at a time, for ``seconds``.

    Only the calls into ``main`` are timed.  The speed reference is
    sampled between requests and rescales each latency by the samples
    taken around it.
    """
    speed = SpeedTrace()
    speed.sample()
    pass_of, spans = [], []
    out_bytes = 0
    passes = 0
    start = perf_counter()
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        gc.collect()
        for index, req in enumerate(requests):
            if tracer is not None:
                tracer.request += 1
            t0 = perf_counter()
            rc, out, err = invoke(main, req.argv)
            t1 = perf_counter()
            pass_of.append(passes)
            spans.append((t0, t1))
            out_bytes += len(out)
            recorder.record(index, rc, out, err)
            speed.maybe_sample()
        passes += 1
    speed.sample()
    raw = [t1 - t0 for t0, t1 in spans]
    scaled = [(t1 - t0) * speed.factor(t0, t1) for t0, t1 in spans]
    return Loop(passes, pass_of, raw, scaled, out_bytes / passes)


def measure_setup(workload: str, seed: int, scale: float, workers: int):
    """Set-up time and peak RSS from fresh worker processes, one at a time."""
    results = []
    for i in range(workers):
        cmd = [sys.executable, "-B", str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--scale", repr(scale)] + (["--full"] if i == 0 else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up worker failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def tail_latency(latencies):
    """(percentile, value) of the highest listed percentile with >= 10 samples beyond it."""
    n = len(latencies)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(latencies, pct))
    return 50.0, float(np.percentile(latencies, 50.0))


def environment() -> str:
    cache = SRC / "bmlandau" / "__pycache__"
    bytecode = "cached-pyc" if cache.is_dir() and any(cache.iterdir()) else "compiled-from-source"
    return (
        f"env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} bytecode={bytecode} "
        f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r} "
        "workers=python3 -B"
    )


def end_to_end(workload, seed, seconds, scale, workers, main, requests, recorder, lines):
    setup = measure_setup(workload, seed, scale, workers)
    recorder.worker_runs = sum(len(s["rcs"]) for s in setup)
    recorder.worker_bad = sum(rc != 0 for s in setup for rc in s["rcs"])
    for s in setup:
        if not s["module"].startswith(str(SRC)):
            raise RuntimeError(f"worker imported bmlandau from {s['module']}, not {SRC}")
    setup_scaled = [s["setup_s"] * NOMINAL_S / s["reference_s"] for s in setup]

    loop = closed_loop(main, requests, seconds, recorder)
    rows = sum(recorder.rows(i) for i in range(len(requests)))
    tail_pct, tail = tail_latency(loop.scaled)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "pass_s": statistics.median(loop.pass_times(loop.scaled)),
        "rows_per_s": rows * loop.passes / sum(loop.scaled),
        "request_p50_ms": 1e3 * float(np.percentile(loop.scaled, 50.0)),
        "request_tail_ms": 1e3 * tail,
        "peak_rss_mb": setup[0]["peak_rss_mb"],
    }
    n = len(loop.raw)
    notes = {
        "setup_s": f"median of {len(setup)} fresh workers; raw {statistics.median(s['setup_s'] for s in setup):.4g} s, "
                   f"import alone {statistics.median(s['import_s'] for s in setup):.4g} s",
        "pass_s": f"median of {loop.passes} passes of {len(requests)} requests; "
                  f"raw {statistics.median(loop.pass_times(loop.raw)):.4g} s",
        "rows_per_s": f"{rows} rows and {loop.out_bytes:.0f} bytes per pass; "
                      f"raw {rows * loop.passes / sum(loop.raw):.4g} rows/s",
        "request_p50_ms": f"n={n}; raw {1e3 * float(np.percentile(loop.raw, 50.0)):.4g} ms",
        "request_tail_ms": f"p{tail_pct:g} of n={n}; raw {1e3 * tail_latency(loop.raw)[1]:.4g} ms",
        "peak_rss_mb": "worker that sent one whole pass",
    }
    lines.append(f"times are rescaled to nominal speed (speed.py): factor {loop.factor:.4f} in the loop, "
                 f"{statistics.median(NOMINAL_S / s['reference_s'] for s in setup):.4f} in set-up workers")
    for name, unit in END_TO_END:
        lines.append(f"{name:16s} {metrics[name]:14.6g} {unit:7s} {notes[name]}")
    return metrics


def per_layer(workload, seconds, main, requests, recorder, lines):
    plain = closed_loop(main, requests, seconds / 2, recorder)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = closed_loop(main, requests, seconds / 2, recorder, tracer)
    finally:
        tracer.uninstall()
    tracer.finish()
    n = traced.passes
    traced_total = sum(traced.raw)
    factor = traced.factor  # seconds below are rescaled like the end-to-end ones
    plain_pass = statistics.median(plain.pass_times(plain.scaled))
    traced_pass = statistics.median(traced.pass_times(traced.scaled))
    empty = layers.Stat()
    stats = tracer.stats

    metrics = {}
    for fn, fields in FUNCTION_METRICS:
        st = stats.get(fn, empty)
        attempts = (st.counts.get("rhs_evals", 0) - st.calls) / 6  # one FSAL start per call
        accepted = st.counts.get("accepted_steps", 0)
        for field in fields:
            if field == "self_s":
                value = st.self_s * factor
            elif field in ("calls", "points"):
                value = getattr(st, field)
            elif field == "rejected_steps":
                value = attempts - accepted
            elif field == "accept_ratio":
                metrics[f"{fn}.{field}"] = accepted / attempts if attempts else 0.0
                continue
            else:
                value = st.counts.get(field, 0)
            metrics[f"{fn}.{field}"] = value / n
    metrics["cli.output_bytes"] = plain.out_bytes
    for suite in gate.EXPECTED_CHECKS:
        metrics[f"verify.suite.{suite}.s"] = factor * sum(
            st.total_s for name, st in stats.items() if tracer.check_suite.get(name) == suite) / n
    for check in gate.ALL_CHECKS:
        metrics[f"verify.{check}.s"] = factor * stats.get(f"verify.{check}", empty).total_s / n
    layer_self = Counter()
    for name, st in stats.items():
        layer_self[name.split(".")[0]] += st.self_s
    for layer in layers.LAYERS:
        metrics[f"layer.{layer}.self_s"] = factor * layer_self[layer] / n
    metrics["trace.overhead_s"] = traced_pass - plain_pass
    metrics["trace.span_cover"] = sum(layer_self.values()) / traced_total
    metrics["trace.library_cover"] = sum(
        v for k, v in layer_self.items() if k not in ("cli", "verify")) / traced_total

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload}.csv")
    with open(OUT_DIR / f"layers-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({name: {"calls": st.calls, "points": st.points, "self_s": st.self_s,
                          "total_s": st.total_s, **st.counts} for name, st in stats.items()},
                  fh, indent=1, sort_keys=True)

    lines.append(f"traced {n} passes (median {traced_pass:.4f} s) against {plain.passes} untraced "
                 f"(median {plain_pass:.4f} s), rescaled to nominal speed by {factor:.4f}; "
                 f"{len(tracer.spans)} spans written to {OUT_DIR.name}/spans-{workload}.csv")
    lines.append("largest self times per pass:")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s)[:12]:
        lines.append(f"  {name:44s} {factor * st.self_s / n:10.4f} s  {st.calls / n:10.0f} calls")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="small grids, one set-up worker")
    args = parser.parse_args(argv)

    if not (SRC / "bmlandau" / "__init__.py").is_file():
        print(f"error: no bmlandau sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bmlandau.cli

    if not bmlandau.cli.__file__.startswith(str(SRC)):
        print(f"error: bmlandau imported from {bmlandau.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    scale = SHORT_SCALE if args.short else 1.0
    seconds = 0.0 if args.short else args.seconds
    workers = 1 if args.short else SETUP_WORKERS[args.workload]
    requests = requests_for(args.workload, args.seed, scale)
    recorder = Recorder(requests)

    def main_fn(argv):
        # looked up on every call, so the traced loop enters the installed wrapper
        return bmlandau.cli.main(argv)

    lines = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}" + (" short" if args.short else ""), environment()]
    if args.workload == "verify_all":
        lines.append("seed ignored: verify_all has no generated inputs")
    if args.trace:
        metrics = per_layer(args.workload, seconds, main_fn, requests, recorder, lines)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(args.workload, args.seed, seconds, scale, workers, main_fn,
                             requests, recorder, lines)
        units = dict(END_TO_END)
    recorder.check(main_fn)

    rate = recorder.failed / recorder.attempted
    lines.append(f"{'error_rate':16s} {rate:14.6g} {'failed/attempted':7s} "
                 f"{recorder.failed} of {recorder.attempted} requests")
    lines += [f"FAIL {m}" for m in recorder.messages]
    print("\n".join(lines))
    print(json.dumps({
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
