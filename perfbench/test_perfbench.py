"""Self-tests of the benchmark: metric names, the correctness gate, failure modes.

    python3 -m pytest perfbench -q

Not part of the package test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from worker import invoke  # noqa: E402
from workloads import HELDOUT_SEED, WORKLOADS, requests_for  # noqa: E402

from bmlandau.cli import main as cli_main  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_mode_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    *text, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        table = "\n".join(text)
        for name, unit in list(expected) + [("error_rate", "failed/attempted")]:
            assert f"{name} " in table and f" {unit} " in table


def test_benchmark_json_declares_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_generator_is_seeded():
    for workload in WORKLOADS:
        assert requests_for(workload, 5) == requests_for(workload, 5)
    assert requests_for("profile_1e5", 5) != requests_for("profile_1e5", HELDOUT_SEED)
    assert requests_for("verify_all", 5) == requests_for("verify_all", HELDOUT_SEED)


def _small(kind, fmt=None):
    req = next(r for r in requests_for("small_requests", 11, scale=0.05) if r.kind == kind)
    if fmt is None or fmt == req.fmt:
        return req
    argv = tuple(f"--format={fmt}" if a == f"--format={req.fmt}" else a for a in req.argv)
    return dataclasses.replace(req, argv=argv, fmt=fmt)


def _rewrite_cell(text, row, col, value):
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("kind", ["flow", "r_regularised", "z_regularised", "r_ep", "theta_whittaker"])
def test_gate_passes_real_output_and_counts_a_perturbed_value(kind):
    req = _small(kind, "csv")
    assert gate.check_output(_small(kind, "json"), *invoke(cli_main, _small(kind, "json").argv)[:2]) == []
    rc, out, _ = invoke(cli_main, req.argv)
    assert gate.check_output(req, rc, out) == []
    row = gate.sample_rows(req, req.points)[1]
    value = float(out.split("\n")[row + 1].split(",")[1])
    perturbed = _rewrite_cell(out, row, 1, repr(value * (1 + 1e-9) + 1e-9))
    assert gate.check_output(req, rc, perturbed)
    assert gate.check_output(req, rc, _rewrite_cell(out, row, 1, "nan"))
    assert gate.check_output(req, rc, _rewrite_cell(out, row, 1, ""))  # gap row off a pole
    assert gate.check_output(req, rc, out.rsplit("\n", 2)[0] + "\n")  # a row dropped


def test_gate_checks_spectrum_tables():
    req = _small("spectrum", "csv")
    assert gate.check_output(req, *invoke(cli_main, req.argv)[:2]) == []
    req = _small("spectrum", "json")
    rc, out, _ = invoke(cli_main, req.argv)
    assert gate.check_output(req, rc, out) == []
    payload = json.loads(out)
    payload["rows"][0][4] += 1e-6
    assert gate.check_output(req, rc, json.dumps(payload))
    payload = json.loads(out)
    payload["rows"][-1][5] = "violated" if payload["rows"][-1][5] != "violated" else "ok"
    assert gate.check_output(req, rc, json.dumps(payload))


def test_gate_counts_a_dropped_check_name():
    req = _small("verify_spectrum")
    rc, out, _ = invoke(cli_main, req.argv)
    assert gate.check_output(req, rc, out) == []
    report = json.loads(out)
    report["checks"].pop()
    assert gate.check_output(req, rc, json.dumps(report))
    report = json.loads(out)
    report["checks"][0]["name"] = "spectrum.renamed"
    assert gate.check_output(req, rc, json.dumps(report))


def test_recorder_counts_nonzero_exit_and_repeat_mismatch():
    bad = requests_for("profile_1e5", 1, scale=0.001)[0]
    bad = dataclasses.replace(bad, argv=bad.argv + ("--nr=-1",))
    good = _small("verify_spectrum")
    recorder = run.Recorder([bad, good])
    loop = run.closed_loop(cli_main, recorder.requests, 0.0, recorder)
    assert loop.passes == run.MIN_PASSES and len(loop.scaled) == 2 * run.MIN_PASSES
    recorder.check(cli_main)
    assert (recorder.attempted, recorder.failed) == (4, 2)
    recorder.record(1, 0, "different bytes", "")
    assert recorder.failed == 3


def test_gate_failure_counts_every_run_of_the_request():
    req = _small("verify_spectrum")
    recorder = run.Recorder([req])
    rc, out, err = invoke(cli_main, req.argv)
    report = json.loads(out)
    report["pass"] = False
    for _ in range(3):
        recorder.record(0, rc, json.dumps(report), err)
    recorder.check(cli_main)
    assert (recorder.attempted, recorder.failed) == (3, 3)


def test_speed_factor_uses_the_samples_around_a_request():
    trace = speed.SpeedTrace()
    trace.times = [0.0, 0.5, 1.0, 10.0, 10.5, 11.0]
    trace.seconds = [0.01, 0.01, 0.01, 0.02, 0.03, 0.02]
    assert trace.factor(0.5, 0.7) == speed.NOMINAL_S / 0.01
    assert trace.factor(10.3, 10.4) == speed.NOMINAL_S / 0.02
    assert trace.factor(1.5, 9.5) == pytest.approx(speed.NOMINAL_S / 0.015)  # 0.5 .. 10.5 lie close
    assert trace.factor(4.9, 5.1) == speed.NOMINAL_S / 0.01  # nearest three: 0.5, 1.0, 10.0


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "small_requests", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
