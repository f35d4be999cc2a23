"""Command-line contract: schemas, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmlandau import regular as rg
from bmlandau import spectrum as sp
from bmlandau.cli import _parse_int_range, main
from bmlandau.core import PhysParams, QuantumNumbers


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_any_exit(argv, capsys):
    """Like run_cli, but an argparse usage error (SystemExit) gives its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_cbr_table(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--nr", "0:2", "--l", "0:2", "--kz", "0", "--model", "cbr"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n_r,l,k_z,model,energy"
        assert len(lines) == 1 + 9
        first = lines[1].split(",")
        assert first[:4] == ["0", "0", "0", "cbr"]
        assert float(first[4]) == pytest.approx(0.75)

    def test_all_emits_ordering_flags(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--nr", "0:1", "--l", "1:5", "--kz", "0", "--model", "all"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].endswith(",ordering")
        flags = {line.split(",")[-1] for line in lines[1:]}
        assert flags == {"ok"}

    def test_low_l_flag_is_na(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--nr", "0:0", "--l", "0:0", "--kz", "0", "--model", "all"], capsys
        )
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",n/a")

    def test_empty_kz_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--nr", "0:1", "--l", "0:1", "--kz", "", "--model", "cbr"], capsys
        )
        assert code == 2
        assert "error" in err

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--nr", "2:0", "--l", "0:1", "--kz", "0", "--model", "cbr"], capsys
        )
        assert code == 2
        assert "range" in err


class TestAmplitudeCommand:
    def test_axial_regularised_profile(self, capsys):
        code, out, _ = run_cli(
            ["amplitude", "--sector", "z", "--branch", "regularised", "--kz", "1", "--grid", "0.1:5:200"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "z,value"
        assert len(lines) == 1 + 200
        z0, v0 = (float(p) for p in lines[1].split(","))
        assert z0 == pytest.approx(0.1)
        from bmlandau.regular import axial_regularised

        assert v0 == pytest.approx(float(axial_regularised(1.0)(z0)), rel=1e-15)

    def test_whittaker_has_imaginary_column(self, capsys):
        code, out, _ = run_cli(
            ["amplitude", "--sector", "theta", "--branch", "whittaker", "--l", "1", "--r", "1",
             "--grid", "0.2:2:50"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,value,value_im"
        im = [abs(float(line.split(",")[2])) for line in lines[1:]]
        assert max(im) > 1e-6

    def test_invalid_pair_usage_error(self, capsys):
        code, _, err = run_cli(
            ["amplitude", "--sector", "theta", "--branch", "damped", "--grid", "0.1:1:10"], capsys
        )
        assert code == 2
        assert "valid pairs" in err

    @pytest.mark.parametrize("cr, grid", [("1000", "0:10:3"), ("1e300", "0:1e10:3")])
    def test_overflowing_damped_radial_is_clean_error(self, capsys, cr, grid):
        # exp(C_r r^2/hbar) past the float range: exit 2 and one line, not inf rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["amplitude", "--sector", "r", "--branch", "damped", "--cr", cr, "--grid", grid], capsys
            )
        assert code == 2
        assert out == ""
        assert err.startswith("error: damped radial density overflows: C_r r^2/hbar reaches ")
        assert err.endswith(", above log(float max) = 709.783\n")
        assert err.count("\n") == 1

    def test_overflowing_damped_axial_is_zero(self, capsys):
        # -|C_z| z^2 overflows to -inf: the right zeros, with no warning on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["amplitude", "--sector", "z", "--branch", "damped", "--cz=1e300", "--grid", "0:1e10:3"], capsys
            )
        assert code == 0
        assert err == ""
        assert out == "z,value\n0,0\n5000000000,0\n10000000000,0\n"

    def test_damped_axial_with_hbar_near_float_max_is_zero(self, capsys, tmp_path):
        # 2 hbar overflows for hbar = 1e308: the rows used to be nan
        cfg = tmp_path / "hb.json"
        cfg.write_text('{"hbar": 1e308}')
        argv = ["--config", str(cfg), "amplitude", "--sector", "z", "--branch", "damped", "--cz=1e300",
                "--grid", "0:1e10:3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out == "z,value\n0,0\n5000000000,0\n10000000000,0\n"

    def test_ep_radial_profile(self, capsys):
        code, out, _ = run_cli(
            ["amplitude", "--sector", "r", "--branch", "ep", "--a", "0", "--grid", "0.2:2:20"],
            capsys,
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 21

    def test_local_branch_profile(self, capsys):
        code, out, _ = run_cli(
            ["amplitude", "--sector", "theta", "--branch", "local", "--r", "1", "--ctheta", "0.3",
             "--grid", "0.05:0.5:10"],
            capsys,
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert all(v > 0 for v in values)

    @pytest.mark.parametrize("r", ["1e-6", "0"])
    def test_local_branch_at_small_flux(self, capsys, r):
        # phi = r^2/2 near or at 0: no 1/phi, so no division by zero and no nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["amplitude", "--sector", "theta", "--branch", "local", "--r", r, "--ctheta", "1",
                 "--grid", "0.1:0.9:50"],
                capsys,
            )
        assert (code, err) == (0, "")
        values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert len(values) == 50 and all(math.isfinite(v) and v > 0 for v in values)

    @pytest.mark.parametrize("r, ctheta, message", [
        ("1e200", "1", "error: local branch needs a finite flux ratio and current (got phi = inf, kappa = inf)\n"),
        ("1", "3000", "error: local branch amplitude overflows the float range at theta = 0.9\n"),
    ])
    def test_local_branch_refuses_what_it_cannot_represent(self, capsys, r, ctheta, message):
        # these printed nan rows with exit 0 (and a traceback under -W error)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["amplitude", "--sector", "theta", "--branch", "local", "--r", r, "--ctheta", ctheta,
                 "--grid", "0.1:0.9:3"],
                capsys,
            )
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("argv, message", [
        (["--sector", "theta", "--branch", "whittaker", "--l", "1", "--r", "1", "--c1", "1e308+1e308j",
          "--grid", "0.2:1:3"], "error: Whittaker amplitude overflows the float range at theta = 1\n"),
        (["--sector", "r", "--branch", "ep", "--A", "1e308", "--B", "1e308", "--grid", "0:1:3"],
         "error: EP coefficients leave the float range (A*B - D^2 = inf, c = inf)\n"),
        (["--sector", "theta", "--branch", "ep", "--omega", "1", "--A", "1e200", "--B", "1e200",
          "--grid", "0:1:3"], "error: EP coefficients leave the float range (A*B - D^2 = inf, c = inf)\n"),
        (["--sector", "theta", "--branch", "whittaker", "--r", "1e200", "--grid", "0.2:1:3"],
         "error: flux ratio phi = beta r^2 overflows the float range at r = 1e+200\n"),
        (["--sector", "theta", "--branch", "ep", "--omega", "1e200", "--grid", "0:1e200:3"],
         "error: phase omega q overflows the float range at q = 5e+199 (omega = 1e+200)\n"),
        (["--sector", "z", "--branch", "ep", "--kz", "1e200", "--grid", "0:1e200:3"],
         "error: phase omega q overflows the float range at q = 5e+199 (omega = 1e+200)\n"),
    ])
    def test_overflowing_inputs_refused(self, capsys, argv, message):
        # the first three printed -inf rows or accepted c = inf with exit 0
        # (a traceback under -W error); the fourth named no quantity; the
        # phase omega q of the last two overflowed inside cos and sin, which
        # printed nan rows with exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["amplitude", *argv], capsys)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("argv", [
        ["--sector", "r", "--branch", "regularised", "--nr", "0", "--l", "0", "--grid", "0:1e300:3"],
        ["--sector", "r", "--branch", "ep", "--a", "0.25", "--grid", "0:1e300:3"],
    ])
    def test_overflowing_radial_argument_refused(self, argv):
        # beta r^2 overflowed with a numpy RuntimeWarning (a traceback under
        # -W error), and the refusal that followed named 1F1's argument, not r
        env = dict(os.environ, PYTHONPATH=str(Path(sp.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bmlandau", "amplitude", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: radial argument x = beta r^2 overflows the float range at r = 5e+299\n"

    @pytest.mark.parametrize("argv, message", [
        (["--sector", "r", "--branch", "regularised", "--grid=-1:1:3"], "error: radial coordinate r must be >= 0 (got r = -1)\n"),
        (["--sector", "r", "--branch", "ep", "--a", "0.25", "--grid=-2:1:4"],
         "error: radial coordinate r must be >= 0 (got r = -2)\n"),
        (["--sector", "r", "--branch", "damped", "--grid=-0.5:1:4"], "error: radial coordinate r must be >= 0 (got r = -0.5)\n"),
        (["--sector", "r", "--branch", "regularised", "--nr", "10000000", "--grid", "0:1:3"],
         "error: hyp1f1: polynomial degree -a = 10000000 out of validated range -a <= 60\n"),
    ])
    def test_radial_request_outside_its_domain_refused(self, capsys, argv, message):
        # r regularised printed nan for r < 0 (r**nu of a negative r) with
        # exit 0, and r ep and r damped printed even extensions; the degree
        # 10**7 recurrence ran on for seconds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["amplitude", *argv], capsys)
        assert (code, out, err) == (2, "", message)

    def test_whittaker_flux_past_its_validated_range_refused(self, capsys):
        # phi = beta r^2 = 12.5 > 6|l|: |Im a| > 3 for the 1F1 behind M and W
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["amplitude", "--sector", "theta", "--branch", "whittaker", "--l", "1",
                                      "--r", "5", "--c2", "0.5j", "--grid", "0.2:2:5"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: flux ratio phi = 12.5 out of validated range |phi| <= 6|l| = 6\n"

    def test_whittaker_flux_inside_its_validated_range(self, capsys):
        # phi = 8.82 < 6|l| = 18
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["amplitude", "--sector", "theta", "--branch", "whittaker", "--l", "3",
                                      "--r", "4.2", "--c2", "0.5j", "--grid", "0.2:6.28:50"], capsys)
        assert (code, err) == (0, "")
        rows = np.loadtxt(out.splitlines()[1:], delimiter=",")
        assert rows.shape == (50, 3) and np.all(np.isfinite(rows))


class TestVerifyCommand:
    def test_suite_report_schema(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "spectrum"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "spectrum"
        assert report["pass"] is True
        assert {"name", "max_residual", "tol", "pass"} <= set(report["checks"][0])

    def test_injected_fault_exits_one(self, capsys, monkeypatch):
        from bmlandau import verify as vf

        def broken_check():
            return vf.CheckResult.bounded("spectrum.injected_fault", 1.0, 1e-12)

        monkeypatch.setitem(vf.SUITES, "spectrum", vf.SUITES["spectrum"] + (broken_check,))
        code, out, _ = run_cli(["verify", "--suite", "spectrum"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        failed = [c for c in report["checks"] if not c["pass"]]
        assert failed[0]["name"] == "spectrum.injected_fault"

    def test_tol_override_loosens_bounded_checks(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "spectrum", "--tol", "1.0"], capsys)
        assert code == 0
        report = json.loads(out)
        bounded = [c for c in report["checks"] if c["name"] == "spectrum.reference_values"]
        assert bounded[0]["tol"] == 1.0


class TestFlowCommand:
    def test_reference_window(self, capsys):
        code, out, _ = run_cli(
            ["flow", "--lambda", "1", "--e-pi", "10", "--theta0", "0", "--grid", "0:6.3:1000"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,pi_theta,s_theta"
        pi_vals = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert pi_vals.min() == pytest.approx(0.5, abs=1e-4)
        assert pi_vals.max() == pytest.approx(2.0, abs=1e-4)

    def test_action_derivative_consistency(self, capsys):
        code, out, _ = run_cli(
            ["flow", "--lambda", "1", "--e-pi", "10", "--grid", "0:2:20001"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        th = np.array([float(r[0]) for r in rows])
        pi_v = np.array([float(r[1]) for r in rows])
        s_v = np.array([float(r[2]) for r in rows])
        h = th[1] - th[0]
        ds = (s_v[2:] - s_v[:-2]) / (2 * h)
        phi = 1.0  # Lambda = 1 with l = 0
        assert np.max(np.abs(ds - phi - pi_v[1:-1])) < 1e-4

    def test_negative_discriminant_is_clean_error(self, capsys):
        code, _, err = run_cli(["flow", "--lambda", "1", "--e-pi", "1", "--grid", "0:1:10"], capsys)
        assert code == 2
        assert "discriminant branch not covered" in err

    def test_overflowing_e_pi_is_clean_error(self, capsys):
        code, out, err = run_cli(["flow", "--lambda", "1", "--e-pi", "1e200", "--grid", "0:1:3"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: E_pi = 1e+200 out of range: |E_pi| must be <= 1.34078e+154\n"

    @pytest.mark.parametrize("hbar", ["1e200", "1e-200"])
    def test_hbar_whose_square_leaves_float_range_is_clean_error(self, capsys, tmp_path, hbar):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"hbar": %s}' % hbar)
        argv = ["--config", str(cfg), "flow", "--lambda", "1", "--e-pi", "10", "--grid", "0:1:3"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: hbar = {float(hbar):g} out of range: hbar must be in [2.22276e-162, 1.34078e+154]\n"
        )


# 10**e for e uniform in [-300, 300], and the same with either sign
_MAGNITUDES = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_SIGNED = st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), _MAGNITUDES)


class TestFlowFlagsProperty:
    """Every flow request exits 0 with finite cells, or 2 with one error line."""

    @settings(max_examples=300, deadline=None)
    @given(
        lam=_MAGNITUDES,
        e_pi=_SIGNED,
        theta0=st.one_of(st.just(0.0), _SIGNED),
        l_index=st.integers(0, 3),
        bounds=st.lists(st.one_of(st.just(0.0), _SIGNED), min_size=2, max_size=2).map(sorted),
        count=st.integers(2, 5),
        hbar=st.one_of(st.none(), _MAGNITUDES),
    )
    # the phase 2 sqrt(Lambda)(theta - theta0) and the action hbar phi theta
    # overflowed: nan and inf rows at exit 0, a RuntimeWarning traceback
    # under -W error
    @example(lam=1e300, e_pi=1e152, theta0=0.0, l_index=0, bounds=[0.0, 1e200], count=3, hbar=None)
    @example(lam=1.0, e_pi=10.0, theta0=0.0, l_index=0, bounds=[0.0, 1e200], count=3, hbar=1e150)
    # 8 sqrt(Lambda)/hbar, tiny or 0, made the arctan's quotient overflow or
    # divide by zero, and hbar phi theta - hbar theta gave inf - inf: a
    # RuntimeWarning traceback under -W error
    @example(lam=1e-259, e_pi=-1e90, theta0=0.0, l_index=0, bounds=[-1.0, 0.0], count=2, hbar=1e90)
    @example(lam=0.0, e_pi=10.0, theta0=0.0, l_index=0, bounds=[0.0, 1.0], count=3, hbar=None)
    @example(lam=1.0, e_pi=-1.0, theta0=1e155, l_index=0, bounds=[0.0, 1e155], count=3, hbar=1e154)
    def test_exit_code_and_finite_cells(self, tmp_path_factory, lam, e_pi, theta0, l_index, bounds, count, hbar):
        argv = [f"--lambda={lam!r}", f"--e-pi={e_pi!r}", f"--theta0={theta0!r}", f"--l={l_index}",
                f"--grid={bounds[0]!r}:{bounds[1]!r}:{count}"]
        if hbar is not None:
            cfg = tmp_path_factory.getbasetemp() / "flow_property.json"
            cfg.write_text(json.dumps({"hbar": hbar}))
            argv = ["--config", str(cfg), *argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["flow", *argv])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
        else:
            assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


_AMPLITUDE_PAIRS = [
    ("r", "ep"), ("r", "regularised"), ("r", "damped"),
    ("theta", "ep"), ("theta", "local"), ("theta", "whittaker"),
    ("z", "ep"), ("z", "regularised"), ("z", "damped"),
]
_OR_ZERO = st.one_of(st.just(0.0), _SIGNED)


class TestAmplitudeFlagsProperty:
    """Every amplitude request exits 0 with finite cells, or 2 with one error line."""

    @settings(max_examples=300, deadline=None)
    @given(
        pair=st.sampled_from(_AMPLITUDE_PAIRS),
        weights=st.tuples(_MAGNITUDES, _MAGNITUDES, _OR_ZERO),
        a=_OR_ZERO,
        omega=_SIGNED,
        nr=st.integers(0, 70),
        l_index=st.integers(-3, 12),
        radius=st.one_of(st.just(0.0), _MAGNITUDES),
        currents=st.tuples(_OR_ZERO, _SIGNED, _SIGNED, _SIGNED),
        c1=st.builds(complex, _OR_ZERO, _OR_ZERO),
        c2=st.builds(complex, _OR_ZERO, _OR_ZERO),
        bounds=st.lists(_OR_ZERO, min_size=2, max_size=2).map(sorted),
        count=st.integers(2, 5),
        hbar=st.one_of(st.none(), _MAGNITUDES),
    )
    # k_z z, abs(W) sqrt(AB - D^2) and the Whittaker power x^(mu + 1/2)
    # overflowed before the refusal that follows them: a RuntimeWarning on
    # stderr, and a traceback under -W error
    @example(pair=("z", "regularised"), weights=(1.0, 1.0, 0.0), a=0.0, omega=1e200, nr=0, l_index=0, radius=1.0,
             currents=(0.0, -1.0, -1.0, 1.0), c1=1 + 0j, c2=0j, bounds=[1.0, 1e200], count=3, hbar=None)
    @example(pair=("theta", "ep"), weights=(1.38, 7e205, 0.0), a=0.0, omega=4e280, nr=0, l_index=0, radius=1.0,
             currents=(0.0, -1.0, -1.0, 1.0), c1=1 + 0j, c2=0j, bounds=[0.0, 1.0], count=3, hbar=None)
    @example(pair=("theta", "whittaker"), weights=(1.0, 1.0, 0.0), a=0.0, omega=1.0, nr=0, l_index=3, radius=1.0,
             currents=(0.0, -1.0, -1.0, 1.0), c1=1 + 0j, c2=0j, bounds=[1.0, 1e290], count=3, hbar=None)
    # the Pinney amplitude sigma overflowed to inf and was printed at exit 0
    @example(pair=("r", "ep"), weights=(1.0, 1e250, 0.0), a=0.0, omega=1.0, nr=0, l_index=0, radius=1.0,
             currents=(0.0, -1.0, -1.0, 1.0), c1=1 + 0j, c2=0j, bounds=[0.0, 1e29], count=2, hbar=1e57)
    def test_exit_code_and_finite_cells(self, tmp_path_factory, pair, weights, a, omega, nr, l_index, radius,
                                        currents, c1, c2, bounds, count, hbar):
        sector, branch = pair
        ctheta, cr, cz, atheta = currents
        argv = [f"--sector={sector}", f"--branch={branch}", f"--A={weights[0]!r}", f"--B={weights[1]!r}",
                f"--D={weights[2]!r}", f"--a={a!r}", f"--omega={omega!r}", f"--kz={omega!r}", f"--nr={nr}",
                f"--l={l_index}", f"--r={radius!r}", f"--ctheta={ctheta!r}", f"--cr={cr!r}", f"--cz={cz!r}",
                f"--atheta={atheta!r}", f"--c1={c1!r}", f"--c2={c2!r}", f"--grid={bounds[0]!r}:{bounds[1]!r}:{count}"]
        if hbar is not None:
            cfg = tmp_path_factory.getbasetemp() / "amplitude_property.json"
            cfg.write_text(json.dumps({"hbar": hbar}))
            argv = ["--config", str(cfg), *argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["amplitude", *argv])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
        else:
            assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


class TestSpectrumOutOfRange:
    def test_huge_hbar_is_clean_error(self, capsys, tmp_path):
        # hbar^2 overflows: the k_z = 0 row used to print nan and the k_z = 1 row inf, exit 0
        cfg = tmp_path / "hb.json"
        cfg.write_text('{"hbar": 1e200}')
        argv = ["--config", str(cfg), "spectrum", "--nr", "0", "--l", "0:1", "--kz", "0,1", "--model", "all"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: qm energy out of range for hbar = 1e+200, k_z = 0 (got nan)\n"

    @pytest.mark.parametrize("model", ["qm", "el", "cbr", "all"])
    def test_huge_kz_is_clean_error(self, capsys, model):
        argv = ["spectrum", "--nr", "0", "--l", "0:1", "--kz", "1e200", "--model", model]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        first = "qm" if model == "all" else model
        assert err == f"error: {first} energy out of range for hbar = 1, k_z = 1e+200 (got inf)\n"


def _seed_spectrum_table(nr, ls, kzs, params, fmt):
    """The --model all table row by row from the seed ladders, with the seed's
    l < 1 -> n/a rule; or the error line of the first state that raises."""
    from bmlandau.core import QuantumNumbers
    from test_spectrum import _seed_energy

    rows = []
    for n in nr:
        for l in ls:
            for kz in kzs:
                qn = QuantumNumbers(n, l, kz)
                try:
                    energies = {m.value: _seed_energy(m, qn, params) for m in sp.SpectrumModel}
                except ValueError as exc:
                    return "", f"error: {exc}\n"
                ordered = None if l < 1 else energies["qm"] <= energies["el"] <= energies["cbr"]
                flag = "n/a" if ordered is None else ("ok" if ordered else "violated")
                rows += [[str(n), str(l), format(kz, ".17g"), m, e, flag] for m, e in energies.items()]
    columns = ["n_r", "l", "k_z", "model", "energy", "ordering"]
    if fmt == "json":
        payload = {"columns": columns, "rows": rows, "metadata": {"command": "spectrum", "model": "all"}}
        return json.dumps(payload, indent=2) + "\n", ""
    lines = [",".join(columns)] + [",".join(row[:4] + [format(row[4], ".17g"), row[5]]) for row in rows]
    return "\n".join(lines) + "\n", ""


class TestSpectrumMatchesSeedLadders:
    """spectrum --model all equals the table built state by state from the seed ladders."""

    CASES = {
        "natural": ({}, "0:3", "-2:4", "0,1.3"),
        "negative charge": ({"charge": -1}, "0:2", "-3:3", "0,0.7,2"),
        "scaled": ({"hbar": 0.3, "mass": 2.5, "B": 0.7}, "1:4", "0:5", "0.25"),
        # E_EL is nan at the first state and E_QM overflows only at the second:
        # the error names the first state in row order, not the first ladder
        "first state wins": ({"charge": -1e308, "B": 1.7}, "0", "0:1", "0"),
        "huge k_z": ({"charge": -1e308, "B": 1.7, "mass": 1e10}, "0:1", "-1:1", "0,1.3,1e200"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table(self, capsys, tmp_path, case, fmt):
        config, nr, ls, kz = self.CASES[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), "spectrum", f"--nr={nr}", f"--l={ls}", f"--kz={kz}", "--format", fmt]
        code, out, err = run_cli(argv, capsys)
        want_out, want_err = _seed_spectrum_table(
            _parse_int_range(nr), _parse_int_range(ls), [float(k) for k in kz.split(",")],
            PhysParams(**config), fmt,
        )
        assert (code, out, err) == (2 if want_err else 0, want_out, want_err)

    @pytest.mark.parametrize("model, calls", [("all", 3), ("qm", 1), ("cbr", 1)])
    def test_energy_called_once_per_model(self, capsys, monkeypatch, model, calls):
        seen, energy = [], sp.energy

        def counted(*args):
            seen.append(args[0])
            return energy(*args)

        monkeypatch.setattr(sp, "energy", counted)
        code, _, _ = run_cli(["spectrum", "--nr", "0:4", "--l", "0:6", "--kz", "0,1", "--model", model], capsys)
        assert code == 0
        assert len(seen) == calls


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        argvs = [
            ["spectrum", "--nr", "0:3", "--l", "0:3", "--kz", "0,1", "--model", "all"],
            ["amplitude", "--sector", "z", "--branch", "regularised", "--kz", "1", "--grid", "0.1:5:50"],
            ["flow", "--lambda", "1", "--e-pi", "10", "--grid", "0:3:100"],
            ["verify", "--suite", "spectrum"],
        ]
        for argv in argvs:
            first = run_cli(argv, capsys)
            second = run_cli(argv, capsys)
            assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["spectrum", "--nr", "0:0", "--l", "0:0", "--kz", "0", "--model", "el", "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.splitlines()[0] == "n_r,l,k_z,model,energy"
        assert "\r" not in text

    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"B": 2.0, "format": "json"}))
        # config B = 2 doubles omega_c, so E_EL(0,0,0) = 1.0
        code, out, _ = run_cli(
            ["spectrum", "--nr", "0:0", "--l", "0:0", "--kz", "0", "--model", "el",
             "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0][4] == pytest.approx(1.0)
        # flag overrides the file format
        code, out, _ = run_cli(
            ["spectrum", "--nr", "0:0", "--l", "0:0", "--kz", "0", "--model", "el",
             "--config", str(cfg), "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out.startswith("n_r,l,k_z,model,energy")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["--format", "json", "amplitude", "--sector", "r", "--branch", "damped", "--cr", "-1",
             "--grid", "0:2:3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["r", "value"]
        assert payload["rows"][1][1] == pytest.approx(math.exp(-1.0))


class TestParserReuse:
    A = ["flow", "--lambda", "1", "--e-pi", "10", "--grid", "0:3:50"]
    B = ["--format", "json", "amplitude", "--sector", "theta", "--branch", "whittaker", "--l", "1",
         "--c2", "0.5j", "--grid", "0.2:2:40"]

    def test_usage_error_between_requests_leaves_parser_intact(self, capsys):
        from bmlandau.cli import build_parser

        build_parser.cache_clear()
        fresh = run_cli(self.B, capsys)
        build_parser.cache_clear()
        assert run_cli(self.A, capsys)[0] == 0
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["amplitude", "--sector", "q", "--grid", "0:1:3"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(self.B, capsys) == fresh
        assert build_parser() is parser


class TestErrorExitCodes:
    def test_missing_config_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(
            ["--config", str(missing), "spectrum", "--nr", "0", "--l", "0", "--kz", "0"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_series_out_of_range(self, capsys):
        # kz = 250 on z <= 5 puts the Bessel argument k_z z beyond x <= 1000
        code, out, err = run_cli(
            ["amplitude", "--sector", "z", "--branch", "regularised", "--kz", "250", "--grid", "0.1:5:10"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_grid_count_past_memory(self, capsys):
        # 10**18 float64 points: numpy refuses the allocation at once, so no memory is used
        code, out, err = run_cli(
            ["amplitude", "--sector", "z", "--branch", "regularised", "--kz", "1", "--grid", f"0:1:{10**18}"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: grid COUNT {10**18} is too large to allocate\n"

    @pytest.mark.parametrize("flag", ["--nr", "--l"])
    def test_int_range_past_maxsize(self, capsys, flag):
        # a range of more than sys.maxsize values has no len(): the parser names it
        ranges = {"--nr": "0", "--l": "0", flag: f"0:{10**20}"}
        code, out, err = run_cli(["spectrum", *[t for f, r in ranges.items() for t in (f, r)], "--kz", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: range '0:{10**20}' holds more than {sys.maxsize} values\n"

    @pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
    @pytest.mark.parametrize(
        "ranges, states",
        [(["--nr", "0:100000000000", "--l", "0"], 100000000001), (["--nr", "0:100000", "--l", "0:100000"], 100001**2)],
    )
    def test_spectrum_range_past_memory(self, ranges, states):
        # in a child whose address space is capped at 1.5 GB, so that a request
        # that tries to hold every state cannot exhaust the machine; one
        # OpenBLAS thread keeps numpy's own buffers inside the cap
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from bmlandau.cli import main\n"
            f"sys.exit(main({['spectrum', *ranges, '--kz', '0']!r}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sp.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: spectrum of {states} states is too large to allocate\n"

    def test_unwritable_out_path(self, capsys, tmp_path):
        path = tmp_path / "no_such_dir" / "out.csv"
        code, _, err = run_cli(
            ["spectrum", "--nr", "0", "--l", "0", "--kz", "0", "--out", str(path)], capsys
        )
        assert code == 2
        assert err.startswith("error:")


def _csv_expected(columns, rows):
    # the per-cell rule: every numeric cell is format(float(v), ".17g")
    lines = [",".join(columns)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_expected(columns, rows, metadata):
    payload = {"columns": columns, "rows": [[float(v) for v in row] for row in rows], "metadata": metadata}
    return json.dumps(payload, indent=2) + "\n"


def _amplitude_case(sector, branch, values, grid):
    values = np.asarray(values)
    if np.iscomplexobj(values):
        columns = [sector, "value", "value_im"]
        rows = [[q, v.real, v.imag] for q, v in zip(grid, values)]
    else:
        columns = [sector, "value"]
        rows = [[q, v] for q, v in zip(grid, values)]
    return columns, rows, {"command": "amplitude", "sector": sector, "branch": branch}


def _byte_identity_cases():
    from bmlandau import regular as rg
    from bmlandau import sectors as sec
    from bmlandau.core import PhysParams, QuantumNumbers
    from bmlandau.ermakov import ep_coefficients, pinney_amplitude
    from bmlandau.flux import flux_context_from_lambda, pi_theta_closed, s_theta_closed

    params = PhysParams()
    cases = {}

    grid = np.linspace(0.0, 6.3, 200)
    ctx = flux_context_from_lambda(1.3, 0, 12.0, 0.4, params)
    rows = [[th, pi_theta_closed(th, ctx), s_theta_closed(th, ctx)] for th in grid]
    meta = {"command": "flow", "Lambda": ctx.Lambda, "E_pi": ctx.E_pi, "theta0": ctx.theta0, "phi": ctx.phi}
    cases["flow"] = (
        ["flow", "--lambda", "1.3", "--e-pi", "12", "--theta0", "0.4", "--grid", "0:6.3:200"],
        (["theta", "pi_theta", "s_theta"], rows, meta),
    )

    grid = np.linspace(0.0, 3.0, 200)
    values = rg.radial_regularised(QuantumNumbers(3, 2, 0.0), params)(grid)
    cases["r_regularised"] = (
        ["amplitude", "--sector", "r", "--branch", "regularised", "--nr", "3", "--l", "2", "--grid", "0:3:200"],
        _amplitude_case("r", "regularised", values, grid),
    )

    pair = sec.radial_basis(-0.4, params)
    values = pinney_amplitude(pair, ep_coefficients(1.5, 0.7, 0.2, pair.wronskian))(grid)
    cases["r_ep"] = (
        ["amplitude", "--sector", "r", "--branch", "ep", "--a", "-0.4", "--A", "1.5", "--B", "0.7",
         "--D", "0.2", "--grid", "0:3:200"],
        _amplitude_case("r", "ep", values, grid),
    )

    grid = np.linspace(0.1, 1.0, 200)
    values = rg.azimuthal_whittaker(grid, 2, params.beta * 1.2**2, 0.8 + 0j, 0.5j)
    cases["theta_whittaker"] = (
        ["amplitude", "--sector", "theta", "--branch", "whittaker", "--l", "2", "--r", "1.2",
         "--c1", "0.8+0j", "--c2", "0.5j", "--grid", "0.1:1:200"],
        _amplitude_case("theta", "whittaker", values, grid),
    )

    grid = np.linspace(0.1, 3.3, 200)
    values = rg.axial_regularised(1.5)(grid)
    cases["z_regularised"] = (
        ["amplitude", "--sector", "z", "--branch", "regularised", "--kz", "1.5", "--grid", "0.1:3.3:200"],
        _amplitude_case("z", "regularised", values, grid),
    )
    return cases


class TestByteIdentity:
    """CLI stdout equals the text built point by point from the library."""

    @pytest.mark.parametrize("kind", ["flow", "r_regularised", "r_ep", "theta_whittaker", "z_regularised"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_profile_matches_per_cell_rule(self, capsys, kind, fmt):
        argv, (columns, rows, meta) = _byte_identity_cases()[kind]
        if kind == "theta_whittaker":
            assert any(row[2] != 0.0 for row in rows)
        code, out, _ = run_cli(argv + ["--format", fmt], capsys)
        assert code == 0
        expected = _csv_expected(columns, rows) if fmt == "csv" else _json_expected(columns, rows, meta)
        assert out == expected

    def test_emitter_special_values(self):
        from bmlandau.tables import _emit_table

        values = [-0.0, 0.0, 1e-320, 1e300, 0.1, -1.5e-7, float("inf"), float("nan"), 7]
        rows = [tuple(values), (np.float64(0.1), 2, np.float64(-0.0), 1e300, 0.1, 0.0, 1.0, -1.0, 3)]
        names = [f"c{i}" for i in range(len(values))]
        columns = list(np.array(rows, dtype=float).T)
        assert _emit_table(names, columns, {}, "csv") == _csv_expected(names, rows)
        assert _emit_table(names, columns, {}, "csv").split("\n")[1] == (
            "-0,0,9.9998886718268301e-321,1.0000000000000001e+300,0.10000000000000001,"
            "-1.4999999999999999e-07,inf,nan,7"
        )

    def test_emitter_label_and_gap_columns(self):
        from bmlandau.tables import _emit_table

        # label columns as a list and as an object array, float columns with and without gaps
        columns = [
            np.ma.array([0.1, 0.1], mask=[False, True]),
            ["0", "1"],
            np.ma.array([0.1, 0.1], mask=[True, False]),
            np.array(["qm", "qm"], dtype=object),
            np.array([0.5, -0.0]),
        ]
        text = _emit_table(["a", "b", "c", "d", "e"], columns, {}, "csv")
        assert text == "a,b,c,d,e\n0.10000000000000001,0,,qm,0.5\n,1,0.10000000000000001,qm,-0\n"
        text = _emit_table(["a", "b", "c", "d", "e"], columns, {}, "json")
        want = [[0.1, "0", None, "qm", 0.5], [None, "1", 0.1, "qm", -0.0]]
        assert text == json.dumps({"columns": ["a", "b", "c", "d", "e"], "rows": want, "metadata": {}}, indent=2) + "\n"


def _cell_by_cell_csv(columns, rows):
    """CSV by the per-cell rule: "" for a gap, a str as it is, else format(float(v), ".17g")."""
    cell = lambda v: "" if v is None else v if isinstance(v, str) else format(float(v), ".17g")
    return "\n".join([",".join(columns)] + [",".join(map(cell, row)) for row in rows]) + "\n"


def _rows(columns):
    """The rows of a table given as columns, as the per-cell references take
    them: each cell a float, a str, or None for a gap (a masked float)."""
    return [list(row) for row in zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns])]


class TestCsvRowTemplate:
    """Each table's one row template gives the bytes of the per-cell rule."""

    CASES = {
        "spectrum all": ({}, ["spectrum", "--nr", "0:3", "--l=-1:3", "--kz", "0,0.1,2", "--model", "all"]),
        "spectrum one model": ({}, ["spectrum", "--nr", "0:2", "--l", "0:2", "--kz", "0.1,1e-300", "--model", "el"]),
        # hbar = 1e9 puts two momentum poles, and so two gap rows, on this grid
        "flow with gaps": ({"hbar": 1e9}, ["flow", "--lambda", "1", "--e-pi", "1", "--grid", "2.3561:2.3563:201"]),
        "amplitude complex": ({}, ["amplitude", "--sector", "theta", "--branch", "whittaker", "--l", "1",
                                   "--r", "1", "--c2", "0.5j", "--grid", "0.2:2:50"]),
        "amplitude real": ({}, ["amplitude", "--sector", "z", "--branch", "regularised", "--kz", "1",
                                "--grid", "0.1:5:50"]),
    }

    @pytest.mark.parametrize("kind", list(CASES))
    def test_equals_cell_by_cell(self, capsys, monkeypatch, tmp_path, kind):
        from bmlandau import cli

        config, argv = self.CASES[kind]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        tables, emit = [], cli._emit_table

        def recording(names, columns, metadata, fmt):
            tables.append((names, columns))
            return emit(names, columns, metadata, fmt)

        monkeypatch.setattr(cli, "_emit_table", recording)
        code, out, _ = run_cli(["--config", str(cfg)] + argv, capsys)
        assert code == 0
        [(names, columns)] = tables
        rows = _rows(columns)
        if kind == "flow with gaps":
            assert sum(row[1] is None for row in rows) == 2
        assert out == _cell_by_cell_csv(names, rows)


class TestPoleGapRows:
    ARGV = ["flow", "--lambda", "1", "--e-pi", "1", "--grid", "2.3561:2.3563:201"]

    def _pole_mask(self):
        from bmlandau.core import PhysParams, QuantumNumbers
        from bmlandau.flux import _momentum_denominator, flux_context_from_lambda

        # hbar = 1e9 rounds Delta to E_pi^2, so the denominator touches zero at 3 pi / 4
        ctx = flux_context_from_lambda(1.0, 0, 1.0, 0.0, PhysParams(hbar=1e9))
        grid = np.linspace(2.3561, 2.3563, 201)
        denom, pole = _momentum_denominator(grid, ctx)
        assert np.array_equal(pole, np.abs(denom) < 1e-12 * max(abs(ctx.E_pi), 1.0))
        return ctx, grid, pole

    def test_gap_rows_are_the_shared_pole_mask(self, capsys, tmp_path):
        from bmlandau.flux import pi_theta_closed

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hbar": 1e9}))
        ctx, grid, pole = self._pole_mask()
        assert np.flatnonzero(pole).tolist() == [94, 95]

        code, out, _ = run_cli(["--config", str(cfg)] + self.ARGV, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 201
        gaps = [i for i, line in enumerate(lines[1:]) if line.endswith(",,")]
        assert gaps == np.flatnonzero(pole).tolist()
        assert lines[96] == format(grid[95], ".17g") + ",,"
        with pytest.raises(ZeroDivisionError):
            pi_theta_closed(grid[94], ctx)

        code, out, _ = run_cli(["--config", str(cfg), "--format", "json"] + self.ARGV, capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [i for i, row in enumerate(rows) if row[1] is None] == gaps
        assert all(rows[i][2] is None for i in gaps)
        assert all(row[1] is not None for i, row in enumerate(rows) if i not in gaps)


class TestNonFiniteCellsRefused:
    """A nan or inf value cell, unless it is a gap, exits 2 with one line
    naming its column and grid value instead of reaching the table."""

    @staticmethod
    def _spoiled(monkeypatch, module, name, at, value):
        evaluate = getattr(module, name)

        def spoiled(*args, **kwargs):
            values = np.array(evaluate(*args, **kwargs))
            values[at] = value
            return values

        monkeypatch.setattr(module, name, spoiled)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "name, argv, at, value, message",
        [
            ("damped_axial_profile", ["--sector", "z", "--branch", "damped", "--grid", "0:1:5"], [3, 4], math.nan,
             "table cell value = nan at z = 0.75 is not finite"),
            ("damped_radial_profile", ["--sector", "r", "--branch", "damped", "--grid", "0:1:5"], [2], -math.inf,
             "table cell value = -inf at r = 0.5 is not finite"),
            ("azimuthal_whittaker", ["--sector", "theta", "--branch", "whittaker", "--l", "1", "--grid", "0.2:2:5"], [1],
             complex(1.0, math.inf), "table cell value_im = inf at theta = 0.65 is not finite"),
        ],
    )
    def test_amplitude(self, capsys, monkeypatch, name, argv, at, value, message, fmt):
        self._spoiled(monkeypatch, rg, name, at, value)
        code, out, err = run_cli(["amplitude", *argv, "--format", fmt], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_flow_names_the_first_row(self, capsys, monkeypatch):
        from bmlandau import flux

        self._spoiled(monkeypatch, flux, "s_theta_closed", [2, 4], math.inf)
        code, out, err = run_cli(["flow", "--lambda", "1", "--e-pi", "10", "--grid", "0:4:5"], capsys)
        assert (code, out, err) == (2, "", "error: table cell s_theta = inf at theta = 2 is not finite\n")

    def test_gap_cells_are_not_refused(self, capsys, monkeypatch, tmp_path):
        from bmlandau import flux

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hbar": 1e9}))
        argv = ["--config", str(cfg)] + TestPoleGapRows.ARGV
        code, want, _ = run_cli(argv, capsys)
        momentum_and_pole = flux._momentum_and_pole

        def nan_at_poles(grid, ctx):
            pi_vals, pole = momentum_and_pole(grid, ctx)
            return np.where(pole, math.nan, pi_vals), pole

        monkeypatch.setattr(flux, "_momentum_and_pole", nan_at_poles)
        assert run_cli(argv, capsys) == (code, want, "") and code == 0 and ",,\n" in want


class TestNonFiniteInputRejected:
    GRID = ["--grid", "0.1:1:5"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--lambda", "1", "--e-pi", "nan", "--grid", "0:1:5"],
            ["flow", "--lambda", "inf", "--e-pi", "10", "--grid", "0:1:5"],
            ["flow", "--lambda", "1", "--e-pi", "10", "--theta0", "-inf", "--grid", "0:1:5"],
            ["flow", "--lambda", "1", "--e-pi", "10", "--grid", "0:inf:3"],
            ["flow", "--lambda", "1", "--e-pi", "10", "--grid", "nan:1:3"],
            ["flow", "--lambda", "1", "--e-pi", "10", "--grid", "-1e308:1e308:3"],
            ["flow", "--lambda", "1", "--e-pi", "1e200", "--grid", "0:1:3"],
            ["spectrum", "--nr", "0", "--l", "0", "--kz", "nan"],
            ["spectrum", "--nr", "0", "--l", "0", "--kz", "0,inf"],
            ["amplitude", "--sector", "z", "--branch", "regularised", "--kz", "nan"] + GRID,
            ["amplitude", "--sector", "theta", "--branch", "whittaker", "--r", "inf"] + GRID,
            ["amplitude", "--sector", "theta", "--branch", "whittaker", "--c2", "nanj"] + GRID,
            ["amplitude", "--sector", "theta", "--branch", "whittaker", "--c1", "inf+0j"] + GRID,
            ["amplitude", "--sector", "r", "--branch", "ep", "--A", "nan"] + GRID,
            ["amplitude", "--sector", "r", "--branch", "damped", "--cr", "-inf"] + GRID,
            ["verify", "--suite", "spectrum", "--tol", "nan"],
        ],
    )
    def test_flag_values(self, capsys, argv):
        code, out, err = run_cli_any_exit(argv, capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.startswith("error:") or ": error: argument" in last

    @pytest.mark.parametrize(
        "config",
        ['{"charge": NaN}', '{"hbar": Infinity}', '{"mass": Infinity}', '{"B": -Infinity}',
         '{"tol": NaN}', '{"B": [1]}', "[1, 2]"],
    )
    def test_config_values(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = ["--config", str(cfg), "flow", "--lambda", "1", "--e-pi", "10", "--grid", "0:1:5"]
        code, out, err = run_cli_any_exit(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


_FLOAT_CELLS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_COLUMN_FLOATS = st.one_of(_FLOAT_CELLS, st.sampled_from([math.nan, math.inf, -math.inf]))
_STRINGS = st.one_of(
    st.sampled_from(['"rows": []', "rows", "λ = l²", 'a"b\\c\n\t', "\x00\u2028", "\U0001f600"]),
    st.text(max_size=8),
)
_METADATA = st.dictionaries(
    _STRINGS, st.one_of(_STRINGS, _FLOAT_CELLS, st.integers(), st.none()), max_size=4
)


@st.composite
def _tables(draw):
    """A table of the two column kinds: floats, some with gaps (masked
    cells), and labels, as a list or an object array of str."""
    width = draw(st.integers(1, 4))
    n = len(draw(st.lists(st.none(), max_size=50)))  # rows as many as st.lists(row, max_size=50) draws
    names = draw(st.lists(_STRINGS, min_size=width, max_size=width))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["floats", "gaps", "labels", "label array"]), min_size=width, max_size=width)):
        if kind.startswith("label"):
            labels = draw(st.lists(_STRINGS, min_size=n, max_size=n))
            columns.append(labels if kind == "labels" else np.array(labels, dtype=object))
        else:
            values = np.array(draw(st.lists(_COLUMN_FLOATS, min_size=n, max_size=n)), dtype=float)
            if kind == "gaps":
                values = np.ma.array(values, mask=draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            columns.append(values)
    return names, columns, draw(_METADATA)


class TestJsonEmitter:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    def test_equals_json_dumps(self, table):
        from bmlandau.tables import _emit_table

        names, columns, metadata = table
        want = json.dumps({"columns": names, "rows": _rows(columns), "metadata": metadata}, indent=2) + "\n"
        assert _emit_table(names, columns, metadata, "json") == want


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1e308, -1e308,
                     1.7976931348623157e308, math.nan, math.inf, -math.inf]),
    st.floats(),
)


@st.composite
def _array_tables(draw):
    """Float columns as the CLI passes them (views of one array), gap rows
    as flow writes them."""
    width, n = draw(st.integers(1, 4)), draw(st.integers(1, 50))
    rows = np.array(draw(st.lists(_EDGE_FLOATS, min_size=width * n, max_size=width * n))).reshape(n, width)
    columns = list(rows.T)
    # half the tables have no gap rows and stay plain float columns
    gaps = draw(st.lists(st.booleans(), min_size=n, max_size=n)) if draw(st.booleans()) else [False]
    if any(gaps):
        columns[1:] = [np.ma.array(column, mask=gaps) for column in columns[1:]]
    return [f"c{i}" for i in range(width)], columns, draw(_METADATA)


class TestArrayTables:
    """A table of whole float columns gives the bytes of the per-cell rules."""

    @settings(max_examples=300, deadline=None)
    @given(_array_tables())
    def test_equals_per_cell_rules(self, table):
        from bmlandau.tables import _emit_table

        names, columns, metadata = table
        rows = _rows(columns)
        assert _emit_table(names, columns, metadata, "csv") == _cell_by_cell_csv(names, rows)
        want = json.dumps({"columns": names, "rows": rows, "metadata": metadata}, indent=2) + "\n"
        assert _emit_table(names, columns, metadata, "json") == want


class TestBlockSize:
    """A table's bytes do not depend on where its cells are cut into blocks,
    nor on where a block's gather is cut into chunks."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_array_tables(), _tables()), st.data())
    def test_bytes_do_not_depend_on_block_size(self, table, data):
        from unittest import mock

        from bmlandau import tables as tb

        # blocks of 1..64 cells, at least two to a table of two or more cells, so
        # that some blocks hold a scientific, fallback, label or gap cell and others
        # not, each gathered in chunks of 1 cell up to the whole block
        names, columns, metadata = table
        cells = len(columns) * len(columns[0])
        block = data.draw(st.integers(1, min(64, max(1, cells // 2))), label="block")
        chunk = data.draw(st.integers(1, block), label="chunk")
        with mock.patch.object(tb, "_BLOCK", block), mock.patch.object(tb, "_CHUNK", chunk):
            csv, text = [tb._emit_table(names, columns, metadata, fmt) for fmt in ("csv", "json")]
        rows = _rows(columns)
        assert csv == _cell_by_cell_csv(names, rows)
        assert text == json.dumps({"columns": names, "rows": rows, "metadata": metadata}, indent=2) + "\n"


class TestBlockMemory:
    """One table block's scratch memory stays within a fixed bound."""

    @pytest.mark.parametrize("fmt, bound", [("csv", 3.2), ("json", 4.23)])
    def test_one_block_peak(self, fmt, bound):
        import tracemalloc

        from bmlandau.tables import _BLOCK, _emit_table

        # a profile-like table of one block: a grid and an amplitude.  The
        # bounds (MiB) are the peaks of an 8,192-cell block gathered whole
        # (3.03 and 4.19 MiB), CSV's with 5% headroom: a block of more cells
        # must not take more scratch memory than that
        grid = np.linspace(0.0, 9.0, _BLOCK // 2)
        columns = [grid, np.exp(-grid) * np.cos(7 * grid)]
        _emit_table(["r", "R"], columns, {}, fmt)  # the cached masks and tables are made once
        tracemalloc.start()
        try:
            _emit_table(["r", "R"], columns, {}, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20


def _neighbours(x):
    """x and the floats just below and above it."""
    return st.sampled_from([np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]).map(float)


def _exact_tie(j, digits):
    """Odd multiples of 2**-j whose decimal text has exactly digits
    significant digits, the last a 5: a tie for the rounding to one digit fewer."""
    lo, hi = -(-(10 ** (digits - 1)) // 5**j), min(10**digits // 5**j, 2**53)
    return st.integers(lo // 2, (hi - 1) // 2).map(lambda m: (2 * m + 1) * 2.0**-j)


_JSON_DIGIT_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.integers(-1074, 1023).flatmap(lambda k: _neighbours(math.ldexp(1.0, k))),  # the gap below is half the gap above
    st.integers(-323, 308).flatmap(lambda k: _neighbours(float(f"1e{k}"))),
    st.sampled_from([1e-4, 1e-5, 1e15, 1e16, 1e17, 9999999999999998.0]).flatmap(_neighbours),  # format switches
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.sampled_from([0.0, -0.0]),
    st.integers(-(2**60), 2**60).map(float),
    st.tuples(st.integers(2, 22), st.sampled_from([16, 17])).flatmap(lambda jd: _exact_tie(*jd)),
)


class TestJsonDigits:
    """Each JSON float cell is float.__repr__ of it (json's text for a float)."""

    # every power of two in 1e-240..1e240 that no 15-digit rounding
    # settles and whose nearest 16-digit rounding lies below it, outside
    # the interval that reads back (the gap below is half the gap above),
    # while the rounding above lies inside it: repr takes that one
    @example([2.0**k for k in (-791, -788, -778, -705, -695, -662, -652, -549, -509, -496, -489, -383, -366, -296,
                               -140, -97, -77, -44, 89, 122, 132, 172, 182, 275, 305, 345, 378, 398, 405, 481, 534,
                               544, 554, 574, 594, 710)], 3)
    @example([-(2.0**-44), 2.0**89, -(2.0**405)], 1)
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_JSON_DIGIT_FLOATS, min_size=1, max_size=240), st.integers(1, 4))
    def test_cells_equal_repr(self, values, width):
        from bmlandau.tables import _emit_table

        rows = np.array(values[: max(1, len(values) // width) * width]).reshape(-1, min(width, len(values)))
        names = [f"c{i}" for i in range(rows.shape[1])]
        text = _emit_table(names, list(rows.T), {}, "json")
        assert text == json.dumps({"columns": names, "rows": rows.tolist(), "metadata": {}}, indent=2) + "\n"
        cells = [line.strip().rstrip(",") for line in text.splitlines() if line.startswith(" " * 6)]
        assert cells == [repr(v) if math.isfinite(v) else json.dumps(v) for v in rows.ravel().tolist()]


class TestCsvDigits:
    """The CSV digit grid writes format(x, ".17g") for every float."""

    @staticmethod
    def _check(values, width=1):
        from bmlandau.tables import _emit_table

        values = np.asarray(values, dtype=float)
        names = [f"c{i}" for i in range(width)]
        rows = values[: values.size // width * width].reshape(-1, width)
        assert _emit_table(names, list(rows.T), {}, "csv") == _cell_by_cell_csv(names, rows.tolist())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60), st.integers(1, 4))
    def test_bit_patterns(self, bits, width):
        self._check(np.array(bits, dtype=np.uint64).view(np.float64), width)

    def test_many_cells_across_blocks(self):
        from bmlandau.tables import _BLOCK

        # rows of 3 straddle the blocks, and the last block is a part block
        n = 15 * _BLOCK // 2 + 1
        rng = np.random.default_rng(7919)
        self._check(rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64), 3)
        self._check(rng.standard_normal(n) * 10.0 ** rng.integers(-250, 250, n), 3)

    def test_text_and_gap_cells_at_block_edges(self):
        from bmlandau.tables import _BLOCK, _emit_table

        # label cells (multi-byte, empty and a lone surrogate among them) and
        # gaps on both sides of four block edges, so every block decodes on
        # its own, with the edges at each of the three columns
        labels = ["label", "λ = l²", "\U0001f600", "\ud800", "x" * 60, "λ", ""]
        n = (4 * _BLOCK + 5) // 3
        assert {k * _BLOCK % 3 for k in range(1, 5)} == {0, 1, 2}
        values = np.random.default_rng(3).standard_normal((n, 3))
        gaps = np.zeros((n, 3), bool)
        for k in range(1, 5):  # among the last two cells of block k and the first two of block k + 1
            gaps.flat[k * _BLOCK - 2 : k * _BLOCK + 2 : 1 + k % 2] = True
        columns = [[labels[i % len(labels)] for i in range(n)]]
        columns += [np.ma.array(values[:, j], mask=gaps[:, j]) for j in (1, 2)]
        assert _emit_table(["a", "b", "c"], columns, {}, "csv") == _cell_by_cell_csv(["a", "b", "c"], _rows(columns))

    def test_powers_of_ten_and_neighbours(self):
        # log10 of a float just below a power of ten rounds up to it
        tens = 10.0 ** np.arange(-323, 309)
        self._check(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens]))

    def test_ties_go_to_format(self):
        from bmlandau.tables import _round17

        # (4e15 + 1) / 4 = 1000000000000000.25: 18 digits, so its 17-digit rounding is a tie
        ties = np.array([4000000000000001, 4000000000000003, 4000000000000005]) / 4
        assert _round17(ties, np.full(3, 15))[2].all()
        self._check(np.concatenate([ties, -ties]))

    def test_outside_the_digit_range(self):
        self._check([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-240, 9.99e-241, 1e240,
                     1.01e240, 1.7976931348623157e308, math.nan, math.inf, -math.inf])

    def test_long_and_non_ascii_labels(self):
        from bmlandau.tables import _emit_table

        columns = [["x" * 60, "λ = l²"], np.array([0.1, -2.5e-7]), np.ma.array([0.0, 1.0], mask=[True, False]),
                   np.array(["\U0001f600", "\ud800"], dtype=object)]
        names = ["a", "b", "c", "d"]
        assert _emit_table(names, columns, {}, "csv") == _cell_by_cell_csv(names, _rows(columns))


class TestCsvBlockThreads:
    """The blocks of a CSV or JSON table are written on one thread per CPU
    and joined in order; one block, or a process on one CPU, writes them
    inline."""

    @staticmethod
    def _python(code):
        """Run code in a fresh interpreter that imports this bmlandau; its stdout."""
        from bmlandau import cli

        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout

    @staticmethod
    def _json(columns):
        """The JSON table of columns named c0.. with no metadata."""
        from bmlandau.tables import _emit_table

        return _emit_table([f"c{i}" for i in range(len(columns))], columns, {}, "json")

    def test_multi_block_flow_with_gap_rows(self, capsys, monkeypatch, tmp_path):
        from bmlandau import cli
        from bmlandau.tables import _BLOCK

        # hbar = 1e9 makes the momentum denominator touch zero at 3 pi / 4; a
        # 1e-8 step puts ~140 gap rows there, centred on the first block edge
        n, step = _BLOCK + 1, 1e-8
        lo = 3 * math.pi / 4 - step * (_BLOCK // 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hbar": 1e9}))
        tables, emit = [], cli._emit_table
        monkeypatch.setattr(cli, "_emit_table", lambda *args: tables.append(args[:2]) or emit(*args))
        argv = ["flow", "--lambda", "1", "--e-pi", "1", "--grid", f"{lo!r}:{lo + step * (n - 1)!r}:{n}"]
        code, out, _ = run_cli(["--config", str(cfg)] + argv, capsys)
        assert code == 0
        [(names, columns)] = tables
        rows = _rows(columns)
        flat = [cell for row in rows for cell in row]
        assert len(flat) > 3 * _BLOCK
        assert None in flat[_BLOCK - 3 : _BLOCK] and None in flat[_BLOCK : _BLOCK + 3]  # gaps on both sides of the edge
        assert out == _cell_by_cell_csv(names, rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_multi_block_spectrum_table(self, capsys, monkeypatch, fmt):
        from bmlandau import cli
        from bmlandau.tables import _BLOCK

        # 9,486 rows of 6 cells, 5 of them labels: four blocks, with label
        # columns on both sides of each block edge
        tables, emit = [], cli._emit_table
        monkeypatch.setattr(cli, "_emit_table", lambda *args: tables.append(args[:3]) or emit(*args))
        argv = ["spectrum", "--nr", "0:50", "--l", "0:30", "--kz", "0,1", "--model", "all", "--format", fmt]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        [(names, columns, metadata)] = tables
        rows = _rows(columns)
        assert len(rows) == 9486 and 3 * _BLOCK < 6 * len(rows) <= 4 * _BLOCK
        if fmt == "csv":
            assert out == _cell_by_cell_csv(names, rows)
        else:
            assert out == json.dumps({"columns": names, "rows": rows, "metadata": metadata}, indent=2) + "\n"

    def test_shared_tables_are_read_only(self):
        from bmlandau.tables import _GRID, _QUADS, _digit_counts, _powers_of_ten, _shown, _template

        for table in (_GRID, _QUADS, _shown(45), _template(45, False), _digit_counts(), _powers_of_ten(1)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    @staticmethod
    def _race(write, count):
        """Run write(0..count - 1) on as many threads at once, switching often."""
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(k,)) for k in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

    def test_concurrent_tables_share_the_pool_and_masks(self):
        from bmlandau import tables as tb

        # six callers, more than the pool's threads, race to build the _shown
        # masks, template rows, digit counts and powers of ten from empty
        # caches while they share the pool
        rng = np.random.default_rng(8)
        tables = [rng.standard_normal((tb._BLOCK, width)) * 10.0 ** rng.integers(-30, 30, (tb._BLOCK, width))
                  for width in (1, 2, 3, 4, 5, 6)]
        want = [_cell_by_cell_csv([f"c{i}" for i in range(t.shape[1])], t.tolist()) for t in tables]
        got = [None] * len(tables)

        def write(k):
            got[k] = tb._emit_table([f"c{i}" for i in range(tables[k].shape[1])], list(tables[k].T), {}, "csv")

        for cached in (tb._shown, tb._template, tb._digit_counts, tb._powers_of_ten):
            cached.cache_clear()
        self._race(write, len(tables))
        assert got == want

    def test_concurrent_json_tables_share_the_pool(self):
        from bmlandau import tables as tb

        # two JSON tables of three blocks each, from empty caches, beside a CSV table
        rng = np.random.default_rng(9)
        tables = [rng.standard_normal((tb._BLOCK, 3)) * 10.0 ** rng.integers(-30, 30, (tb._BLOCK, 3)) for _ in range(3)]
        want = [json.dumps({"columns": ["c0", "c1", "c2"], "rows": t.tolist(), "metadata": {}}, indent=2) + "\n"
                for t in tables[:2]]
        want.append(_cell_by_cell_csv(["c0", "c1", "c2"], tables[2].tolist()))
        got = [None] * len(tables)

        def write(k):
            columns = list(tables[k].T)
            got[k] = self._json(columns) if k < 2 else tb._emit_table(["c0", "c1", "c2"], columns, {}, "csv")

        for cached in (tb._shown, tb._template, tb._digit_counts, tb._powers_of_ten):
            cached.cache_clear()
        self._race(write, len(tables))
        assert got == want

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_cpu_process_writes_the_same_bytes(self):
        from bmlandau.tables import _BLOCK, _emit_table

        rows = np.random.default_rng(5).standard_normal((_BLOCK + 7, 3))
        code = (
            "import os, sys, hashlib, numpy as np\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from bmlandau import tables\n"
            f"rows = np.random.default_rng(5).standard_normal(({_BLOCK + 7}, 3))\n"
            "text = tables._emit_table(['a', 'b', 'c'], list(rows.T), {}, 'csv')\n"
            "print(tables._block_pool(), 'concurrent.futures' in sys.modules, hashlib.sha1(text.encode()).hexdigest())\n"
        )
        want = hashlib.sha1(_emit_table(["a", "b", "c"], list(rows.T), {}, "csv").encode()).hexdigest()
        assert self._python(code).split() == ["None", "False", want]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_cpu_process_writes_the_same_json(self):
        from bmlandau.tables import _BLOCK

        # gap rows and wide magnitudes across the first block edge
        values = np.random.default_rng(10).standard_normal((_BLOCK + 7, 3)) * 10.0 ** np.arange(-20, 19, 13)
        gaps = np.zeros(_BLOCK + 7, bool)
        gaps[_BLOCK // 3 - 1 : _BLOCK // 3 + 2] = True
        columns = [values[:, 0], *(np.ma.array(values[:, j], mask=gaps) for j in (1, 2))]
        code = (
            "import os, sys, hashlib, numpy as np\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from bmlandau import tables\n"
            f"values = np.random.default_rng(10).standard_normal(({_BLOCK + 7}, 3)) * 10.0 ** np.arange(-20, 19, 13)\n"
            f"gaps = np.zeros({_BLOCK + 7}, bool)\n"
            f"gaps[{_BLOCK // 3 - 1} : {_BLOCK // 3 + 2}] = True\n"
            "columns = [values[:, 0], *(np.ma.array(values[:, j], mask=gaps) for j in (1, 2))]\n"
            "text = tables._emit_table(['c0', 'c1', 'c2'], columns, {}, 'json')\n"
            "print(tables._block_pool(), 'concurrent.futures' in sys.modules, hashlib.sha1(text.encode()).hexdigest())\n"
        )
        text = self._json(columns)
        assert text == json.dumps({"columns": ["c0", "c1", "c2"], "rows": _rows(columns), "metadata": {}}, indent=2) + "\n"
        assert self._python(code).split() == ["None", "False", hashlib.sha1(text.encode()).hexdigest()]

    def test_import_and_one_block_table_start_no_threads(self):
        code = (
            "import os, sys, threading, bmlandau.cli\n"
            "before = 'concurrent.futures' in sys.modules\n"
            "bmlandau.cli.main(['flow', '--lambda', '1', '--e-pi', '10', '--grid', '0:6.3:1000', '--out', os.devnull])\n"
            "print(before, 'concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        assert self._python(code).split() == ["False", "False", "1"]

    def test_one_block_json_table_starts_no_thread(self):
        code = (
            "import os, sys, threading, bmlandau.cli\n"
            "bmlandau.cli.main(['flow', '--lambda', '1', '--e-pi', '10', '--grid', '0:6.3:1000', '--format', 'json',"
            " '--out', os.devnull])\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        assert self._python(code).split() == ["False", "1"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_makes_its_own_threads(self):
        # the parent's first table makes its pool; a child forked after it
        # must not wait on threads it does not have (SIGALRM ends a hang)
        code = self._python(
            "import os, signal, numpy as np\n"
            "from bmlandau.tables import _BLOCK, _emit_table\n"
            "rows = np.random.default_rng(6).standard_normal((_BLOCK, 3))\n"
            "want = _emit_table(['a', 'b', 'c'], list(rows.T), {}, 'csv')\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(60)\n"
            "    os._exit(0 if _emit_table(['a', 'b', 'c'], list(rows.T), {}, 'csv') == want else 3)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        assert code.strip() == "0"


class TestAmplitudeBlocks:
    """amplitude evaluates its grid in fixed blocks of 16,384 points on the
    table writer's threads; the blocks are cut by grid index, so the bytes
    do not depend on how many threads run them."""

    @staticmethod
    def _pools(monkeypatch):
        """Patch the pool to none (the blocks run inline), then to 2 and to 4
        threads; yields whether the amplitude blocks went through pool.map
        so far in each setting."""
        from concurrent.futures import ThreadPoolExecutor

        from bmlandau import cli, tables

        for threads in (None, 2, 4):
            mapped = []
            pool = ThreadPoolExecutor(threads) if threads else None
            if pool:
                pool_map = pool.map
                pool.map = lambda fn, *starts: mapped.append("_by_blocks" in fn.__qualname__) or pool_map(fn, *starts)
            for module in (cli, tables):
                monkeypatch.setattr(module, "_block_pool", lambda: pool)
            try:
                yield lambda: any(mapped) == bool(threads)
            finally:
                if pool:
                    pool.shutdown()

    @pytest.mark.parametrize("argv", [
        ["--sector", "r", "--branch", "regularised", "--nr", "3", "--l", "2", "--grid", "0:3:40000"],
        ["--sector", "r", "--branch", "ep", "--a", "-0.4", "--A", "1.3", "--D", "0.2", "--grid", "0:3:40000"],
        ["--sector", "z", "--branch", "regularised", "--kz", "1.3", "--grid", "0.07:3.8:40000"],
        ["--sector", "theta", "--branch", "whittaker", "--l", "2", "--r", "1.2", "--grid", "0.1:1:40000"],
        ["--sector", "theta", "--branch", "whittaker", "--l", "1", "--r", "0.9", "--c1", "0.7", "--c2", "0.4j",
         "--grid", "0.2:2:40000"],
    ], ids=["r_regularised", "r_ep", "z_regularised", "theta_m", "theta_m_and_w"])
    def test_three_blocks_same_bytes_inline_and_on_2_or_4_threads(self, capsys, monkeypatch, argv):
        outs = []
        for on_the_pool in self._pools(monkeypatch):
            code, out, err = run_cli(["amplitude", *argv], capsys)
            assert (code, err) == (0, "") and on_the_pool()
            outs.append(hashlib.sha1(out.encode()).hexdigest())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("argv, evaluate", [
        # x > 1000 only in the last block
        (["--sector", "z", "--branch", "regularised", "--kz", "1", "--grid", "0.1:1001:40000"],
         rg.axial_regularised(1.0)),
        # r^nu (nu = 10.01) overflows from r = 6.1e30, in the second and third blocks
        (["--sector", "r", "--branch", "regularised", "--nr", "0", "--l", "10", "--grid", "0:1e31:40000"],
         rg.radial_regularised(QuantumNumbers(0, 10, 0.0), PhysParams())),
        # every block overflows, each reaching its own max of C_r r^2 / hbar:
        # only the whole grid's, in its last block, is the whole call's line
        (["--sector", "r", "--branch", "damped", "--cr", "1000", "--grid", "0:30:40000"],
         lambda grid: rg.damped_radial_profile(grid, 1000.0, PhysParams())),
    ], ids=["axial_range", "radial_power", "damped_max"])
    def test_refusal_in_a_block_is_the_whole_call_refusal(self, capsys, monkeypatch, argv, evaluate):
        from bmlandau.cli import _parse_grid

        with pytest.raises(ValueError) as whole:
            evaluate(_parse_grid(argv[-1]))
        for on_the_pool in self._pools(monkeypatch):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli(["amplitude", *argv], capsys) == (2, "", f"error: {whole.value}\n")
            assert on_the_pool()

    def test_one_block_amplitude_starts_no_thread(self):
        code = (
            "import os, sys, threading, bmlandau.cli\n"
            "bmlandau.cli.main(['amplitude', '--sector', 'theta', '--branch', 'whittaker', '--c2', '0.5j',"
            " '--grid', '0.2:2:1000', '--out', os.devnull])\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        assert TestCsvBlockThreads._python(code).split() == ["False", "1"]


class TestLazyImports:
    """Each verb loads the modules it calls, and the package exports its
    names lazily (PEP 562) without caching them."""

    CLI = {"cli", "core", "spectrum", "tables"}
    CASES = {
        "import": ([], CLI),
        "amplitude": (["amplitude", "--sector", "r", "--branch", "regularised", "--nr", "3", "--l", "2",
                       "--grid", "0:3:10"], CLI | {"regular", "specfun"}),
        "flow": (["flow", "--lambda", "1", "--e-pi", "10", "--grid", "0:6.3:10"], CLI | {"flux", "oracle"}),
        "verify": (["verify", "--suite", "all"],
                   CLI | {"ermakov", "flux", "oracle", "regular", "sectors", "specfun", "verify"}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_modules_loaded(self, case):
        argv, expected = self.CASES[case]
        code = (
            "import contextlib, io, json, sys\n"
            "import bmlandau, bmlandau.cli\n"
            f"argv = {argv!r}\n"
            "if argv:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert bmlandau.cli.main(argv) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('bmlandau.'))))\n"
        )
        from bmlandau import cli

        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True,
                             check=True).stdout
        assert set(json.loads(out)) == {f"bmlandau.{m}" for m in expected}

    def test_exports_are_their_modules_attributes(self):
        import importlib

        import bmlandau

        assert len(bmlandau.__all__) == 58
        for name in bmlandau.__all__:
            module = importlib.import_module(f"bmlandau.{bmlandau._EXPORTS[name]}")
            assert getattr(bmlandau, name) is getattr(module, name), name

    def test_star_import_and_dir(self):
        import bmlandau

        namespace = {}
        exec("from bmlandau import *", namespace)
        assert set(bmlandau.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(bmlandau, name) for name in bmlandau.__all__)
        assert set(bmlandau.__all__) <= set(dir(bmlandau))

    def test_unknown_name(self):
        import bmlandau

        with pytest.raises(AttributeError, match="no_such_name"):
            bmlandau.no_such_name
        assert not hasattr(bmlandau, "no_such_name")

    def test_exports_not_cached_in_package(self, monkeypatch):
        import bmlandau
        from bmlandau import specfun

        assert bmlandau.hyp1f1 is specfun.hyp1f1
        stub = object()
        monkeypatch.setattr(specfun, "hyp1f1", stub)
        assert bmlandau.hyp1f1 is stub
        assert "hyp1f1" not in vars(bmlandau)

    def test_suite_choices_match_registry(self):
        from bmlandau import cli, verify

        assert cli._SUITES == tuple(verify.SUITES)

    def test_current_branch_lives_in_core(self):
        from bmlandau import core, flux

        assert flux.CurrentBranch is core.CurrentBranch

    def test_negative_grid_start_after_equals(self, capsys):
        code, out, _ = run_cli(["amplitude", "--sector", "z", "--branch", "damped", "--grid=-1:1:3"], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("-1,")
