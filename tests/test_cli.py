"""Command-line contract: schemas, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from bmlandau.cli import main


def run_cli(argv, capsys):
    code = main(argv)
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
        # kz = 10 on r <= 5 puts the Bessel series beyond |x| <= 30
        code, out, err = run_cli(
            ["amplitude", "--sector", "z", "--branch", "regularised", "--kz", "10", "--grid", "0.1:5:10"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_out_path(self, capsys, tmp_path):
        path = tmp_path / "no_such_dir" / "out.csv"
        code, _, err = run_cli(
            ["spectrum", "--nr", "0", "--l", "0", "--kz", "0", "--out", str(path)], capsys
        )
        assert code == 2
        assert err.startswith("error:")
