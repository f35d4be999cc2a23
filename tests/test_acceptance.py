"""Acceptance gate: the fourteen exit criteria, one test each.

Every criterion runs at its stated tolerance and prints a single
pass/fail line (visible with `pytest -s` or in the captured output of a
failing run).  The numeric checks are the same named routines the
`verify` command executes, so the command-line gate and this module
cannot drift apart.
"""

import json
import time

from bmlandau import verify as vf
from bmlandau.cli import main


def _report(number, title, results, elapsed, budget=None):
    passed = all(r.passed for r in results)
    worst = ", ".join(f"{r.name}={r.max_residual:.3e} (tol {r.tol:g})" for r in results)
    line = f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {title}: {worst}"
    if budget is not None:
        line += f" [{elapsed:.2f}s / {budget:g}s]"
    print(line)
    assert passed, line
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s"


def _run(number, title, checks, budget=None):
    t0 = time.perf_counter()
    results = [fn() for fn in checks]
    _report(number, title, results, time.perf_counter() - t0, budget)


def test_criterion_01_invariant_constancy():
    _run(1, "Ermakov-Lewis constancy", [vf.check_invariant_constancy], budget=1.0)


def test_criterion_02_pinney_residuals():
    _run(
        2,
        "sector Pinney residuals with fourth-order convergence",
        [
            vf.check_pinney_residual_radial,
            vf.check_pinney_residual_theta,
            vf.check_pinney_residual_axial,
            vf.check_pinney_convergence,
        ],
        budget=5.0,
    )


def test_criterion_03_closed_form_ode_equivalence():
    _run(3, "coupled-flow vs closed-form momentum", [vf.check_uw_vs_closed], budget=1.0)


def test_criterion_04_action_consistency():
    _run(4, "action derivative consistency at three steps", [vf.check_action_derivative], budget=1.0)


def test_criterion_05_master_equation():
    _run(5, "closed form in the nonlinear master equation", [vf.check_nonlinpie_closed_form], budget=1.0)


def test_criterion_06_f_branch_reduction():
    _run(
        6,
        "F-flow linear reduction and sign-branch split",
        [vf.check_f_linear_flow, vf.check_f_branch_split],
    )


def test_criterion_07_quadrature_oracle():
    _run(
        7,
        "first-integral quadrature against analytic and round-trip oracles",
        [vf.check_quadrature_arcsin, vf.check_quadrature_roundtrip],
    )


def test_criterion_08_regularised_residuals():
    _run(
        8,
        "regularised sector equations (radial, axial, azimuthal)",
        [vf.check_radial_ode, vf.check_axial_ode, vf.check_whittaker_azimuthal_ode],
        budget=5.0,
    )


def test_criterion_09_azimuthal_obstruction():
    _run(9, "azimuthal amplitude generically complex", [vf.check_obstruction])


def test_criterion_10_local_branch_identity():
    _run(
        10,
        "local branch log-density flow and zero-current limit",
        [vf.check_local_branch_logderiv, vf.check_local_branch_kappa0],
    )


def test_criterion_11_branch_bookkeeping():
    _run(11, "current-branch closure and classification", [vf.check_branch_bookkeeping])


def test_criterion_12_spectral_values_and_ordering():
    _run(
        12,
        "reference spectral values and qm <= el <= cbr sweep",
        [vf.check_spectrum_reference_values, vf.check_spectrum_ordering],
        budget=1.0,
    )


def test_criterion_13_field_identities():
    _run(
        13,
        "continuity divergence and energy-balance residuals",
        [
            vf.check_divergence_zero_current,
            vf.check_bohm_residual_el,
            vf.check_bohm_residual_cbr,
        ],
        budget=30.0,
    )


def test_criterion_14_cli_contract(capsys, tmp_path):
    t0 = time.perf_counter()
    code = main(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    report = json.loads(out)
    ok = code == 0 and report["pass"]

    # byte-identical reruns of every command with fixed configuration
    commands = [
        ["spectrum", "--nr", "0:2", "--l", "0:2", "--kz", "0,1", "--model", "all"],
        ["amplitude", "--sector", "z", "--branch", "regularised", "--kz", "1", "--grid", "0.1:5:100"],
        ["amplitude", "--sector", "theta", "--branch", "whittaker", "--l", "1", "--r", "1",
         "--grid", "0.2:2:50"],
        ["flow", "--lambda", "1", "--e-pi", "10", "--grid", "0:3:200"],
    ]
    for argv in commands:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        ok = ok and (first == second) and first
    elapsed = time.perf_counter() - t0
    n_checks = len(report["checks"])
    print(
        f"criterion 14 [{'PASS' if ok else 'FAIL'}] CLI contract: "
        f"verify --suite all exit={code} with {n_checks} checks; "
        f"reruns byte-identical [{elapsed:.2f}s]"
    )
    assert ok
