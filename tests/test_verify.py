"""Suite registry: coverage of the module properties and report shape."""

import pytest

from bmlandau import verify as vf


@pytest.fixture(scope="module")
def report():
    """One run of the full suite, shared by the tests that only read it."""
    return vf.run_suite("all")


def test_all_covers_every_module_namespace(report):
    prefixes = {c["name"].split(".")[0] for c in report["checks"]}
    assert prefixes == {"ep", "sectors", "flux", "regular", "specfun", "spectrum"}


def test_check_names_are_stable_identifiers(report):
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    assert "flux.uw_vs_closed" in names
    assert "regular.obstruction" in names
    assert "specfun.bessel_half_order" in names


def test_single_suite_selection():
    report = vf.run_suite("spectrum")
    assert report["suite"] == "spectrum"
    assert all(c["name"].startswith("spectrum.") for c in report["checks"])


def test_unknown_suite_rejected():
    with pytest.raises(KeyError, match="unknown suite"):
        vf.run_suite("bogus")


def test_tol_override_skips_separation_checks():
    report = vf.run_suite("regular", tol_override=1e-3)
    by_name = {c["name"]: c for c in report["checks"]}
    # bounded residual checks take the override
    assert by_name["regular.radial_ode"]["tol"] == 1e-3
    # separation checks (value must exceed the gate) keep their own gate
    assert by_name["regular.obstruction"]["tol"] == 1e-6
    assert by_name["regular.obstruction"]["pass"]


def test_invariant_constancy_evaluates_each_kummer_sweep_once(sweeps):
    # the radial pair at a = 0 needs 1F1(0, 1/2), 1F1(1, 3/2), 1F1(1/2, 3/2)
    # and 1F1(3/2, 5/2) on the 600-point grid, each once for all coefficient sets
    result = vf.check_invariant_constancy()
    assert result.passed
    assert sweeps == [600] * 4
