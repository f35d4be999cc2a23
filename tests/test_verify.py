"""Suite registry: coverage of the module properties and report shape."""

import inspect
import math

import numpy as np
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


def test_report_gives_each_check_direction():
    # a separation check passes when its value exceeds tol; all others are bounded residuals
    checks = vf.run_suite("all")["checks"]
    assert {c["direction"] for c in checks} == {"<=", ">"}
    assert sorted(c["name"] for c in checks if c["direction"] == ">") == [
        "regular.obstruction", "specfun.whittaker_wronskian", "spectrum.splitting_positive"
    ]


def test_kummer_contiguity_makes_one_sweep_per_region(sweeps, monkeypatch):
    # the 36 functions are one real and one complex hyp1f1 call: the real call
    # sums x >= 0 (3 points) and the transformed x < 0 (2 points) of all 36 at
    # once; in the complex call the 3 functions with a = 0 sum their
    # terminating series, and the other 33 continue along the rays through
    # 5i, 10i and 3 + 4i, one node chain per distinct (a, b, ray): the rows
    # (0.3 - 1, b) and (-0.7, b) are one (a, b), so 30 pairs make 60 chains
    chains = []
    taylor = vf.sf._taylor_coefficients

    def counting(a, a_lo, b, x0, *rest):
        if x0 == 0:
            chains.append((a, b))
        return taylor(a, a_lo, b, x0, *rest)

    monkeypatch.setattr(vf.sf, "_taylor_coefficients", counting)
    assert vf.check_kummer_contiguity().passed
    assert sweeps == [36 * 3, 36 * 2, 3 * 3, 33 * 3]
    assert len(chains) == 30 * 2 and len(set(chains)) == 30


def test_invariant_constancy_evaluates_each_kummer_sweep_once(sweeps):
    # the radial pair at a = 0 needs 1F1(0, 1/2), 1F1(1, 3/2), 1F1(1/2, 3/2)
    # and 1F1(3/2, 5/2) on the 600-point grid, each once for all coefficient sets
    result = vf.check_invariant_constancy()
    assert result.passed
    assert sweeps == [600] * 4


# every registered check by suite, in report order
REGISTERED = {
    "ep": (
        "ep.invariant_constancy", "ep.pinney_residual_radial", "ep.pinney_residual_theta",
        "ep.pinney_residual_axial", "ep.pinney_convergence", "ep.wronskian_constancy",
        "sectors.omega_theta_axis", "sectors.energy_el_degeneracy", "sectors.energy_el_values",
    ),
    "flux": (
        "flux.uw_vs_closed", "flux.action_derivative", "flux.nonlinpie_closed_form",
        "flux.uw_nonzero_current", "flux.f_linear_flow", "flux.f_branch_split",
        "flux.quadrature_arcsin", "flux.quadrature_roundtrip", "flux.theta_reconstruction",
        "flux.divergence_zero_current", "flux.divergence_nonzero_current",
        "flux.bohm_residual_el", "flux.bohm_residual_cbr", "flux.current_zero_sum",
    ),
    "regular": (
        "regular.radial_ode", "regular.axial_ode", "regular.whittaker_ode", "regular.obstruction",
        "regular.local_branch_logderiv", "regular.local_branch_kappa0",
        "regular.branch_bookkeeping", "regular.damped_profiles", "specfun.kummer_contiguity",
        "specfun.whittaker_equation", "specfun.bessel_half_order", "specfun.gamma_reflection",
        "specfun.whittaker_wronskian",
    ),
    "spectrum": (
        "spectrum.reference_values", "spectrum.ordering_sweep", "spectrum.splitting_positive",
        "spectrum.axial_term_shared",
    ),
}
SEPARATION_CHECKS = {"regular.obstruction", "specfun.whittaker_wronskian", "spectrum.splitting_positive"}


@pytest.fixture(scope="module")
def results():
    """Each registered check run once, by suite."""
    return {suite: [fn() for fn in fns] for suite, fns in vf.SUITES.items()}


def test_registry_lists_every_check_in_report_order(report, results):
    assert list(vf.SUITES) == list(REGISTERED)
    assert {suite: tuple(r.name for r in rs) for suite, rs in results.items()} == REGISTERED
    assert [c["name"] for c in report["checks"]] == [n for names in REGISTERED.values() for n in names]


def test_registry_entries_are_the_module_functions():
    # the benchmark tracer rewires each entry by identity and names it by __name__
    fns = [fn for fns in vf.SUITES.values() for fn in fns]
    assert len({fn.__name__ for fn in fns}) == len(fns) == 40
    for fn in fns:
        assert inspect.isfunction(fn)
        assert getattr(vf, fn.__name__) is fn


def test_only_separation_checks_point_upwards(results):
    directions = {r.name: r.direction for rs in results.values() for r in rs}
    assert {name for name, d in directions.items() if d == ">"} == SEPARATION_CHECKS
    assert set(directions.values()) == {"<=", ">"}


@pytest.mark.parametrize("nan_at", [None, 0, 1, 2])
def test_nan_branch_flow_fails_branch_split(monkeypatch, nan_at):
    # a nan residual in any position, not only the first, fails the check
    flow = vf.fx.f_branch_flow
    cases = [1.0, 2.0, 0.3]  # the F of each case the check evaluates

    def flow_with_nan(F, *args):
        return math.nan if nan_at is None or F == cases[nan_at] else flow(F, *args)

    monkeypatch.setattr(vf.fx, "f_branch_flow", flow_with_nan)
    result = vf.check_f_branch_split()
    assert math.isnan(result.max_residual)
    assert not result.passed


@pytest.mark.parametrize("nan_at", [None, 0, 1])
def test_nan_whittaker_pair_fails_wronskian_separation(monkeypatch, nan_at):
    # a ">" check: a nan Wronskian must not be taken for a separated one
    mw = vf.sf.whittaker_mw
    kappas = [0.0, -0.25j]  # the kappa of each case the check evaluates

    def mw_with_nan(kappa, mu, x):
        if nan_at is None or kappa == kappas[nan_at]:
            return complex(math.nan, math.nan), complex(math.nan, math.nan)
        return mw(kappa, mu, x)

    monkeypatch.setattr(vf.sf, "whittaker_mw", mw_with_nan)
    result = vf.check_whittaker_wronskian()
    assert result.direction == ">"
    assert math.isnan(result.max_residual)
    assert not result.passed


def test_worst_propagates_nan_in_any_position():
    assert vf._worst([1.0, 3.0, 2.0]) == 3.0
    assert vf._worst([1.0, 3.0, 2.0], np.min) == 1.0
    for values in ([math.nan, 1.0], [1.0, math.nan], [0.0, 2.0, math.nan]):
        assert math.isnan(vf._worst(values))
        assert math.isnan(vf._worst(iter(values), np.min))


def _plant(f, delta, q=lambda *args: args[0]):
    """f scaled by 1 + delta sin 3|q|, q = q(*args) and by default f's first argument.

    The factor broadcasts along the trailing axes of f's value, so a
    solution sampled as (points, components) is scaled point by point.
    """

    def planted(*args, **kwargs):
        value = np.asarray(f(*args, **kwargs))
        factor = 1.0 + delta * np.sin(3.0 * np.abs(q(*args)))
        return value * np.reshape(factor, np.shape(factor) + (1,) * (value.ndim - np.ndim(factor)))

    return planted


def _plant_made(make, delta):
    """make(...) whose returned callables of q are planted."""
    return lambda *args: _plant(make(*args), delta)


def _plant_density(divergence, delta):
    """divergence_residual with its density scaled by 1 + delta sin 3r."""
    def planted(r, th, z, rho, *rest):
        return divergence(r, th, z, rho * (1.0 + delta * np.sin(3.0 * r))[:, None, None], *rest)

    return planted


def _plant_argument(f, delta):
    """whittaker_m(kappa, mu, x) with q = |x|."""
    return _plant(f, delta, q=lambda kappa, mu, x: x)


# every "<=" check that takes a derivative: the function it guards, how the
# error is planted there, and the smallest power of ten the check detects
PLANTED = {
    "ep.pinney_residual_radial": (vf.check_pinney_residual_radial, vf.ek, "pinney_amplitude", _plant_made, 1e-6),
    "ep.pinney_residual_theta": (vf.check_pinney_residual_theta, vf.sec, "trig_amplitude", _plant_made, 1e-6),
    "ep.pinney_residual_axial": (vf.check_pinney_residual_axial, vf.sec, "trig_amplitude", _plant_made, 1e-6),
    "ep.pinney_convergence": (vf.check_pinney_convergence, vf.ek, "pinney_amplitude", _plant_made, 1e-10),
    "flux.action_derivative": (vf.check_action_derivative, vf.fx, "s_theta_closed", _plant, 1e-9),
    "flux.nonlinpie_closed_form": (vf.check_nonlinpie_closed_form, vf.fx, "pi_theta_closed", _plant, 1e-6),
    "flux.uw_nonzero_current": (vf.check_uw_nonzero_current, vf, "integrate_ivp", _plant_made, 1e-6),
    "flux.quadrature_roundtrip": (
        vf.check_quadrature_roundtrip, vf.fx, "theta_first_integral_quadrature", _plant, 1e-6
    ),
    "flux.theta_reconstruction": (vf.check_theta_reconstruction, vf, "integrate_ivp", _plant_made, 1e-5),
    "flux.divergence_zero_current": (
        vf.check_divergence_zero_current, vf.fx, "divergence_residual", _plant_density, 1e-5
    ),
    "flux.divergence_nonzero_current": (
        vf.check_divergence_nonzero_current, vf.fx, "divergence_residual", _plant_density, 1e-5
    ),
    "flux.bohm_residual_el": (vf.check_bohm_residual_el, vf.sec, "trig_amplitude", _plant_made, 1e-5),
    "flux.bohm_residual_cbr": (vf.check_bohm_residual_cbr, vf.rg, "axial_regularised", _plant_made, 1e-5),
    "regular.radial_ode": (vf.check_radial_ode, vf.rg, "radial_regularised", _plant_made, 1e-6),
    "regular.axial_ode": (vf.check_axial_ode, vf.rg, "axial_regularised", _plant_made, 1e-6),
    "regular.whittaker_ode": (vf.check_whittaker_azimuthal_ode, vf.rg, "azimuthal_whittaker", _plant, 1e-7),
    "regular.local_branch_logderiv": (vf.check_local_branch_logderiv, vf.rg, "theta_local_branch", _plant, 1e-6),
    "regular.damped_profiles": (vf.check_damped_profiles, vf.rg, "damped_axial_profile", _plant, 1e-8),
    "specfun.whittaker_equation": (vf.check_whittaker_equation_grid, vf.sf, "whittaker_m", _plant_argument, 1e-7),
}


@pytest.mark.parametrize("name", PLANTED)
def test_stencil_check_fails_on_planted_error(monkeypatch, name):
    # a relative error delta sin 3q planted in the guarded function fails the check
    check, owner, attr, plant, delta = PLANTED[name]
    monkeypatch.setattr(owner, attr, plant(getattr(owner, attr), delta))
    result = check()
    assert result.name == name
    assert not result.passed
