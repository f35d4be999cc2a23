"""Bohm-Madelung amplitude and flux analysis of the Landau problem.

A charged particle in a uniform magnetic field, written in amplitude and
phase variables: Ermakov-Pinney machinery for the zero-current sectors,
sectorial-current first integrals and the azimuthal momentum flow,
canonical shell regularisation with its Langer-shifted spectrum, and an
independent ODE/quadrature oracle used to verify every closed form.

The names below are exported lazily (PEP 562): ``bmlandau.hyp1f1``, ``from
bmlandau import hyp1f1`` and ``import *`` load the module that defines a
name on first use, so each CLI verb loads only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "core": "CurrentBranch PhysParams QuantumNumbers SampledProfile",
        "ermakov": "EPCoefficients LinearPair ep_coefficients ermakov_invariant pinney_amplitude"
        " pinney_derivative pinney_residual pinney_sigma pinney_sigma_prime",
        "flux": "FluxContext bohm_energy_residual divergence_residual f_branch_flow first_integral_radicand"
        " flux_context_from_lambda nonlinpie_residual pi_theta_closed s_theta_closed"
        " theta_first_integral_quadrature theta_from_w uw_flow",
        "oracle": "IVPProblem ResidualReport fd_residual integrate_ivp quad_singular",
        "regular": "LocalBranchParams RegularisedLabels axial_regularised azimuthal_whittaker branch_assignment"
        " damped_axial_profile damped_radial_profile local_branch_params radial_regularised theta_local_branch",
        "sectors": "SectorFrequencies radial_basis radial_kappa_sq sector_frequencies trig_amplitude trig_pair",
        "specfun": "bessel_j hyp1f1 ln_gamma whittaker_m whittaker_mw whittaker_w",
        "spectrum": "SpectrumModel default_ordering_grid degeneracy_splitting energy ordering_flags"
        " spectral_ordering_check",
    }.items()
    for name in names.split()
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    # looked up in the defining module on every access and never cached
    # here, so a name rebound in its module is seen through the package too
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})

