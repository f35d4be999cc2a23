"""Bohm-Madelung amplitude and flux analysis of the Landau problem.

A charged particle in a uniform magnetic field, written in amplitude and
phase variables: Ermakov-Pinney machinery for the zero-current sectors,
sectorial-current first integrals and the azimuthal momentum flow,
canonical shell regularisation with its Langer-shifted spectrum, and an
independent ODE/quadrature oracle used to verify every closed form.
"""

from .core import PhysParams, QuantumNumbers, SampledProfile
from .ermakov import (
    EPCoefficients,
    LinearPair,
    ep_coefficients,
    ermakov_invariant,
    pinney_amplitude,
    pinney_derivative,
    pinney_residual,
    pinney_sigma,
    pinney_sigma_prime,
)
from .flux import (
    CurrentBranch,
    FluxContext,
    bohm_energy_residual,
    divergence_residual,
    f_branch_flow,
    first_integral_radicand,
    flux_context_from_lambda,
    nonlinpie_residual,
    pi_theta_closed,
    s_theta_closed,
    theta_first_integral_quadrature,
    theta_from_w,
    uw_flow,
)
from .oracle import (
    IVPProblem,
    ResidualReport,
    fd_residual,
    integrate_ivp,
    quad_singular,
)
from .regular import (
    LocalBranchParams,
    RegularisedLabels,
    axial_regularised,
    azimuthal_whittaker,
    branch_assignment,
    damped_axial_profile,
    damped_radial_profile,
    local_branch_params,
    radial_regularised,
    theta_local_branch,
)
from .sectors import (
    SectorFrequencies,
    radial_basis,
    radial_kappa_sq,
    sector_frequencies,
    trig_amplitude,
    trig_pair,
)
from .specfun import bessel_j, hyp1f1, ln_gamma, whittaker_m, whittaker_mw, whittaker_w
from .spectrum import (
    SpectrumModel,
    default_ordering_grid,
    degeneracy_splitting,
    energy,
    ordering_flags,
    spectral_ordering_check,
)

__version__ = "0.1.0"
