"""Numerical detection of zeta cycles.

Scale-invariant summation operators on test functions, Fourier analysis on
circles of varying perimeter, a scan that locates the perimeters whose
detection matrix collapses, and the spectral layers built on top: the
quotient Laplacian over the located zeros and the jet calculus of global
sections.
"""

from .cycles import (
    CycleReport,
    Dip,
    ScanResult,
    covering_stability,
    detect,
    scan,
)
from .laplacian import (
    QuotientEigenvalue,
    delta_eigenvalue,
    delta_on_test_function,
    quotient_spectrum,
    rh_predicate,
)
from .operators import (
    CircleFunction,
    covering_sigma,
    eval_E,
    fourier_closed,
    fourier_direct,
    scaling_theta,
    trace_identity_check,
)
from .schwartz import (
    TestFunction,
    apply_H,
    apply_one_plus_H,
    canonical_vector,
    default_family,
    gaussian_seed,
    make_test_function,
    mellin_psi,
)
from .sheaf import (
    GlobalSection,
    IdealGenerator,
    gamma_inverse,
    ideal_membership,
    jordan_structure,
    quotient_jets,
    theta_on_sections,
)
from .specfun import (
    EvalConfig,
    ZetaZero,
    find_zeros,
    riemann_siegel_Z,
    siegel_theta,
    zeta_critical,
    zeta_jet,
)

__version__ = "0.1.0"

__all__ = [
    "CircleFunction",
    "CycleReport",
    "Dip",
    "EvalConfig",
    "GlobalSection",
    "IdealGenerator",
    "QuotientEigenvalue",
    "ScanResult",
    "TestFunction",
    "ZetaZero",
    "apply_H",
    "apply_one_plus_H",
    "canonical_vector",
    "covering_sigma",
    "covering_stability",
    "default_family",
    "delta_eigenvalue",
    "delta_on_test_function",
    "detect",
    "eval_E",
    "find_zeros",
    "fourier_closed",
    "fourier_direct",
    "gamma_inverse",
    "gaussian_seed",
    "ideal_membership",
    "jordan_structure",
    "make_test_function",
    "mellin_psi",
    "quotient_jets",
    "quotient_spectrum",
    "rh_predicate",
    "riemann_siegel_Z",
    "scaling_theta",
    "scan",
    "siegel_theta",
    "theta_on_sections",
    "trace_identity_check",
    "zeta_critical",
    "zeta_jet",
]
