"""Bipolar Lawson surfaces and their extremal Laplace eigenvalues.

Construct the bipolar surface of a Lawson torus or Klein bottle, compute
its profile functions through elliptic closed forms and direct
integration, solve the associated Hill equation's periodic spectrum by
Hill's method, and verify the extremal-rank, multiplicity, isometry, and
area identities, with the Floquet discriminant as a cross-check.
"""

from .special_functions import (
    DomainError,
    EllipticModulus,
    PoleProximityError,
    complete_E,
    complete_K,
    jacobi_am,
    jacobi_sncndn,
    weierstrass_p,
)
from .surface_model import (
    InvalidParametersError,
    ParityClass,
    SurfaceParams,
    Topology,
    admissible_pairs,
    area_closed_form,
    bipolar_immersion,
    derive_params,
    period_a,
)
from .phi_system import (
    PhiProfile,
    closed_form_theta,
    closed_form_weierstrass,
    first_integrals,
    initial_state,
    integrate_system,
)
from .hill_spectrum import (
    ExtremalReport,
    Parity,
    SpectralLine,
    SpectrumMismatchError,
    extremal_rank,
    floquet,
)
from .verification import CheckResult, FullReport, full_report

__version__ = "0.1.0"
