"""Gauge calculus, p-Laplace operators, measures and capacities for a family
of Hörmander vector fields on R^(2n+1)."""

__version__ = "0.1.0"

from .capacity import (
    CapacityResult,
    RadialProfile,
    annulus_capacity,
    closed_form_capacity,
    mc_energy,
    minimize_radial,
    radial_energy,
)
from .errors import (
    ArithmeticDomainError,
    ConfigurationError,
    DegeneratePointError,
    DomainError,
    SingularPointError,
)
from .fields import (
    AnnulusPotential,
    Constant,
    CutoffBump,
    FundamentalProfile,
    GaugeH,
    GaugePsi,
    Polynomial,
    ScalarField,
)
from .frame import (
    bracket_comparison,
    frame_matrix,
    horizontal_gradient,
    horizontal_hessian_sym,
    infinity_laplacian,
    lie_bracket,
    lie_bracket_printed,
    p_laplacian,
)
from .jets import Jet2
from .montecarlo import (
    MCEstimate,
    ball_measure,
    density_limit,
    sample_points,
    sigma_p,
)
from .space import (
    Exponents,
    SpaceParams,
    dilate,
    exponents,
    is_log_case,
    normalization,
    sigma_p_exact,
)
from .weakform import dirac_limit, weak_pairing

__all__ = [name for name in dir() if not name.startswith("_")]
