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
from .extrapolation import LimitTable
from .fields import (
    AnnulusPotential,
    Constant,
    CutoffBump,
    FundamentalProfile,
    GaugeH,
    GaugePsi,
    LinearCombination,
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
    p_laplacian_divergence_form,
)
from .jets import Jet2, coordinate_jets
from .montecarlo import (
    BallSpec,
    MCEstimate,
    ball_measure,
    ball_spec,
    density_limit,
    sample_points,
    shell_integral,
    shell_integral_extrapolated,
    sigma_p,
)
from .space import (
    Exponents,
    GaugeValues,
    SpaceParams,
    c1_constant,
    c2_constant,
    dilate,
    exponents,
    gauge,
    gauge_regularized,
    is_base_point,
    is_log_case,
    normalization,
    sigma_p_exact,
)
from .weakform import dirac_limit, weak_pairing

__all__ = [name for name in dir() if not name.startswith("_")]
