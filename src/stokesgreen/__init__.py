"""Approximated Green functions for stationary Stokes systems with
variable coefficients under conormal boundary conditions."""

__version__ = "0.1.0"

from .coefficients import (  # noqa: F401
    CoefficientField,
    Frame,
    adjoint_field,
    checkerboard,
    constant_identity,
    partial_oscillation,
    piecewise_in_direction,
    validate_ellipticity,
)
from .domain import (  # noqa: F401
    BallQuery,
    VoxelDomain,
    ball_volume,
    build_box,
    build_l_shape,
    build_voxel_ball,
    dist_to_boundary,
    exterior_density,
)
from .green import (  # noqa: F401
    GreenApprox,
    averaging_identity_check,
    compute_adjoint_green,
    compute_green,
    epsilon_convergence,
    mollified_rhs,
    representation_check,
    symmetry_check,
)
from .system import (  # noqa: F401
    ConormalOperator,
    Field,
    SaddleSystem,
    SolveReport,
    assemble,
    poincare_constant,
    shared_operator,
    solve_conormal,
    solve_divergence,
)
