"""Approximated Green functions for stationary Stokes systems with
variable coefficients under conormal boundary conditions.

The names below load their submodule on first use, so ``import
stokesgreen`` loads neither numpy nor scipy and ``python -m stokesgreen``
can set the BLAS thread count before they load.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coefficients": ("CoefficientField", "Frame", "adjoint_field", "checkerboard",
                     "constant_identity", "partial_oscillation", "piecewise_in_direction",
                     "validate_ellipticity"),
    "domain": ("BallQuery", "VoxelDomain", "ball_volume", "build_box", "build_l_shape",
               "build_voxel_ball", "dist_to_boundary", "exterior_density"),
    "green": ("GreenApprox", "averaging_identity_check", "compute_adjoint_green",
              "compute_green", "epsilon_convergence", "mollified_rhs", "representation_check",
              "symmetry_check"),
    "system": ("ConormalOperator", "Field", "SaddleSystem", "SolveReport", "assemble",
               "poincare_constant", "shared_operator", "solve_conormal", "solve_divergence"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
