"""Parametric spectral estimation from state covariances.

A bank of stable filters G(z) = (zI - A)^{-1} B driven by a wide-sense
stationary process ties the input power spectrum Phi to the state covariance
Sigma through Sigma = integral of G Phi G* on the unit circle.  This package
estimates Phi within the family psi / (Gamma* Gamma), where psi is a scalar
prior density and Gamma = C G is an outer factor, by following a homotopy in
the prior from the closed-form flat-prior solution to the requested one.

Layering, bottom up.  Each module imports, at module level only, from
``errors`` and from the modules listed before it:

- ``statespace``: systems, filter banks, priors (each admitted by one check
  that its factor sigma is outer), membership of the stable factor set,
  and one batched resolvent behind every transfer evaluation.
- ``matrixeq``: Stein/Lyapunov and Riccati solvers (by doubling), the exact
  positivity test on the unit circle with the weight membership test
  ``is_in_Lplus`` built on it, and triangular factorizations.
- ``factorization``: spectral factorization maps between covariance-side and
  factor-side parameters (one construction of C, shared with the
  maximum-entropy start), outer factors as state-space systems.
- ``moment``: the two moment maps and their derivatives, coordinate charts,
  Jacobians (the weight-side one by the chain rule), condition numbers.  The
  exact route for g is one ``CascadePoint`` per parameter: its value,
  drift, derivatives, Jacobian and verified direction solve.  The tests'
  independent oracle is one ``GridPoint`` per point, with the same
  interface, by quadrature of f or g.
- ``continuation``: maximum-entropy start, predictor/corrector path
  following, CSV/JSON serialization.
- ``cli``: ``spectral-homotopy`` command-line entry points.
"""

from .errors import (ConfigError, EvaluationError, FactorizationError,
                     MembershipError, SolverError, SpectralHomotopyError)
from .statespace import (CplusDiagnostics, FactorParameter, FilterBank,
                         PriorSpectrum, StateSpaceSystem, circle_grid,
                         coerce_field, constant_prior, grid_size_from_spacing,
                         is_in_Cplus, make_covariance_extension_filter,
                         matrix_from_json, matrix_to_json, prior_from_outer,
                         prior_from_polynomial)
from .matrixeq import (DareSolution, LplusDiagnostics, is_in_Lplus,
                       reverse_cholesky, solve_dare_appendix,
                       solve_dare_lambda, solve_dlyap, standard_cholesky)
from .factorization import (density_values, h_inverse, h_map,
                            left_outer_factor_from_additive,
                            right_outer_factor)
from .moment import (CascadePoint, CoordinateChart, GridPoint,
                     JacobianSolveInfo, build_factor_basis,
                     build_range_gamma_basis, condition_numbers,
                     f_jacobian_from_g, jacobian_condition_number,
                     make_chart, moment_g_statespace, trace_inner)
from .continuation import (HomotopyConfig, PathSample, SolutionPath,
                           corrector_newton, maxent_initialization,
                           run_continuation, write_path_csv, write_path_json)

__version__ = "0.1.0"

__all__ = [
    "SpectralHomotopyError", "EvaluationError", "MembershipError",
    "FactorizationError", "SolverError", "ConfigError",
    "StateSpaceSystem", "FilterBank", "PriorSpectrum", "FactorParameter",
    "CplusDiagnostics", "LplusDiagnostics",
    "make_covariance_extension_filter", "constant_prior",
    "prior_from_polynomial", "prior_from_outer", "is_in_Cplus", "is_in_Lplus",
    "circle_grid", "grid_size_from_spacing", "coerce_field",
    "matrix_to_json", "matrix_from_json",
    "DareSolution", "solve_dlyap", "solve_dare_appendix", "solve_dare_lambda",
    "standard_cholesky", "reverse_cholesky",
    "right_outer_factor", "left_outer_factor_from_additive",
    "h_map", "h_inverse", "density_values",
    "trace_inner", "moment_g_statespace",
    "build_range_gamma_basis", "build_factor_basis", "CoordinateChart",
    "make_chart", "CascadePoint", "GridPoint", "JacobianSolveInfo",
    "jacobian_condition_number",
    "f_jacobian_from_g", "condition_numbers",
    "HomotopyConfig", "PathSample", "SolutionPath", "maxent_initialization",
    "corrector_newton", "run_continuation",
    "write_path_csv", "write_path_json",
    "__version__",
]
