"""One non-finite policy for every matrix a caller hands the package.

Each entry point below raises ValueError "<name> has non-finite entries"
for a NaN or an infinite entry in any of its array arguments, before any
factorization, solve or eigenvalue, so numpy neither warns nor returns a
NaN result first.  A weight, Jacobian or covariance of the wrong size or
symmetry, and a prior that is not one, are named the same way.
"""

import re
import warnings

import numpy as np
import pytest

from spectral_homotopy import (GridPoint, HomotopyConfig, condition_numbers,
                               corrector_newton, density_values,
                               f_jacobian_from_g, jacobian_condition_number,
                               left_outer_factor_from_additive,
                               maxent_initialization, reverse_cholesky,
                               run_continuation, solve_dare_appendix,
                               solve_dlyap, standard_cholesky)

# a scalar Z = H (z - F)^{-1} G + J with Z + Z* > 0 on the circle
ADDITIVE = {"F": 0.5, "G": 1.0, "H": 0.5, "J": 2.0}


def _additive(solver, which):
    def call(ctx, X):
        data = {k: np.array([[v]]) for k, v in ADDITIVE.items()}
        data[which] = X
        return solver(*(data[k] for k in "FGHJ"))
    return call


# (name of the spoiled argument, a clean value of it, the call)
CASES = {
    "standard_cholesky": ("M", np.eye(2),
                          lambda ctx, X: standard_cholesky(X)),
    "reverse_cholesky": ("M", np.eye(2), lambda ctx, X: reverse_cholesky(X)),
    "solve_dlyap-A1": ("A1", 0.5 * np.eye(2),
                       lambda ctx, X: solve_dlyap(X, np.eye(2))),
    "solve_dlyap-Q": ("Q", np.eye(2),
                      lambda ctx, X: solve_dlyap(0.5 * np.eye(2), X)),
    "solve_dlyap-Q-stack": ("Q", np.array([np.eye(2), np.eye(2)]),
                            lambda ctx, X: solve_dlyap(0.5 * np.eye(2), X)),
    **{f"solve_dare_appendix-{k}": (k, np.array([[v]]),
                                    _additive(solve_dare_appendix, k))
       for k, v in ADDITIVE.items()},
    **{f"left_outer_factor_from_additive-{k}": (
        k, np.array([[v]]), _additive(left_outer_factor_from_additive, k))
       for k, v in ADDITIVE.items()},
    "GridPoint-f": ("Lambda", np.eye(4), lambda ctx, X: GridPoint(
        ctx["fb"], None, X, which="f")),
    "jacobian_condition_number-f": (
        "Lambda", np.eye(4), lambda ctx, X: jacobian_condition_number(
            ctx["chart"], None, X, which="f", route="quadrature")),
    # J_g is M x M, M = 7 on covext(2, 1)
    "f_jacobian_from_g": ("J_g", np.eye(7), lambda ctx, X: (
        f_jacobian_from_g(ctx["chart"], ctx["param"], X))),
    # the flat-prior corrector at t = 1, from the maximum-entropy solution
    # of the white-noise covariance I: 0 iterations on the clean Sigma
    "corrector_newton": ("Sigma", np.eye(4), lambda ctx, X: corrector_newton(
        ctx["chart"], None, 1.0, maxent_initialization(ctx["fb"], np.eye(4)),
        X, HomotopyConfig())),
    "density_values": ("theta", np.zeros(3), lambda ctx, X: density_values(
        ctx["fb"], ctx["param"], None, X)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_is_a_value_error_naming_it(case, bad, fb, chart,
                                                     param_ref):
    name, clean, call = CASES[case]
    X = np.array(clean, dtype=float)
    # the last entry: a diagonal one, so Hermitian data stays Hermitian
    X.flat[-1] = bad
    ctx = {"fb": fb, "chart": chart, "param": param_ref}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(name)} has "
                                             "non-finite entries$"):
            call(ctx, X)


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_clean_input_passes(case, fb, chart, param_ref):
    # the spoiled entry alone makes each case above fail
    name, clean, call = CASES[case]
    ctx = {"fb": fb, "chart": chart, "param": param_ref}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(ctx, np.array(clean, dtype=float))


def _defect(X):
    X = X.copy()
    X[0, 1] += 1e-3
    return X


# a weight, Jacobian or covariance numpy would take, or misread, is named by
# its gate: Lambda by the one is_in_Lplus uses, J_g by its size M = 7, Sigma
# by the bank's n = 4
@pytest.mark.parametrize("case, X, message", [
    ("GridPoint-f", np.eye(3), "Lambda must be 4x4, got (3, 3)"),
    ("f_jacobian_from_g", np.eye(3), "J_g must be 7x7, got (3, 3)"),
    ("jacobian_condition_number-f", _defect(np.eye(4)),
     "Lambda is not Hermitian (defect 1.000e-03)"),
    ("corrector_newton", np.eye(3), "Sigma must be 4x4, got (3, 3)")])
def test_a_misshapen_weight_or_jacobian_is_named(case, X, message, fb, chart,
                                                 param_ref):
    call = CASES[case][2]
    ctx = {"fb": fb, "chart": chart, "param": param_ref}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(ctx, X)


# every entry point that takes a prior admits it through one gate
PRIOR_CALLS = {
    "run_continuation": lambda fb, chart, param, prior: run_continuation(
        fb, prior, np.eye(4)),
    "condition_numbers": lambda fb, chart, param, prior: condition_numbers(
        chart, prior, param),
    "GridPoint": lambda fb, chart, param, prior: GridPoint(
        fb, prior, param),
    "corrector_newton": lambda fb, chart, param, prior: corrector_newton(
        chart, prior, 0.5, param, np.eye(4), HomotopyConfig()),
    "density_values": lambda fb, chart, param, prior: density_values(
        fb, param, prior, np.zeros(1)),
}


@pytest.mark.parametrize("prior, kind", [
    ([1.0, -1.0, 0.89], "list"), (2.0, "float")])
@pytest.mark.parametrize("call", sorted(PRIOR_CALLS))
def test_a_non_prior_is_a_value_error_naming_it(call, prior, kind, fb, chart,
                                                param_ref):
    with pytest.raises(ValueError, match=f"^prior must be a PriorSpectrum or "
                                         f"None, got {kind}$"):
        PRIOR_CALLS[call](fb, chart, param_ref, prior)
