"""One non-finite policy for every matrix a caller hands the package.

Each entry point below raises ValueError "<name> has non-finite entries"
for a NaN or an infinite entry in any of its array arguments, before any
factorization, solve or eigenvalue, so numpy neither warns nor returns a
NaN result first.
"""

import re
import warnings

import numpy as np
import pytest

from spectral_homotopy import (GridPoint, f_jacobian_from_g,
                               jacobian_condition_number,
                               left_outer_factor_from_additive,
                               reverse_cholesky, solve_dare_appendix,
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
