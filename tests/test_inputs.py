"""One non-finite policy for every matrix a caller hands the package.

Each entry point below raises ValueError "<name> has non-finite entries"
for a NaN or an infinite entry in any of its array arguments, before any
factorization, solve or eigenvalue, so numpy neither warns nor returns a
NaN result first.  A weight, Jacobian or covariance of the wrong size or
symmetry, and a prior that is not one, are named the same way, and each
is scanned once per call, by its one gate.
"""

import re
import warnings

import numpy as np
import pytest

from spectral_homotopy import (GridPoint, HomotopyConfig, cli,
                               condition_numbers, continuation,
                               corrector_newton, density_values,
                               f_jacobian_from_g, factorization, h_map,
                               is_in_Lplus, jacobian_condition_number,
                               left_outer_factor_from_additive, matrixeq,
                               maxent_initialization, moment,
                               reverse_cholesky, run_continuation,
                               solve_dare_appendix, solve_dare_lambda,
                               solve_dlyap, standard_cholesky, statespace)

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
    # G* I G > 0 on the circle for covext(2, 1)
    "is_in_Lplus": ("Lambda", np.eye(4),
                    lambda ctx, X: is_in_Lplus(ctx["fb"], X)),
    "solve_dare_lambda": ("Lambda", np.eye(4),
                          lambda ctx, X: solve_dare_lambda(ctx["fb"], X)),
    "h_map": ("Lambda", np.eye(4), lambda ctx, X: h_map(ctx["fb"], X)),
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
        ctx["chart"], None, 1.0, ctx["maxent"], X, HomotopyConfig())),
    "density_values": ("theta", np.zeros(3), lambda ctx, X: density_values(
        ctx["fb"], ctx["param"], None, X)),
}


@pytest.fixture
def ctx(fb, chart, param_ref):
    return {"fb": fb, "chart": chart, "param": param_ref,
            "maxent": maxent_initialization(fb, np.eye(4))}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_is_a_value_error_naming_it(case, bad, ctx):
    name, clean, call = CASES[case]
    X = np.array(clean, dtype=float)
    # the last entry: a diagonal one, so Hermitian data stays Hermitian
    X.flat[-1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(name)} has "
                                             "non-finite entries$"):
            call(ctx, X)


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_clean_input_passes(case, ctx):
    # the spoiled entry alone makes each case above fail
    name, clean, call = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(ctx, np.array(clean, dtype=float))


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_input_is_scanned_once(case, ctx, monkeypatch):
    # one gate admits each input, so the finiteness scan sees its name once
    # per call, however many layers the input passes through
    name, clean, call = CASES[case]
    scan, seen = statespace._check_finite, []

    def recording(x, what):
        seen.append(what)
        return scan(x, what)

    for layer in (statespace, matrixeq, factorization, moment, continuation,
                  cli):
        if getattr(layer, "_check_finite", None) is scan:
            monkeypatch.setattr(layer, "_check_finite", recording)
    call(ctx, np.array(clean, dtype=float))
    assert name in seen and len(set(seen)) == len(seen), seen


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
    ("corrector_newton", np.eye(3), "Sigma must be 4x4, got (3, 3)"),
    # every Hermitian input, a matrix or a stack, is sized by its one gate
    # in the same template: a stack handed to a Cholesky factorization is
    # named, not factored slice by slice
    ("standard_cholesky", np.array([np.eye(2), np.diag([1.0, -1.0])]),
     "M must be nxn, got (2, 2, 2)"),
    ("reverse_cholesky", np.ones((2, 3)), "M must be nxn, got (2, 3)"),
    ("solve_dlyap-Q", np.zeros((3, 2)), "Q must be 2x2 or kx2x2, got (3, 2)"),
    ("solve_dlyap-Q-stack", np.zeros((2, 3, 3)),
     "Q must be 2x2 or kx2x2, got (2, 3, 3)"),
    ("is_in_Lplus", np.eye(3), "Lambda must be 4x4, got (3, 3)"),
    ("solve_dare_lambda", np.eye(4)[None],
     "Lambda must be 4x4, got (1, 4, 4)"),
    ("h_map", np.ones((4, 3)), "Lambda must be 4x4, got (4, 3)"),
    ("GridPoint-f", np.array([np.eye(4)] * 2),
     "Lambda must be 4x4, got (2, 4, 4)"),
    ("jacobian_condition_number-f", np.eye(5),
     "Lambda must be 4x4, got (5, 5)")])
def test_a_misshapen_weight_or_jacobian_is_named(case, X, message, ctx):
    call = CASES[case][2]
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
