"""Spectral factorization maps.

Connects positive definite spectra to their stable, minimum-phase (outer)
factors, each a StateSpaceSystem:

* ``right_outer_factor`` realizes W(z) = z C G(z), the outer factor of the
  density G* Lambda G induced by a stable factor parameter C;
* ``h_map`` computes that parameter from Lambda via the lag-weight Riccati
  equation, C = L^{-*} B* P with B*PB = L*L;
* ``h_inverse`` recovers Lambda as the range projection of C*C;
* ``left_outer_factor_from_additive`` factors Z + Z* = W W* for a stable Z
  with positive real part, via the additive-form Riccati equation.

The prior homotopy needs no factorization: the moment map is affine in the
density weight (see moment.CascadePoint).
"""

from __future__ import annotations

import numpy as np

from .matrixeq import solve_dare_appendix, solve_dare_lambda
from .statespace import (FactorParameter, StateSpaceSystem, _as_param,
                         _as_prior, _check_finite, _hermitize)

__all__ = [
    "right_outer_factor",
    "left_outer_factor_from_additive",
    "h_map",
    "h_inverse",
    "density_values",
]


def right_outer_factor(filterbank, C):
    """W(z) = z C G(z), realized as (A, B, CA, CB).

    W is square with invertible, lower-triangular W(inf) = CB and zero
    dynamics equal to the closed loop, hence outer whenever C lies in the
    stable factor set.
    """
    param = _as_param(filterbank, C)
    A, B = filterbank.A, filterbank.B
    return StateSpaceSystem(A, B, param.C @ A, param.CB)


def left_outer_factor_from_additive(F, Gm, H, J):
    """Outer W with W W* = Z + Z* for Z(z) = H (zI - F)^{-1} Gm + J.

    W(z) = H (zI - F)^{-1} (Gm + F P H*) L^{-*} + L with P the stabilizing
    Riccati solution and L L* the innovation block R + H P H*; the zeros of
    W are the eigenvalues of the closed loop.  Preconditions and failure
    modes are those of the additive-form Riccati solver (F Schur stable,
    Z + Z* > 0 on the circle, J + J* > 0); its record is
    solve_dare_appendix(F, Gm, H, J).
    """
    sol = solve_dare_appendix(F, Gm, H, J)
    # the solve admitted F, Gm and H; they are read here without a second
    # scan
    F, Gm, H = np.atleast_2d(F, Gm, H)
    M = Gm + F @ sol.P @ H.conj().T
    return StateSpaceSystem(F, np.linalg.solve(sol.L, M.conj().T).conj().T, H,
                            sol.L)


def _factor_parameter(filterbank, X, L):
    """The factor parameter C = L^{-*} B* X, for Hermitian X with B*XB = L*L
    (L lower triangular with positive diagonal).

    CB equals L^{-*} (B*XB) = L^{-*} L* L = L up to roundoff; the residual
    mismatch is replaced through B's pseudoinverse, a least-squares touch-up
    of size comparable to roundoff, so that CB is L, triangular to the last
    digit, and membership of the result is checked with strict tolerances
    at any scale of X.
    """
    B = filterbank.B
    C = np.linalg.solve(L.conj().T, B.conj().T @ X)
    pinvB = np.linalg.solve(B.conj().T @ B, B.conj().T)
    return FactorParameter(filterbank, C + (L - C @ B) @ pinvB)


def h_map(filterbank, Lam):
    """Stable factor parameter C with (z C G)(z C G)* = G* Lambda G.

    Solves the lag-weight Riccati equation for P, factors B*PB = L*L with L
    lower triangular and positive diagonal, and sets C = L^{-*} B* P, with
    CB snapped to L (see _factor_parameter).
    """
    sol = solve_dare_lambda(filterbank, Lam)
    return _factor_parameter(filterbank, sol.P, sol.L)


def h_inverse(chart, C):
    """Lambda with G* Lambda G = (z C G)(z C G)*: the range projection of C*C.

    ``chart`` is make_chart of the bank; ``C`` is a FactorParameter of it,
    or a matrix that FactorParameter accepts (else its ValueError or
    MembershipError).
    """
    Cm = _as_param(chart.filterbank, C).C
    return chart.project_range_gamma(Cm.conj().T @ Cm)


def density_values(filterbank, C, prior, theta):
    """The parametric spectral density on a grid of angles.

    Phi(theta) = psi(theta) * (W(e^{i theta})* W(e^{i theta}))^{-1} with
    W = z C G; returns shape (len(theta), m, m).  ``prior=None`` is the flat
    prior psi = 1; psi need not be even, and anything but a prior or None
    raises ValueError (statespace._as_prior).  A non-finite angle raises
    ValueError naming theta before any solve.
    """
    theta = _check_finite(np.asarray(theta, dtype=float).ravel(), "theta")
    Wv = right_outer_factor(filterbank, C).eval_grid(np.exp(1j * theta))
    Mv = Wv.conj().transpose(0, 2, 1) @ Wv
    psi = _as_prior(prior).psi_values(theta)
    return _hermitize(np.linalg.inv(Mv) * psi[:, None, None])
