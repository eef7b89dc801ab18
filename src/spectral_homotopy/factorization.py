"""Spectral factorization maps.

Connects positive definite spectra to their stable, minimum-phase (outer)
factors:

* ``right_outer_factor`` realizes W(z) = z C G(z), the outer factor of the
  density G* Lambda G induced by a stable factor parameter C;
* ``h_map`` computes that parameter from Lambda via the lag-weight Riccati
  equation, C = L^{-*} B* P with B*PB = L*L;
* ``h_inverse`` recovers Lambda as the range projection of C*C;
* ``left_outer_factor`` factors Z + Z* = W W* for a stable Z with positive
  real part, via the additive-form Riccati equation.

The prior homotopy needs no factorization: the moment map is affine in the
density weight (see moment._StatespacePoint).
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .matrixeq import solve_dare_appendix, solve_dare_lambda
from .statespace import FactorParameter, StateSpaceSystem, coerce_field

__all__ = [
    "OuterFactor",
    "right_outer_factor",
    "left_outer_factor_from_additive",
    "h_map",
    "h_inverse",
    "density_values",
]


@dataclass(frozen=True)
class OuterFactor:
    """A stable square factor with all its zeros inside the unit disk.

    kind "right" factors a density as W*W (the factor z C G of the induced
    density G* Lambda G); kind "left" factors an additive decomposition
    Z + Z* as W W*.
    """

    system: StateSpaceSystem
    kind: str

    def __post_init__(self):
        if self.kind not in ("right", "left"):
            raise ValueError(f"kind must be 'right' or 'left', got {self.kind!r}")
        if self.system.n_inputs != self.system.n_outputs:
            raise ValueError("outer factors are square")

    def eval(self, z):
        return self.system.eval(z)

    def eval_grid(self, z):
        return self.system.eval_grid(z)


def right_outer_factor(filterbank, C):
    """W(z) = z C G(z), realized as (A, B, CA, CB).

    W is square with invertible, lower-triangular W(inf) = CB and zero
    dynamics equal to the closed loop, hence outer whenever C lies in the
    stable factor set.
    """
    param = C if isinstance(C, FactorParameter) else FactorParameter(filterbank, C)
    A, B = filterbank.A, filterbank.B
    return OuterFactor(StateSpaceSystem(A, B, param.C @ A, param.CB), "right")


def _left_outer_system(Z):
    """State-space outer W with W W* = Z + Z*, plus the Riccati record.

    W(z) = H (zI - F)^{-1} (G + F P H*) L^{-*} + L with L L* the innovation
    block R + H P H*; the zeros of W are the eigenvalues of the closed loop.
    """
    if Z.n_inputs != Z.n_outputs:
        raise ValueError("Z must be square")
    sol = solve_dare_appendix(Z.A, Z.B, Z.C, Z.D)
    F, G, H = Z.A, Z.B, Z.C
    L = sol.L
    if Z.n_states:
        M = G + F @ sol.P @ H.conj().T
        Bw = np.linalg.solve(L, M.conj().T).conj().T
    else:
        Bw = np.zeros((0, L.shape[0]), dtype=L.dtype)
    W = StateSpaceSystem(F, Bw, H, L)
    return W, sol


def left_outer_factor_from_additive(F, Gm, H, J, details=False):
    """Outer W with W W* = Z + Z* for Z(z) = H (zI - F)^{-1} Gm + J.

    Preconditions and failure modes are those of the additive-form Riccati
    solver (F Schur stable, Z + Z* > 0 on the circle, J + J* > 0).  Returns
    the OuterFactor, or ``(factor, sol)`` when ``details`` is set.
    """
    Z = StateSpaceSystem(F, Gm, H, J)
    W, sol = _left_outer_system(Z)
    factor = OuterFactor(W, "left")
    if details:
        return factor, sol
    return factor


def h_map(filterbank, Lam, details=False):
    """Stable factor parameter C with (z C G)(z C G)* = G* Lambda G.

    Solves the lag-weight Riccati equation for P, factors B*PB = L*L with L
    lower triangular and positive diagonal, and sets C = L^{-*} B* P.  The
    product CB is snapped to the computed L exactly (the correction is a
    least-squares touch-up of size comparable to roundoff), so membership of
    the result is checked with strict tolerances.

    Returns the FactorParameter, or ``(param, sol)`` when ``details`` is set.
    """
    sol = solve_dare_lambda(filterbank, Lam)
    B = filterbank.B
    P, L = sol.P, sol.L
    C = np.linalg.solve(L.conj().T, B.conj().T @ P)
    # CB equals L^{-*} (B*PB) = L^{-*} L* L = L up to roundoff; replace the
    # residual mismatch through the pseudoinverse so the triangular structure
    # is exact.
    CB = C @ B
    pinvB = np.linalg.solve(B.conj().T @ B, B.conj().T)
    C = C + (L - CB) @ pinvB
    C = coerce_field(C, filterbank.field, what="factor parameter C")
    param = FactorParameter(filterbank, C)
    if details:
        return param, sol
    return param


def h_inverse(chart, C):
    """Lambda with G* Lambda G = (z C G)(z C G)*: the range projection of C*C.

    ``chart`` must expose ``project_range_gamma``;  ``C`` may be a raw matrix
    or a FactorParameter.
    """
    Cm = C.C if isinstance(C, FactorParameter) else np.atleast_2d(np.asarray(C))
    return chart.project_range_gamma(Cm.conj().T @ Cm)


def density_values(filterbank, C, prior, theta):
    """The parametric spectral density on a grid of angles.

    Phi(theta) = psi(theta) * (W(e^{i theta})* W(e^{i theta}))^{-1} with
    W = z C G; returns shape (len(theta), m, m).
    """
    param = C if isinstance(C, FactorParameter) else FactorParameter(filterbank, C)
    theta = np.asarray(theta, dtype=float).ravel()
    W = right_outer_factor(filterbank, param).system
    Wv = W.eval_grid(np.exp(1j * theta))
    Mv = Wv.conj().transpose(0, 2, 1) @ Wv
    psi = prior.psi_values(theta)
    out = np.linalg.inv(Mv) * psi[:, None, None]
    return 0.5 * (out + out.conj().transpose(0, 2, 1))
