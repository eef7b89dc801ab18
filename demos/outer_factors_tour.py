"""Riccati equations and outer spectral factors.
=================================================

The factorization layer turns admissible weights into stable factor
parameters and back.  This script walks through the lag-weight Riccati
equation, the h map and its inverse, and the additive-form factorization
used for rational priors.
"""

import numpy as np

from spectral_homotopy import (
    density_values,
    h_inverse,
    h_map,
    is_in_Lplus,
    left_outer_factor_from_additive,
    make_chart,
    make_covariance_extension_filter,
    right_outer_factor,
    solve_dare_appendix,
    solve_dare_lambda,
    solve_dlyap,
)

np.set_printoptions(precision=4, suppress=True)

fb = make_covariance_extension_filter(2, 1)
chart = make_chart(fb)
theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
zs = np.exp(1j * theta)


# %% the lag-weight Riccati equation at a point with a closed form

# Lambda = B B^T makes the weight G* Lambda G = I on the circle, and the
# stabilizing solution can be written down: P = B B^T, L = I
Lam = fb.B @ fb.B.T
sol = solve_dare_lambda(fb, Lam)
print("Lambda = B B^T:")
print("  P =\n", sol.P)
print("  L =\n", sol.L)
print("  closed-loop eigenvalues:", np.linalg.eigvals(sol.closed_loop))
print("  residual:", sol.residual_norm, " doubling iterations:",
      sol.iterations)
assert np.allclose(sol.P, Lam)
assert np.allclose(sol.L, np.eye(2))


# %% h maps a weight to the factor parameter of its density

param = h_map(fb, Lam)
print("\nh(B B^T) =\n", param.C)
print("CB =\n", param.CB)

# the defining identity: (z C G)(z C G)* equals G* Lambda G on the circle
W = right_outer_factor(fb, param)
Wv = W.eval_grid(zs)
Gv = fb.eval_grid(zs)
lhs = Wv.conj().transpose(0, 2, 1) @ Wv
rhs = Gv.conj().transpose(0, 2, 1) @ Lam @ Gv
print("max factorization defect on the circle:",
      float(np.max(np.abs(lhs - rhs))))


# %% h on a weight that is not positive semidefinite

# admissibility only constrains G* Lambda G; the factorization goes through
Lam2 = np.eye(4)
Lam2[0, 0] = -0.5
assert is_in_Lplus(fb, Lam2).member
param2 = h_map(fb, Lam2)
Wv = right_outer_factor(fb, param2).eval_grid(zs)
lhs = Wv.conj().transpose(0, 2, 1) @ Wv
rhs = Gv.conj().transpose(0, 2, 1) @ Lam2 @ Gv
print("\nindefinite weight, factorization defect:",
      float(np.max(np.abs(lhs - rhs))))


# %% h_inverse returns the representative inside the chart's range space

Lam_back = h_inverse(chart, param2)
print("h_inverse(h(Lambda)) =\n", Lam_back)

# the matrix differs from Lam2: many weights induce the same function
# G* Lambda G, and the inverse picks the unique one the chart represents
print("matrix difference:", float(np.max(np.abs(Lam_back - Lam2))))
back = Gv.conj().transpose(0, 2, 1) @ Lam_back @ Gv
print("circle-function difference:", float(np.max(np.abs(back - rhs))))

# round trips through the canonical representative are exact
param3 = h_map(fb, Lam_back)
print("factor-side round trip error:",
      float(np.max(np.abs(param3.C - param2.C))))


# %% additive-form factorization: W W* = Z + Z*

# build a Z whose Hermitian part is a perfect square by construction:
# feed white noise through a stable system S and read off the positive
# real part of its power spectrum
rng = np.random.default_rng(7)
n, p = 3, 2
A = rng.standard_normal((n, n))
A *= 0.6 / np.max(np.abs(np.linalg.eigvals(A)))
B = rng.standard_normal((n, p))
C = rng.standard_normal((p, n))
D = rng.standard_normal((p, p)) + 2.0 * np.eye(p)

Pc = solve_dlyap(A, B @ B.T)
G = A @ Pc @ C.T + B @ D.T
J = 0.5 * (C @ Pc @ C.T + D @ D.T)

factor = left_outer_factor_from_additive(A, G, C, J)
sol = solve_dare_appendix(A, G, C, J)
print("\nadditive factorization: Riccati residual =", sol.residual_norm,
      " doubling iterations:", sol.iterations)

from spectral_homotopy import StateSpaceSystem

Zv = StateSpaceSystem(A, G, C, J).eval_grid(zs)
Wv = factor.eval_grid(zs)
herm = Zv + Zv.conj().transpose(0, 2, 1)
sq = Wv @ Wv.conj().transpose(0, 2, 1)
print("max |W W* - (Z + Z*)| on the circle:",
      float(np.max(np.abs(sq - herm))))

# outer means the factor and its inverse are both stable
wzeros = np.linalg.eigvals(
    factor.A - factor.B @ np.linalg.solve(factor.D, factor.C))
print("factor zeros (must stay in the closed disc):", np.abs(wzeros))


# %% the density behind all of this

from spectral_homotopy import constant_prior

phi = density_values(fb, param2, constant_prior(1.0), theta)
direct = np.linalg.inv(rhs)
print("\ndensity vs inverted weight, max error:",
      float(np.max(np.abs(phi - 0.5 * (direct + direct.conj().transpose(0, 2, 1))))))
