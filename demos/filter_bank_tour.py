"""Filter banks, priors, and the two membership sets.
=====================================================

A tour of the building blocks: the covariance-extension filter bank, the
three kinds of prior spectra, and the admissibility checks for weight
matrices and factor parameters.
"""

import numpy as np

from spectral_homotopy import (
    StateSpaceSystem,
    constant_prior,
    density_values,
    is_in_Cplus,
    is_in_Lplus,
    make_covariance_extension_filter,
    prior_from_outer,
    prior_from_polynomial,
)

np.set_printoptions(precision=4, suppress=True)


# %% the covariance-extension filter bank

# two output channels, one extra covariance lag: four states
fb = make_covariance_extension_filter(2, 1)
print("state dimension n =", fb.n, " channels m =", fb.m)
print("A =\n", fb.A)
print("B =\n", fb.B)

# A is a block shift: nilpotent, so every eigenvalue sits at the origin
print("eigenvalues of A:", np.linalg.eigvals(fb.A))
assert np.allclose(np.linalg.matrix_power(fb.A, 2), 0.0)


# %% structure of G(z) = (zI - A)^{-1} B

G1 = fb.eval(1.0)
Gm1 = fb.eval(-1.0)
print("G(1) =\n", G1)
print("G(-1) =\n", Gm1)

# the bottom block of G is the pure delay z^{-1} I, for any z on the circle
for z in [1.0, -1.0, np.exp(0.7j)]:
    Gz = fb.eval(z)
    assert np.allclose(fb.B.T @ Gz, np.eye(2) / z)
print("B^T G(z) = z^{-1} I  checked at three points")

# stacked delays are an isometry up to the block count: G* G = 2 I
theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
Gv = fb.eval_grid(np.exp(1j * theta))
gram = Gv.conj().transpose(0, 2, 1) @ Gv
print("max |G*G - 2I| on the circle:",
      np.max(np.abs(gram - 2.0 * np.eye(2))))


# %% prior spectra

flat = constant_prior(1.0)
print("\nconstant prior:  psi(theta) =", flat.psi_values(np.array([0.0]))[0])

# a polynomial prior is given by the coefficients of its outer factor;
# the roots must stay inside the open unit disc
b = [1.0, -1.0, 0.89]
poly = prior_from_polynomial(b)
print("polynomial prior  b =", b)
print("  roots of b:", np.roots(b), " (inside the disc)")
print("  psi at theta = 0, pi/3, pi:",
      poly.psi_values(np.array([0.0, np.pi / 3, np.pi])))

# a rational prior comes from any scalar Schur-stable outer system
sig = StateSpaceSystem(np.array([[0.5]]), np.array([[1.0]]),
                       np.array([[0.8]]), np.array([[1.2]]))
rat = prior_from_outer(sig)
print("rational prior    psi at theta = 0, pi:",
      rat.psi_values(np.array([0.0, np.pi])))

# the homotopy blends the density, not the factor: (1 - t) + t psi.  The
# moment map is affine in the density, so the solver never factors the
# blend; it mixes the flat and the psi Gramians of one cascade instead
half = 0.5 + 0.5 * poly.psi_values(theta)
print("blend at t = 0.5: density from", half.min(), "to", half.max())


# %% the weight cone: positivity of G* Lambda G, not of Lambda

# membership is decided exactly; a non-member comes with the reason
diag = is_in_Lplus(fb, np.eye(4))
print("\nLambda = I:        member =", diag.member, " reason =", diag.reason)

# an indefinite Lambda can still be admissible: G* Lambda G stays positive
# on the 64 angles above although Lambda has a negative eigenvalue
Lam = np.eye(4)
Lam[0, 0] = -0.5
diag = is_in_Lplus(fb, Lam)
margin = np.linalg.eigvalsh(Gv.conj().transpose(0, 2, 1) @ Lam @ Gv).min()
print("indefinite Lambda: member =", diag.member,
      " min eigenvalue of G* Lambda G on the grid =", round(margin, 6),
      " matrix eigenvalues =", np.linalg.eigvalsh(Lam))
assert diag.member and margin > 0.0 > np.linalg.eigvalsh(Lam)[0]

diag = is_in_Lplus(fb, -np.eye(4))
print("Lambda = -I:       member =", diag.member, " reason =", diag.reason)


# %% the stable factor set

# the reference operating point used throughout the demos
C = np.array([[0.5, 0.65, 1.0, 0.0],
              [-2.2615, -1.0, 2.0, 1.0]])
diag = is_in_Cplus(fb, C)
print("\nreference C: member =", diag.member,
      " closed-loop spectral radius =", round(diag.spectral_radius, 6))

# flipping the sign of a diagonal entry of CB breaks the normalization
Cbad = C.copy()
Cbad[0, 2] = -1.0
diag = is_in_Cplus(fb, Cbad)
print("sign-flipped C: member =", diag.member, " failures:", diag.failures)


# %% the density a factor parameter defines

phi = density_values(fb, C, poly, theta)
eigs = np.linalg.eigvalsh(phi)
print("\ndensity at the reference point: shape", phi.shape,
      " min eigenvalue over the grid =", float(eigs.min()))
