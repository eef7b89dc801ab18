"""Following the prior homotopy from the flat start to the target.
==================================================================

Given a feasible covariance Sigma and a target prior, the continuation
starts at the maximum-entropy parameter (the closed-form solution for the
flat prior) and deforms the prior in steps of dt, correcting with Newton
after each predictor move.  Intermediate points are accepted inside a
relative residual tube (PATH_TOL ||Sigma||, PATH_TOL = 3e-4), so a step
takes at most one Newton iteration, and none when its prediction already
lies in the tube (t = 0.3); only the endpoint t = 1 is converged to
newton_tol, in two.  Each iterate's Jacobian also gives the path tangent,
so a sample's gram cond and |tangent| columns describe the corrector's
last Jacobian, whose tangent predicts the next step (t = 0 and a step
with no iteration solve their own; t = 1 needs none).
This script runs the reference problem, prints the per-step diagnostics,
and verifies the endpoint.

Writes path.csv and path.json next to this script.
"""

from pathlib import Path

import numpy as np

from spectral_homotopy import (
    constant_prior,
    h_inverse,
    is_in_Lplus,
    make_covariance_extension_filter,
    maxent_initialization,
    moment_g_statespace,
    prior_from_polynomial,
    run_continuation,
    write_path_csv,
    write_path_json,
)

np.set_printoptions(precision=4, suppress=True)

fb = make_covariance_extension_filter(2, 1)
prior = prior_from_polynomial([1.0, -1.0, 0.89])

# manufacture the data: the covariance a known factor parameter produces
C_true = np.array([[0.5, 0.65, 1.0, 0.0],
                   [-2.2615, -1.0, 2.0, 1.0]])
Sigma = moment_g_statespace(fb, prior, C_true)
print("Sigma =\n", Sigma)


# %% the starting point costs one spectral factorization, no iteration

start = maxent_initialization(fb, Sigma)
print("\nmaximum-entropy start:\nC0 =\n", start.C)
g0 = moment_g_statespace(fb, constant_prior(1.0), start.C)
print("start matches Sigma under the flat prior:",
      float(np.linalg.norm(g0 - Sigma)) <= 1e-9 * np.linalg.norm(Sigma))


# %% run the continuation and watch the corrector

path = run_continuation(fb, prior, Sigma)
print("\n   t    newton   residual     gram cond   |tangent|")
for s in path.samples:
    print(f"  {s.t:4.2f}   {s.newton_iters:3d}     {s.residual:.3e}"
          f"   {s.gram_cond:.3e}   {s.tangent_norm:.3e}")


# %% endpoint checks

final = path.final_parameter()
c_err = np.linalg.norm(final.C - C_true) / np.linalg.norm(C_true)
g_err = (np.linalg.norm(moment_g_statespace(fb, prior, final.C) - Sigma)
         / np.linalg.norm(Sigma))
print(f"\nrecovered the generating parameter to {c_err:.2e}")
print(f"moment defect at the endpoint: {g_err:.2e}")

Lam = h_inverse(path.chart, final)
print("weight representative of the endpoint:\n", Lam)
print("admissible:", bool(is_in_Lplus(fb, Lam)))


# %% artifacts

here = Path(__file__).resolve().parent
with open(here / "path.csv", "w") as fh:
    write_path_csv(path, fh)
with open(here / "path.json", "w") as fh:
    write_path_json(path, fh)
print("\nwrote", here / "path.csv")
print("wrote", here / "path.json")
