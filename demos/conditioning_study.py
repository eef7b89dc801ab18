"""Why the solver works in factor coordinates.
===============================================

Two parameterizations describe the same family of densities: the weight
matrix Lambda and the stable spectral factor C.  This script measures the
conditioning of both linearizations along a whole continuation run and
shows the factor side staying roughly three orders of magnitude better,
all the way to the endpoint where the gap exceeds 1500x.

Writes conditioning.csv next to this script.
"""

import csv
import time
from pathlib import Path

import numpy as np

from spectral_homotopy import (
    CascadePoint,
    FactorParameter,
    f_jacobian_from_g,
    make_covariance_extension_filter,
    moment_g_statespace,
    prior_from_polynomial,
    run_continuation,
)

# the operating point: two channels, one extra lag, the near-boundary
# prior with zeros at 0.5 +- 0.8i, and a factor close to the edge of
# the stable set (closed-loop spectral radius 0.985)
fb = make_covariance_extension_filter(2, 1)
prior = prior_from_polynomial([1.0, -1.0, 0.89])
C_ref = np.array([[0.5, 0.65, 1.0, 0.0],
                  [-2.2615, -1.0, 2.0, 1.0]])
Sigma = moment_g_statespace(fb, prior, C_ref)

# g is affine in the prior density, so one cascade point at
# (1 - t) + t psi gives the exact Jacobian there (one stacked Stein solve);
# the blended prior is never factored.  f = g o h, so the weight-side
# Jacobian at Lambda = h^{-1}(C) follows by the chain rule,
# J_f = J_g J_{h^{-1}}^{-1}, and J_{h^{-1}} does not depend on the prior:
# neither side needs a quadrature grid.


def blended_conditions(t, param):
    J_g = CascadePoint(fb, prior, param, t).jacobian(chart)
    J_f = f_jacobian_from_g(chart, param, J_g)
    return float(np.linalg.cond(J_g)), float(np.linalg.cond(J_f))


# %% follow the homotopy and linearize both maps at every accepted step

print("running the continuation ...")
t0 = time.perf_counter()
path = run_continuation(fb, prior, Sigma)
# the run's coordinate chart, a function of the bank alone
chart = path.chart
print(f"done: {len(path.samples) - 1} steps in {time.perf_counter() - t0:.1f} s")

rows = []
for s in path.samples:
    cond_g, cond_f = blended_conditions(s.t, FactorParameter(fb, s.C))
    rows.append((s.t, cond_g, cond_f, cond_f / cond_g))
    print(f"  t = {s.t:4.1f}   cond_g = {cond_g:.4e}   "
          f"cond_f = {cond_f:.4e}   ratio = {cond_f / cond_g:7.1f}")


# %% the endpoint is the reference computation

t, cond_g, cond_f, ratio = rows[-1]
print(f"\nendpoint: cond_g = {cond_g:.5e}, cond_f = {cond_f:.5e}, "
      f"ratio = {ratio:.0f}")
print("growth over the run: "
      f"factor side x{cond_g / rows[0][1]:.1f}, "
      f"weight side x{cond_f / rows[0][2]:.1f}")

# the weight-side map is never the better choice on this path
assert all(r[3] > 100.0 for r in rows)


# %% write the table

dest = Path(__file__).resolve().parent / "conditioning.csv"
with dest.open("w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["t", "cond_g", "cond_f", "ratio"])
    for r in rows:
        w.writerow([f"{r[0]:.4f}", f"{r[1]:.8e}", f"{r[2]:.8e}",
                    f"{r[3]:.4f}"])
print("wrote", dest)
