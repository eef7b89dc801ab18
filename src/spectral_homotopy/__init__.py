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

from . import continuation, errors, factorization, matrixeq, moment, statespace
from .errors import *
from .statespace import *
from .matrixeq import *
from .factorization import *
from .moment import *
from .continuation import *

__version__ = "0.1.0"

# each layer's __all__ is the one list of its public names
__all__ = [name for layer in (errors, statespace, matrixeq, factorization,
                              moment, continuation)
           for name in layer.__all__] + ["__version__"]
