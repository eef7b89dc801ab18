"""Discrete-time state-space building blocks.

Systems are causal transfer functions W(z) = C (zI - A)^{-1} B + D evaluated
on and outside the unit circle.  The module provides the bank of rational
filters G(z) = (zI - A)^{-1} B that defines the estimation problem, the
scalar prior spectra psi = |sigma|^2, each admitted by one check that sigma
is outer, and the stable factor parameters C whose induced closed loop
Pi = A - B (CB)^{-1} C A is Schur stable.  The filter bank, every system
(spectral factors included) and matrixeq's positivity test evaluate
through one batched resolvent solve, _resolvent.  This is the lowest
layer above errors: it imports no other module of the package.

Every matrix a caller hands the package enters through one gate here:
_as_matrix for a matrix and _check_hermitian for Hermitian data (a matrix
or a stack) both raise ValueError naming the input, "<name> must be a 2-d
array", "<name> must be square" or "<name> has non-finite entries", before
any eigenvalue, factorization or solve sees it.

All sets come with explicit numerical tolerances: strict inequalities use a
1e-12 margin throughout.  Every type here that holds an array is a frozen
dataclass whose fields are its constructor's inputs; what construction
derives from them is kept beside the fields, and an instance compares and
hashes by identity, since equal arrays in two instances do not make them
one object (a chart, say, is kept on one bank object).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, MembershipError

__all__ = [
    "StateSpaceSystem",
    "FilterBank",
    "PriorSpectrum",
    "FactorParameter",
    "CplusDiagnostics",
    "make_covariance_extension_filter",
    "prior_from_polynomial",
    "prior_from_outer",
    "constant_prior",
    "is_in_Cplus",
    "coerce_field",
    "circle_grid",
    "grid_size_from_spacing",
    "matrix_to_json",
    "matrix_from_json",
]

STRICT_TOL = 1e-12
# relative singular-value cutoff of the rank tests on B and on the
# reachability matrix [B, AB, ..., A^{n-1} B]
RANK_RTOL = 1e-9


def _hermitize(X):
    return 0.5 * (X + X.conj().swapaxes(-1, -2))


def _hermitian_defect(X):
    """Largest entry of |X - X*| over the slices of X (2-d or a stack) whose
    defect exceeds STRICT_TOL (1 + max |X|), or None when there is none."""
    if not X.size:
        return None
    defect = np.max(np.abs(X - X.conj().swapaxes(-1, -2)), axis=(-2, -1))
    bad = defect > STRICT_TOL * (1.0 + np.max(np.abs(X), axis=(-2, -1)))
    return float(np.max(defect[bad])) if np.any(bad) else None


def _check_hermitian(X, name):
    """Hermitian part of X, or of each slice of a stack; raises on a
    non-finite entry (see _check_finite), a non-square X or a defect."""
    X = _check_finite(np.atleast_2d(np.asarray(X)), name)
    if X.shape[-1] != X.shape[-2]:
        raise ValueError(f"{name} must be square, got {X.shape}")
    defect = _hermitian_defect(X)
    if defect is not None:
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    return _hermitize(X)


def _spectral_radius(A):
    """Largest eigenvalue modulus of a square A (0 for an empty one, inf for
    one with a non-finite entry, so that every stability gate rejects it by
    name); Schur stability is ``_spectral_radius(A) < 1 - STRICT_TOL``
    throughout."""
    if A.size == 0:
        return 0.0
    if not np.isfinite(A).all():
        return np.inf
    return float(np.abs(np.linalg.eigvals(A)).max())


def _as_matrix(x, name):
    """``x`` as a finite 2-d array, else ValueError naming it: the one gate
    for a matrix a caller hands the package."""
    a = np.atleast_2d(np.asarray(x))
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {a.shape}")
    return _check_finite(a, name)


def _check_finite(x, name):
    """``x``, else ValueError naming it; run before any eigenvalue, root or
    solve."""
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")
    return x


def coerce_field(x, fieldname, tol=STRICT_TOL, what="matrix"):
    """Return ``x`` as a real array when ``fieldname == 'real'``.

    Asserts that stray imaginary parts are below ``tol`` relative to the
    matrix scale before discarding them; a stack of matrices is checked
    slice by slice.  Complex-field inputs pass through.
    """
    x = np.asarray(x)
    if fieldname == "real" and x.dtype.kind == "c":
        if x.size:
            # each matrix of a stack is held to its own scale
            axes = tuple(range(x.ndim))[-2:]
            scale = np.ravel(1.0 + np.max(np.abs(x), axis=axes))
            worst = np.ravel(np.max(np.abs(x.imag), axis=axes))
            bad = np.flatnonzero(worst > tol * scale)
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"{what}: imaginary part {worst[i]:.3e} exceeds the "
                    f"real-field tolerance {tol:.1e} * {scale[i]:.3e}"
                )
        return np.ascontiguousarray(x.real)
    return x


def circle_grid(n, start=0, stop=None):
    """Equidistant angles on (-pi, pi]: theta_k = -pi + k * 2 pi / n, for
    k = start + 1..stop (k = 1..n by default).  A range of k gives the same
    angles, bit for bit, as the same slice of the whole grid."""
    if isinstance(n, bool) or not hasattr(n, "__index__") or n < 1:
        raise ValueError(f"grid size must be a positive integer, got {n!r}")
    stop = n if stop is None else stop
    step = 2.0 * np.pi / n
    return -np.pi + step * np.arange(start + 1, stop + 1)


def grid_size_from_spacing(dtheta):
    """Number of grid points whose uniform spacing best matches ``dtheta``.

    The returned n tiles the circle exactly (n * (2 pi / n) = 2 pi); a literal
    non-divisor spacing would leave a coverage gap on (-pi, pi].
    """
    if not 0 < dtheta < np.inf:
        raise ValueError("dtheta must be finite and positive")
    return max(1, int(round(2.0 * np.pi / float(dtheta))))


@dataclass(frozen=True, eq=False)
class StateSpaceSystem:
    """Causal system W(z) = C (zI - A)^{-1} B + D with Schur-stable A; its
    matrices must be finite (else ValueError naming the matrix)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A, B, C, D = (_as_matrix(getattr(self, name), name) for name in "ABCD")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(
                f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape}"
            )
        for name, val in zip("ABCD", (A, B, C, D)):
            object.__setattr__(self, name, val)

    @property
    def n_states(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    def eval(self, z):
        """W(z) at a single point."""
        return self.eval_grid([z])[0]

    def eval_grid(self, z):
        """W on a 1-d array of points; returns shape (len(z), p, m)."""
        return self.C @ _resolvent(self.A, self.B, z) + self.D


def _resolvent(A, B, z):
    """(zI - A)^{-1} B at every point of the 1-d array ``z``, stacked as
    (len(z), n, m); the one solve behind every transfer evaluation.

    Raises
    ------
    EvaluationError
        If zI - A is singular at a point (the message names it).
    """
    z = np.asarray(z, dtype=complex).ravel()
    zI_A = z[:, None, None] * np.eye(A.shape[0]) - A
    try:
        return np.linalg.solve(zI_A, np.broadcast_to(
            B.astype(complex), (z.size,) + B.shape))
    except np.linalg.LinAlgError:
        k = int(np.argmin(np.abs(np.linalg.det(zI_A))))
        raise EvaluationError(
            f"zI - A is singular at z = {z[k]!r}") from None


def _channel_blowup(outer, m):
    """One copy of the scalar system ``outer`` per channel of an m-channel
    signal: (A (x) I_m, B (x) I_m, C (x) I_m, D I_m)."""
    eye_m = np.eye(m)
    return StateSpaceSystem(np.kron(outer.A, eye_m), np.kron(outer.B, eye_m),
                            np.kron(outer.C, eye_m), np.kron(outer.D, eye_m))


def _reachability_rank(A, B):
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    R = np.hstack(blocks)
    s = np.linalg.svd(R, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0]))


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Bank of rational filters G(z) = (zI - A)^{-1} B.

    Parameters
    ----------
    A : (n, n) finite array, Schur stable (spectral radius < 1 - 1e-12)
    B : (n, m) finite array, full column rank, with (A, B) reachable
    field : "real" or "complex"

    The spectral radius of A, found by the stability check, is kept for the
    Stein solves in A and A* (matrixeq._stein_solver), the read-only indices
    of the entries above the diagonal of an m x m matrix for the membership
    check of CB, and the bank's coordinate chart once moment.make_chart has
    built it.
    """

    A: np.ndarray
    B: np.ndarray
    field: str = "real"

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        A = coerce_field(_as_matrix(self.A, "filter A"), self.field,
                         what="filter A")
        B = coerce_field(_as_matrix(self.B, "filter B"), self.field,
                         what="filter B")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if B.shape[1] > n:
            raise ValueError("B cannot have more columns than A has rows")
        rho = _spectral_radius(A)
        if not rho < 1.0 - STRICT_TOL:
            raise MembershipError(
                f"filter A is not Schur stable: spectral radius {rho:.15g}")
        sv = np.linalg.svd(B, compute_uv=False)
        if sv.size == 0 or sv[-1] <= RANK_RTOL * sv[0]:
            raise MembershipError("filter B is not of full column rank")
        if _reachability_rank(A, B) < n:
            raise MembershipError("(A, B) is not reachable")
        A, B = A.copy(), B.copy()
        upper = np.triu_indices(B.shape[1], 1)
        for val in (A, B) + upper:
            val.setflags(write=False)
        for name, val in (("A", A), ("B", B), ("_radius", rho),
                          ("_upper", upper), ("_chart", None)):
            object.__setattr__(self, name, val)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    def eval(self, z):
        """G(z) at a single point."""
        return self.eval_grid([z])[0]

    def eval_grid(self, z):
        """G on a 1-d array of points; returns shape (len(z), n, m)."""
        return _resolvent(self.A, self.B, z)


def make_covariance_extension_filter(m, p, field="real"):
    """Filter bank whose moments are the covariance lags of an m-variate process.

    A is the nilpotent block shift with identity blocks on the first block
    superdiagonal, B stacks zeros over the identity; G(z) stacks
    z^{-p-1} I_m, ..., z^{-1} I_m (deepest lag first), with n = m (p + 1).
    m and p must be integers with m >= 1 and p >= 0, and field "real" or
    "complex" (else ValueError).  The bank is immutable, so one bank per
    (m, p, field) is built per process and shared by every call, with the
    chart that moment.make_chart keeps on it.
    """
    if any(isinstance(x, bool) or not hasattr(x, "__index__") for x in (m, p)):
        raise ValueError(f"m and p must be integers, got {m!r} and {p!r}")
    m, p = operator.index(m), operator.index(p)
    if m < 1 or p < 0:
        raise ValueError("need m >= 1 and p >= 0")
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    return _covext_bank(m, p, str(field))


@functools.cache
def _covext_bank(m, p, field):
    n = m * (p + 1)
    A = np.zeros((n, n))
    for i in range(p):
        A[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = np.eye(m)
    B = np.zeros((n, m))
    B[p * m:, :] = np.eye(m)
    return FilterBank(A, B, field=field)


@dataclass(frozen=True, eq=False)
class PriorSpectrum:
    """Scalar prior density psi = |sigma|^2 given by its outer factor sigma.

    kind is "constant", "polynomial" (sigma a minimum-phase FIR) or
    "rational".  Construction checks, for every kind, that sigma is outer:
    its A is Schur stable, its feedthrough d is nonzero (|d| above
    1e-12 max |C|) and its zero dynamics A - BC/d have spectral radius
    below 1 - 1e-12 (else
    MembershipError, "b is not minimum phase" for a polynomial prior and
    "sigma is not outer" otherwise).  That is all psi > 0 needs: sigma^{-1}
    is then stable, so sigma has no zero on the unit circle.

    Construction also decides, exactly, whether psi is even (see
    _is_even): a real bank needs an even psi (see _check_prior_field).
    The spectral radius of sigma's A, found by the stability check, is kept
    with the per-channel copies of sigma that a cascade with an m-input
    system runs (built once per m, see _blowup).
    """

    sigma: StateSpaceSystem
    kind: str = "rational"

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial", "rational"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.sigma.n_inputs != 1 or self.sigma.n_outputs != 1:
            raise ValueError("sigma must be a scalar system")
        A, B, C, D = (self.sigma.A, self.sigma.B, self.sigma.C, self.sigma.D)
        what = ("b is not minimum phase" if self.kind == "polynomial"
                else "sigma is not outer")
        rho = _spectral_radius(A)
        if not rho < 1.0 - STRICT_TOL:
            raise MembershipError(
                f"{what}: A is not Schur stable (spectral radius {rho:.15g})")
        d = D[0, 0]
        # relative to C, so that the check does not depend on sigma's scale
        if abs(d) <= STRICT_TOL * np.max(np.abs(C), initial=0.0):
            raise MembershipError(
                f"{what}: its feedthrough vanishes (a zero at infinity)")
        # an overflow is left to _spectral_radius, which names it
        with np.errstate(over="ignore", invalid="ignore"):
            zero_dynamics = A - B @ C / d
        worst = _spectral_radius(zero_dynamics)
        if not worst < 1.0 - STRICT_TOL:
            raise MembershipError(
                f"{what}: a zero of modulus {worst:.15g} >= 1")
        for name, val in (("_radius", rho), ("_even", _is_even(self.sigma)),
                          ("_blowups", {})):
            object.__setattr__(self, name, val)

    def sigma_values(self, theta):
        """sigma(e^{i theta}) on a grid of angles, as a 1-d complex array."""
        z = np.exp(1j * np.asarray(theta, dtype=float).ravel())
        return self.sigma.eval_grid(z)[:, 0, 0]

    def psi_values(self, theta):
        """psi(theta) = |sigma(e^{i theta})|^2 on a grid of angles."""
        s = self.sigma_values(theta)
        return (s * s.conj()).real

    def _blowup(self, m):
        """sigma's copies for m channels (see _channel_blowup), read-only."""
        if m not in self._blowups:
            copies = _channel_blowup(self.sigma, m)
            for val in (copies.A, copies.B, copies.C, copies.D):
                val.setflags(write=False)
            self._blowups[m] = copies
        return self._blowups[m]


def _is_even(sigma):
    """Whether psi = |sigma|^2 of an outer sigma is even in theta.

    psi(-theta) is |s(e^{i theta})|^2 for the outer s(z) = conj(sigma(conj
    z)), whose Markov parameters are the conjugates of sigma's; outer
    factors are unique up to a unimodular constant, so psi is even iff
    sigma's Markov parameters are real up to one common phase.  s - c sigma
    has order at most 2q (q = sigma's order), so by Cayley-Hamilton
    h_0 = D and h_k = C A^{k-1} B, k = 1..2q, decide it.  The largest h_k
    fixes the phase; the rest must then be real to STRICT_TOL relative to
    it.  A real realization is even.
    """
    A, B, C, D = sigma.A, sigma.B, sigma.C, sigma.D
    if not any(np.iscomplexobj(X) for X in (A, B, C, D)):
        return True
    h = np.array([D[0, 0]] + [(C @ np.linalg.matrix_power(A, k) @ B)[0, 0]
                              for k in range(2 * sigma.n_states)])
    top = h[np.argmax(np.abs(h))]
    return bool(np.max(np.abs((h * (abs(top) / top)).imag))
                <= STRICT_TOL * abs(top))


def _check_prior_field(prior, fieldname):
    """``prior``, else ValueError when it cannot enter a ``fieldname`` bank.

    On a real bank g(psi, C) is real for real C only if psi is even; any
    other psi makes it complex, so no real C solves for it.
    """
    if fieldname == "real" and not prior._even:
        raise ValueError(
            "prior psi is not even (sigma's Markov parameters are not real "
            "up to one common phase), so g(psi, C) is complex for every C "
            "of a real bank")
    return prior


def _fir_system(b):
    """The controller-form realization of b_0 + b_1 z^{-1} + ... + b_q z^{-q},
    with read-only arrays of its own."""
    b = np.atleast_1d(np.asarray(b))
    q = b.size - 1
    dtype = complex if np.iscomplexobj(b) else float
    A = np.eye(q, k=-1, dtype=dtype)
    B = np.zeros((q, 1), dtype=dtype)
    B[:1] = 1.0
    C = np.array(b[1:], dtype=dtype).reshape(1, q)
    D = np.array([[b[0]]], dtype=dtype)
    for val in (A, B, C, D):
        val.setflags(write=False)
    return StateSpaceSystem(A, B, C, D)


def constant_prior(value=1.0):
    """The flat prior psi = value (0 < value < inf)."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise MembershipError("constant prior must be positive and finite")
    s = np.sqrt(value)
    return PriorSpectrum(_fir_system([s]), kind="constant")


# prior=None, the maximum-entropy case, is this prior wherever a prior enters
# (moment.CascadePoint, moment.GridPoint, density_values), so its
# blow-up is kept
_FLAT_PRIOR = constant_prior(1.0)


# priors kept by prior_from_polynomial, least recently used dropped first
_PRIOR_CACHE_SIZE = 64


def prior_from_polynomial(b):
    """Prior psi = |b(z)|^2 for an FIR b(z) = b_0 + b_1 z^{-1} + ... + b_q z^{-q}.

    b must be a finite non-empty 1-d array (else ValueError) and minimum
    phase: b_0 != 0 and every root of b (as a polynomial in z^{-1}) of
    modulus < 1, else MembershipError.  The roots are the zeros of the FIR
    realization, so PriorSpectrum's outer check decides this.

    The prior is immutable, so one is shared per coefficient vector (its
    dtype and bytes), with the per-channel copies it keeps; the last
    _PRIOR_CACHE_SIZE vectors are kept.  A rejected b is checked again on
    every call.
    """
    b = np.atleast_1d(np.asarray(b))
    if b.ndim != 1 or b.size == 0:
        raise ValueError("b must be a non-empty 1-d coefficient array")
    _check_finite(b, "b")
    return _polynomial_prior(b.dtype, b.tobytes())


@functools.lru_cache(maxsize=_PRIOR_CACHE_SIZE)
def _polynomial_prior(dtype, data):
    return PriorSpectrum(_fir_system(np.frombuffer(data, dtype)),
                         kind="polynomial")


def prior_from_outer(system):
    """Prior psi = |sigma|^2 for a scalar rational outer factor sigma.

    sigma must be scalar (else ValueError) and outer: Schur stable, with
    nonzero feedthrough and all transmission zeros strictly inside the unit
    circle (else MembershipError, see PriorSpectrum).
    """
    return PriorSpectrum(system, kind="rational")


@dataclass(frozen=True)
class CplusDiagnostics:
    """Membership report for the stable factor set."""

    member: bool
    spectral_radius: float
    failures: tuple = ()

    def __bool__(self):
        return self.member


def is_in_Cplus(filterbank, C):
    """Check membership of C in the stable factor set.

    Requires CB lower triangular with real positive diagonal (entries above
    the diagonal of modulus <= 1e-12, diagonal imaginary part <= 1e-12, real
    part > 1e-12) and spectral radius of Pi = A - B (CB)^{-1} C A below
    1 - 1e-12.  Returns diagnostics that are truthy iff all conditions hold.
    """
    return _closed_loop(filterbank, C)[0]


def _as_param(filterbank, C):
    """``C`` as a FactorParameter of ``filterbank``: a matrix is checked for
    membership, and a FactorParameter is returned as is if it belongs to
    this very bank object (else ValueError)."""
    if not isinstance(C, FactorParameter):
        return FactorParameter(filterbank, C)
    if C.filterbank is not filterbank:
        raise ValueError("C is a FactorParameter of another filter bank")
    return C


def _closed_loop(filterbank, C):
    """(diagnostics, C, CB, Pi, Bt) of the membership check of the matrix C.

    The one validation of C (finite entries, its shape, and a real C for a
    real bank, else ValueError) and the one computation of CB, the closed
    loop and its spectral radius behind both is_in_Cplus and
    FactorParameter.  G (z C G)^{-1} has the realization (Pi, Bt, I, 0), with
    input matrix Bt = B (CB)^{-1}, from the one solve against CB, and closed
    loop Pi = A - Bt C A; Pi and Bt are None when CB is singular.
    """
    m, n = filterbank.m, filterbank.n
    C = coerce_field(_as_matrix(C, "C"), filterbank.field,
                     what="factor parameter C")
    if C.shape != (m, n):
        raise ValueError(f"C must be {m}x{n}, got {C.shape}")
    CB = C @ filterbank.B
    failures = []
    max_upper = float(np.abs(CB[filterbank._upper]).max(initial=0.0))
    diag = CB.diagonal()
    min_diag_real = float(diag.real.min())
    max_diag_imag = float(np.abs(diag.imag).max()) if CB.dtype.kind == "c" else 0.0
    if max_upper > STRICT_TOL:
        failures.append(
            f"CB is not lower triangular (max above-diagonal modulus {max_upper:.3e})")
    if max_diag_imag > STRICT_TOL:
        failures.append(
            f"diagonal of CB is not real (max imaginary part {max_diag_imag:.3e})")
    if not min_diag_real > STRICT_TOL:
        failures.append(
            f"diagonal of CB is not positive (min real part {min_diag_real:.3e})")
    rho = np.inf
    Pi = Bt = None
    try:
        Bt = np.linalg.solve(CB.T, filterbank.B.T).T
    except np.linalg.LinAlgError:
        failures.append("CB is singular; closed loop undefined")
    else:
        # an overflow is left to _spectral_radius, which names it
        with np.errstate(over="ignore", invalid="ignore"):
            Pi = filterbank.A - Bt @ (C @ filterbank.A)
        rho = _spectral_radius(Pi)
        if not rho < 1.0 - STRICT_TOL:
            failures.append(
                f"closed loop is not Schur stable (spectral radius {rho:.15g})")
    diagnostics = CplusDiagnostics(
        member=not failures,
        spectral_radius=rho,
        failures=tuple(failures),
    )
    return diagnostics, C, CB, Pi, Bt


@dataclass(frozen=True, eq=False)
class FactorParameter:
    """A point C of the stable factor set, bound to its filter bank.

    Construction validates membership and keeps, read-only, CB and the
    closed-loop realization (Pi, Bt, I, 0) of G (z C G)^{-1}: the input
    matrix Bt = B (CB)^{-1}, the closed loop Pi = A - Bt C A, stable, and
    its spectral radius, all from the one computation of the membership
    check.
    """

    filterbank: FilterBank
    C: np.ndarray

    def __post_init__(self):
        diag, C, CB, Pi, Bt = _closed_loop(self.filterbank, self.C)
        if not diag:
            raise MembershipError(
                "C is not in the stable factor set: " + "; ".join(diag.failures))
        for name, val in (("C", C.copy()), ("CB", CB), ("Pi", Pi), ("Bt", Bt)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "_radius", diag.spectral_radius)

    def spectral_radius(self):
        """Spectral radius of the closed loop Pi, kept from construction."""
        return self._radius


def matrix_to_json(M):
    """Encode a matrix as row-major nested lists.

    Real matrices use plain numbers; complex matrices encode each entry as a
    [re, im] pair.
    """
    M = np.atleast_2d(np.asarray(M))
    if np.iscomplexobj(M):
        return [[[float(v.real), float(v.imag)] for v in row] for row in M]
    return [[float(v) for v in row] for row in M]


def matrix_from_json(data):
    """Decode a matrix produced by :func:`matrix_to_json`."""
    if not isinstance(data, list) or not data or not isinstance(data[0], list):
        raise ValueError("matrix JSON must be a non-empty list of rows")
    first = data[0][0] if data[0] else None
    if isinstance(first, list):
        rows = []
        for row in data:
            rows.append([complex(e[0], e[1]) for e in row])
        return np.array(rows, dtype=complex)
    return np.array(data, dtype=float)
