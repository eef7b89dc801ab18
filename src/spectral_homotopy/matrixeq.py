"""Matrix equation solvers.

Discrete-time Stein/Lyapunov equations (by Smith's squared iteration, in
plain numpy), two Riccati forms, the exact positivity test they rest on, and
the triangular factorizations they need.  The positivity test also decides
membership of a weight Lambda (is_in_Lplus), through the reduction below
that solve_dare_lambda uses.  Priors do not need it: an outer sigma has
psi = |sigma|^2 > 0 (statespace.PriorSpectrum).  Two Riccati conventions
appear:

* the lag-weight form  P = A*PA - A*PB (B*PB)^{-1} B*PA + Lambda,
  which carries no regularizing term inside B*PB and therefore cannot be fed
  to off-the-shelf solvers that require a nonsingular input weight; and
* the additive form  P = FPF* - (G + FPH*)(R + HPH*)^{-1}(G* + HPF*)  with
  R = J + J* > 0, used to factor Z(z) + Z*(z) for Z = H (zI-F)^{-1} G + J.

The lag-weight form is reduced exactly to the additive form: with Q solving
the Stein equation Q - A*QA = Lambda, the substitution P = Q + X turns the
first equation into the second with (F, G, H, J) = (A*, A*QB, B*, B*QB / 2),
and the closed loops correspond by conjugate transposition.  Either form is
solved only after _circle_positivity has shown Z + Z* > 0 on the unit circle
exactly (the discrete-time positive-real lemma), which is when the
stabilizing solution exists.  It is found by a structure-preserving doubling
iteration, the one route; each solve then gates its residual, factors its
innovation block and checks its closed loop once, in its own form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, MembershipError, SolverError
from .statespace import (STRICT_TOL, _as_matrix, _check_finite,
                         _check_hermitian, _hermitize, _resolvent,
                         _spectral_radius, coerce_field)

__all__ = [
    "LplusDiagnostics",
    "is_in_Lplus",
    "DareSolution",
    "solve_dlyap",
    "standard_cholesky",
    "reverse_cholesky",
    "solve_dare_appendix",
    "solve_dare_lambda",
]

DLYAP_RESIDUAL_TOL = 1e-11
DARE_RESIDUAL_TOL = 1e-10
ITER_UPDATE_TOL = 1e-13
ITER_BUDGET = 200
# An eigenvalue s of the Cayley-transformed pencil of _circle_positivity with
# |Re s| <= AXIS_TOL (1 + |s|) counts as a zero of Z + Z* on the unit circle.
# Roundoff leaves a zero on the circle ~1e-12 off the axis; a density with a
# positive margin of 1e-6 keeps its zeros ~1e-5 away from it.
AXIS_TOL = 1e-8


def solve_dlyap(A1, Q):
    """Solve the Stein equation R - A1 R A1* = Q for Hermitian Q.

    Q may also be a stack of shape (k, n, n); each slice is then solved.
    The solution is the series R = sum_j A1^j Q A1*^j, summed by Smith's
    squared (doubling) iteration: with A_k = A1^(2^k), the update
    R <- R + A_k R A_k* doubles the number of summed terms, so a few
    dozen matrix products over the whole stack reach the tail bound (see
    _stein_solver).  The residual gate holds for every slice.

    Parameters
    ----------
    A1 : (n, n) array, Schur stable (spectral radius < 1 - 1e-12)
    Q : (n, n) Hermitian array, or a (k, n, n) stack of them

    Returns
    -------
    R : Hermitian array of Q's shape; each slice has residual norm
        ||R_i - A1 R_i A1* - Q_i||_F <= 1e-11 (1 + ||R_i||_F).

    Raises
    ------
    MembershipError
        If A1 is not Schur stable.
    SolverError
        If the powers of A1 overflow or do not decay within 64 squarings,
        or if any slice fails the residual gate.
    """
    A1 = np.atleast_2d(np.asarray(A1))
    Q = _check_hermitian(Q, "Q")
    n = A1.shape[0]
    if A1.shape != (n, n) or Q.ndim > 3 or Q.shape[-2:] != (n, n):
        raise ValueError(
            f"A1 must be {n}x{n} and Q {n}x{n} or a stack of {n}x{n} slices")
    return _stein_solver(A1)(Q)


# Smith's sum stops at the first power A_K = A1^(2^K) with ||A_K||_F^2 at
# most _POWER_TAIL: the terms left out add up to A_K R A_K*, so the
# truncation error is at most _POWER_TAIL ||R||, far below the residual gate.
_POWER_TAIL = 1e-17
_MAX_SQUARINGS = 64


def _stein_solver(A1, radius=None):
    """Factor a Schur-stable (n, n) A1 once; return Q -> solve_dlyap(A1, Q).

    The factorization is the list of squared powers A1^(2^k) that Smith's
    sum needs.  The returned function takes Hermitian Q, 2-D or stacked (it
    is hermitized, not checked), gates the residual of every slice and
    returns the Hermitian part of the sum, which is Hermitian bit for bit;
    any number of right-hand sides share the one list of powers.  A caller
    that knows the spectral radius of A1 (from the blocks of a block
    triangular A1, say) passes it as ``radius`` for the stability check;
    otherwise it is computed from the eigenvalues.
    """
    n = A1.shape[0]
    if n == 0:
        return lambda Q: np.zeros(np.shape(Q))
    rho = _spectral_radius(A1) if radius is None else radius
    if not rho < 1.0 - STRICT_TOL:
        raise MembershipError(
            f"Stein equation requires a Schur-stable A1; spectral radius {rho:.15g}")
    powers = []
    Ak = A1
    while True:
        size = float(np.vdot(Ak, Ak).real)
        if not math.isfinite(size):
            raise SolverError(
                f"powers of A1 overflow after {len(powers)} squarings")
        if size <= _POWER_TAIL:
            break
        if len(powers) == _MAX_SQUARINGS:
            raise SolverError(
                f"powers of A1 do not decay in {_MAX_SQUARINGS} squarings "
                f"(||A1^(2^{_MAX_SQUARINGS})||_F^2 = {size:.3e})")
        powers.append((Ak, Ak.conj().T))
        Ak = Ak @ Ak
    A1h = A1.conj().T

    def solve(Q):
        Q = _hermitize(np.asarray(Q))
        stack = Q.reshape(-1, n, n)
        R = _hermitize(_smith_sum(powers, stack))
        resid = _slice_norms(R - A1 @ R @ A1h - stack)
        bound = DLYAP_RESIDUAL_TOL * (1.0 + _slice_norms(R))
        ok = resid <= bound
        if not ok.all():
            # argmax takes a NaN residual for the largest
            i = int(np.argmax(np.where(ok, -np.inf, resid)))
            where = f" in slice {i} of {len(stack)}" if Q.ndim == 3 else ""
            raise SolverError(
                f"Stein solve residual {resid[i]:.3e} exceeds tolerance{where}",
                history=[float(resid[i])])
        return R.reshape(Q.shape)

    return solve


def _slice_norms(X):
    """Frobenius norm of every slice of the stack X, by one reduction."""
    return np.sqrt(np.einsum("kij,kij->k", X.conj(), X).real)


def _smith_sum(powers, Q):
    # R_{k+1} = R_k + A_k R_k A_k* with A_k = A1^(2^k) sums the first
    # 2^(k+1) terms of sum_j A1^j Q A1*^j, for every slice of the stack Q
    R = Q
    for Ak, Akh in powers:
        R = R + Ak @ R @ Akh
    return R


def standard_cholesky(M):
    """Lower-triangular L with positive diagonal and L L* = M.

    Raises
    ------
    FactorizationError
        If M is not positive definite; carries the offending pivot index.
    """
    M = _check_hermitian(M, "M")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pivot = M.shape[0] - 1
        for k in range(M.shape[0]):
            try:
                np.linalg.cholesky(M[:k + 1, :k + 1])
            except np.linalg.LinAlgError:
                pivot = k
                break
        raise FactorizationError(
            f"matrix is not positive definite (pivot {pivot})", pivot=pivot
        ) from None


def reverse_cholesky(M):
    """Lower-triangular L with positive diagonal and L* L = M.

    Factors the exchange-permuted matrix with the standard Cholesky and
    permutes back: with E the anti-identity and K K* = E M E, the factor is
    L = E K* E.
    """
    M = np.atleast_2d(np.asarray(M))
    K = standard_cholesky(M[::-1, ::-1])
    return K.conj().T[::-1, ::-1]


@dataclass(frozen=True)
class DareSolution:
    """Solution record of a Riccati solve.

    P is the stabilizing solution, L the triangular factor of the innovation
    block (convention depends on the equation: L*L = B*PB for the lag-weight
    form, LL* = R + HPH* for the additive form), closed_loop the resulting
    Schur-stable iteration matrix, residual_norm the Frobenius norm of the
    defining equation's defect.
    """

    P: np.ndarray
    L: np.ndarray
    closed_loop: np.ndarray
    residual_norm: float
    iterations: int


def _appendix_residual(F, G, H, R, P):
    Om = R + H @ P @ H.conj().T
    K = np.linalg.solve(Om.conj().T, (G + F @ P @ H.conj().T).conj().T).conj().T
    return F @ P @ F.conj().T - K @ Om @ K.conj().T - P, Om, K


def _sda_appendix(F, G, H, R):
    """Doubling iteration for the additive-form Riccati equation.

    The equation is dualized to standard control form (A = F*, B = H*,
    S = G, Q = 0), the cross term removed exactly, and the SSF-I doubling
    recursion applied; the H-iterate converges to the stabilizing solution.
    """
    Ad = F.conj().T
    Bd = H.conj().T
    RiS = np.linalg.solve(R, G.conj().T)
    RiB = np.linalg.solve(R, Bd.conj().T)
    Ak = Ad - Bd @ RiS
    Gk = _hermitize(Bd @ RiB)
    Hk = _hermitize(-G @ RiS)
    eye = np.eye(Ak.shape[0])
    for it in range(1, ITER_BUDGET + 1):
        W = eye + Gk @ Hk
        try:
            WA = np.linalg.solve(W, Ak)
            WG = np.linalg.solve(W, Gk)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"doubling iterate became singular: {exc}") from exc
        Hn = _hermitize(Hk + Ak.conj().T @ Hk @ WA)
        Gk = _hermitize(Gk + Ak @ WG @ Ak.conj().T)
        Ak = Ak @ WA
        delta = np.linalg.norm(Hn - Hk) / (1.0 + np.linalg.norm(Hn))
        Hk = Hn
        if delta <= ITER_UPDATE_TOL:
            return Hk, it
    raise SolverError(
        f"doubling iteration did not converge in {ITER_BUDGET} steps",
        history=[float(delta)])


def _circle_positivity(F, G, H, J):
    """Why Z + Z* is not positive definite on the unit circle, or None.

    Z = H (zI - F)^{-1} G + J with F Schur stable.  The test is exact, by the
    discrete-time positive-real lemma (Anderson & Vongpanitlerd, Network
    Analysis and Synthesis): Z + Z* > 0 on the circle iff R = J + J* > 0,
    Z + Z* > 0 at z = -1, and Z + Z* is nonsingular on the whole circle.
    The zeros of Z + Z* are the eigenvalues z of the symplectic pencil
    M - z L with

        M = [[F - G R^{-1} H, -G R^{-1} G*], [0, I]],
        L = [[I, 0], [-H* R^{-1} H, F* - H* R^{-1} G*]].

    The Cayley transform s = (z - 1) / (z + 1), the eigenvalues of
    (M + L)^{-1} (M - L), maps the circle onto the imaginary axis and the
    infinite eigenvalues of a singular L (nilpotent F) to s = 1; M + L is
    invertible because z = -1 is not a zero.

    Roundoff can move a multiple eigenvalue, a multiple zero of Z + Z* on
    the circle, off the axis by far more than AXIS_TOL (by ~1e-4 for the
    zero of order 4 of |1 - z^{-1}|^4), while Z + Z* at its angle still
    vanishes to roundoff.  So Z + Z* is also evaluated at the angles of all
    eigenvalues, and is singular where its min eigenvalue is at most
    STRICT_TOL ||R||.
    """
    R = _hermitize(J + J.conj().T)
    rvals = np.linalg.eigvalsh(R)
    rmin = float(rvals[0])
    if not rmin > 0.0:
        return ("its mean J + J* is not positive definite "
                f"(min eigenvalue {rmin:.6e})")
    nz = F.shape[0]
    if nz == 0:
        return None
    eye = np.eye(nz)
    Zm = H @ np.linalg.solve(-eye - F, G)
    pmin = float(np.min(np.linalg.eigvalsh(_hermitize(R + Zm + Zm.conj().T))))
    if not pmin > 0.0:
        return f"its min eigenvalue at z = -1 is {pmin:.6e}"
    Hh = H.conj().T
    RiH = np.linalg.solve(R, H)
    RiGh = np.linalg.solve(R, G.conj().T)
    zero = np.zeros((nz, nz))
    M = np.block([[F - G @ RiH, -G @ RiGh], [zero, eye]])
    L = np.block([[eye, zero], [-Hh @ RiH, F.conj().T - Hh @ RiGh]])
    s = np.linalg.eigvals(np.linalg.solve(M + L, M - L))
    dist = np.abs(s.real) / (1.0 + np.abs(s))
    k = int(np.argmin(dist))
    if dist[k] <= AXIS_TOL:
        theta = float(np.angle((1.0 + s[k]) / (1.0 - s[k])))
        return f"it is singular at theta = {theta:.6f}"
    # the angle of z = (1 + s) / (1 - s), without dividing by 1 - s = 0
    theta = np.angle((1.0 + s) * (1.0 - s).conj())
    z = np.exp(1j * theta)
    Zc = H @ _resolvent(F, G, z) + J
    low = np.linalg.eigvalsh(Zc + Zc.conj().swapaxes(-1, -2))[:, 0]
    k = int(np.argmin(low))
    if low[k] <= STRICT_TOL * float(rvals[-1]):
        return f"it is singular at theta = {float(theta[k]):.6f}"
    return None


def solve_dare_appendix(F, G, H, J):
    """Stabilizing solution of the additive-form Riccati equation.

    Solves P = FPF* - (G + FPH*)(R + HPH*)^{-1}(G* + HPF*) with R = J + J*,
    for Z(z) = H (zI - F)^{-1} G + J with Z + Z* > 0 on the unit circle
    (decided exactly by _circle_positivity).

    Parameters
    ----------
    F : (nz, nz) Schur-stable array
    G : (nz, mz) array
    H : (mz, nz) array
    J : (mz, mz) array with J + J* positive definite

    Returns
    -------
    DareSolution
        With LL* = R + HPH* (standard lower Cholesky) and closed loop
        F - (G + FPH*)(R + HPH*)^{-1} H.

    Notes
    -----
    H = 0 (or nz = 0) needs no special case: P then solves the Stein
    equation P = FPF* - G R^{-1} G*, which the doubling iteration reaches
    like any other, L L* = R and the closed loop is F.
    """
    F = np.atleast_2d(np.asarray(F))
    G = np.atleast_2d(np.asarray(G))
    H = np.atleast_2d(np.asarray(H))
    J = np.atleast_2d(np.asarray(J))
    nz = F.shape[0]
    mz = J.shape[0]
    if F.shape != (nz, nz) or G.shape != (nz, mz) or H.shape != (mz, nz) \
            or J.shape != (mz, mz):
        raise ValueError("inconsistent shapes for (F, G, H, J)")
    rho = _spectral_radius(F)
    if not rho < 1.0 - STRICT_TOL:
        raise MembershipError(
            f"F must be Schur stable; spectral radius {rho:.15g}")
    # an indefinite R = J + J* is a FactorizationError here; a Cholesky
    # probe decides it, so _circle_positivity's eigenvalues of R are the
    # only ones computed
    R = _hermitize(J + J.conj().T)
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        rmin = float(np.linalg.eigvalsh(R)[0])
        raise FactorizationError(
            f"J + J* is not positive definite (min eigenvalue {rmin:.3e})"
        ) from None
    why = _circle_positivity(F, G, H, J)
    if why is not None:
        raise MembershipError(
            f"Z + Z* is not positive on the unit circle: {why}")

    P, iters = _sda_appendix(F, G, H, R)
    resid, Om, K = _appendix_residual(F, G, H, R, P)
    rnorm = _residual_gate(resid, P)
    L = standard_cholesky(_hermitize(Om))
    Kcl = F - K @ H
    _stabilizing_gate(Kcl, rnorm)
    return DareSolution(P=P, L=L, closed_loop=Kcl, residual_norm=rnorm,
                        iterations=iters)


def _residual_gate(resid, P):
    """Frobenius norm of a Riccati defect; raises above the residual gate."""
    rnorm = float(np.linalg.norm(resid))
    if rnorm > DARE_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(P))):
        raise SolverError(
            f"Riccati residual {rnorm:.3e} exceeds tolerance "
            f"{DARE_RESIDUAL_TOL:.1e} (1 + ||P||)", history=[rnorm])
    return rnorm


def _stabilizing_gate(closed_loop, rnorm):
    """Raises unless the closed loop of a Riccati solution is Schur stable."""
    rho_cl = _spectral_radius(closed_loop)
    if not rho_cl < 1.0 - STRICT_TOL:
        raise SolverError(
            f"computed solution is not stabilizing (closed-loop spectral "
            f"radius {rho_cl:.15g})", history=[rnorm])


def _lambda_residual(A, B, Lam, P):
    """Defect of the lag-weight equation at P, the reverse Cholesky factor
    L of B*PB (L*L = B*PB) and the closed loop A - B (B*PB)^{-1} B*PA."""
    M = _hermitize(B.conj().T @ P @ B)
    try:
        L = reverse_cholesky(M)
    except FactorizationError:
        raise FactorizationError(
            "B*PB is not positive definite at the computed solution") from None
    Cg = np.linalg.solve(M, B.conj().T @ P @ A)
    resid = A.conj().T @ P @ A - (B.conj().T @ P @ A).conj().T @ Cg + Lam - P
    Pi = A - B @ Cg
    return _hermitize(resid), L, Pi


def _check_lambda(filterbank, Lam):
    """Lambda as a finite n x n Hermitian matrix of the bank's field, else
    ValueError; the one validation behind is_in_Lplus and
    solve_dare_lambda."""
    Lam = _as_matrix(Lam, "Lambda")
    n = filterbank.n
    if Lam.shape != (n, n):
        raise ValueError(f"Lambda must be {n}x{n}, got {Lam.shape}")
    Lam = _check_hermitian(_check_finite(Lam, "Lambda"), "Lambda")
    return coerce_field(Lam, filterbank.field, what="Lambda")


def _lambda_additive(filterbank, Lam):
    """Q solving Q - A*QA = Lambda for Hermitian Lambda, and the additive
    data (A*, A*QB, B*, B*QB / 2) of the reduction, whose Z + Z* is
    G* Lambda G.  A* has the spectral radius the bank keeps."""
    A, B = filterbank.A, filterbank.B
    Ah = A.conj().T
    Q = _stein_solver(Ah, radius=filterbank._radius)(Lam)
    return Q, (Ah, Ah @ Q @ B, B.conj().T, 0.5 * B.conj().T @ Q @ B)


@dataclass(frozen=True)
class LplusDiagnostics:
    """Membership report for positivity of G* Lambda G on the circle:
    ``reason`` says why it is not positive (None when it is)."""

    member: bool
    reason: str | None

    def __bool__(self):
        return self.member


def is_in_Lplus(filterbank, Lam):
    """Check G(z)* Lambda G(z) > 0 on the unit circle.

    Lambda must be n x n, Hermitian to tolerance 1e-12 and, for a real
    bank, real (else ValueError).  Membership is decided exactly, by
    _circle_positivity on the additive data of the reduction
    Q - A*QA = Lambda; its finding is the diagnostics' ``reason``, the one
    solve_dare_lambda raises for the same Lambda.
    """
    Lam = _check_lambda(filterbank, Lam)
    why = _circle_positivity(*_lambda_additive(filterbank, Lam)[1])
    return LplusDiagnostics(member=why is None, reason=why)


def solve_dare_lambda(filterbank, Lam):
    """Stabilizing solution of P = A*PA - A*PB (B*PB)^{-1} B*PA + Lambda.

    Parameters
    ----------
    filterbank : FilterBank
    Lam : (n, n) Hermitian array whose induced density G* Lambda G is
        positive on the unit circle (decided exactly by _circle_positivity)

    Returns
    -------
    DareSolution
        With B*PB = L*L (reverse Cholesky: L lower triangular with positive
        diagonal) and closed loop A - B (B*PB)^{-1} B*PA; ``iterations``
        counts the doubling steps of the additive-form solve.
    """
    Lam = _check_lambda(filterbank, Lam)

    # Exact reduction: Q - A*QA = Lambda, then P = Q + X with X the
    # stabilizing solution of the additive form for
    # (F, G, H, J) = (A*, A*QB, B*, B*QB / 2).  Its Z + Z* is G* Lambda G,
    # so the one Stein solve for Q serves both the membership test and the
    # solve.
    Q, (F, G, H, J) = _lambda_additive(filterbank, Lam)
    why = _circle_positivity(F, G, H, J)
    if why is not None:
        raise MembershipError(
            f"G* Lambda G is not positive on the unit circle: {why}")
    # the additive form's own gates would repeat the ones below: its
    # innovation block is B*PB and its closed loop the adjoint of Pi
    X, iters = _sda_appendix(F, G, H, _hermitize(J + J.conj().T))
    P = _hermitize(Q + X)

    resid, L, Pi = _lambda_residual(filterbank.A, filterbank.B, Lam, P)
    rnorm = _residual_gate(resid, P)
    _stabilizing_gate(Pi, rnorm)
    return DareSolution(P=P, L=L, closed_loop=Pi, residual_norm=rnorm,
                        iterations=iters)
