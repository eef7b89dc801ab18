"""Moment maps, their derivatives, and coordinate charts.

The estimation problem matches state covariances: the moment of a density
Phi is integral(G Phi G*) dtheta / 2 pi.  Two parametrizations appear,

    f(psi, Lambda) = integral( G psi (G* Lambda G)^{-1} G* ),
    g(psi, C)      = integral( G psi (G* C* C G)^{-1} G* ),

together with their directional derivatives.  Both share one quadrature
kernel K = G M^{-1} G*: the derivative of either map in a direction D acting
inside M is -integral(psi K D K).  A GridPoint evaluates either map at one
point by quadrature: it walks the grid once, in blocks of a fixed byte
budget (GRID_BLOCK_BYTES), and adds each block's share into two arrays
whose size does not depend on the grid, after which its value, every
derivative and the Jacobian cost nothing that grows with the grid size, and
no array of it ever holds the whole grid.

Values of f and g live in the range of the covariance operator
Gamma: X = integral(G Phi G*) satisfies X - A X A* = B H + H* B* for some H,
and directions C of the factor set live in the ambient slice
c = {V : V B lower triangular with real diagonal}.  Both spaces have the
same real dimension M; CoordinateChart carries orthonormal bases of the two
(inner product Re trace(X Y*)) and converts between matrices and R^M.

g also evaluates without quadrature: G (z C G)^{-1} is realized by the
closed loop, so g(psi, C) = C_T P C_T* with P the controllability Gramian of
the cascade T = sigma G (z C G)^{-1}.  T's state matrix A_T is block upper
triangular, assembled from the closed loop Pi and the prior's per-channel
blow-up (built once per prior and m), so its spectral radius is known
without eigenvalues: Pi's from the factor parameter's membership check and
the prior's from its own.  A direction V moves T's realization
by dA_T = -X A_T, dB_T = -X B_T with X = C_T* B (CB)^{-1} V C_T, so the
derivative g'(psi, C; V) = C_T P' C_T* needs one more Stein solve,
P' - A_T P' A_T* = -(X P + P X*), for any V.  Every Stein equation at a
point has the same A_T, so one list of its squared powers A_T^(2^k)
(Smith's iteration, see matrixeq.solve_dlyap) serves the Gramian, all M
Jacobian columns (one stacked solve) and the verification of a direction
solve (see CascadePoint), for every homotopy prior (1 - t) + t psi:
g is affine in the density weight, so that prior is never factored.  The
Gramian routes are the only production routes for g (the continuation and
the CLI's cond_g); quadrature of g is implemented independently and the
tests hold the two against each other.  f = g o h, so the chain rule gives
f's Jacobian exactly from the same point: J_f = J_g J_{h^{-1}}^{-1}, where
J_{h^{-1}} (the range coordinates of V*C + C*V over the factor basis) does
not depend on the prior (see condition_numbers).  GridPoint, with
CascadePoint's interface and one grid knob, ``dtheta``, is the tests'
independent oracle for both maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, SolverError
from .matrixeq import _stein_solver
from .statespace import (_as_hermitian, _as_matrix, _as_param, _as_prior,
                         _as_stack, _hermitize, circle_grid, coerce_field,
                         grid_size_from_spacing)

__all__ = [
    "CascadePoint",
    "CoordinateChart",
    "JacobianSolveInfo",
    "make_chart",
    "build_range_gamma_basis",
    "build_factor_basis",
    "trace_inner",
    "GridPoint",
    "moment_g_statespace",
    "f_jacobian_from_g",
    "jacobian_condition_number",
    "condition_numbers",
]

DEFAULT_GRID_N = 4096
# GridPoint sums its grid in blocks whose kernel K takes this many bytes
# (1024 points at n = 4), so that its memory does not grow with the grid
GRID_BLOCK_BYTES = 2**18
BASIS_DROP_TOL = 1e-9
GRAM_COND_LIMIT = 1e14
VERIFY_TOL = 1e-8
# accumulated roundoff of a long Riemann sum; looser than the strict
# evaluation-route hygiene bound on purpose
QUAD_FIELD_TOL = 1e-9


def trace_inner(X, Y):
    """Real inner product Re trace(X Y*); both spaces here are real-linear."""
    return float(np.real(np.sum(np.asarray(X) * np.conj(Y))))


# ---------------------------------------------------------------------------
# quadrature kernel


def _kernel_grid(filterbank, prior, point, which, theta):
    """Values of psi and K = G M^{-1} G* at the angles ``theta``, for
    M = G* Lambda G or (CG)*(CG).

    One Cholesky factorization M = L L* per angle both gates positivity and
    solves: K = W* W with W = L^{-1} G*.  Where M is not positive definite,
    EvaluationError names the smallest eigenvalue of M over ``theta``.
    """
    G = filterbank.eval_grid(np.exp(1j * theta))
    Gh = G.conj().transpose(0, 2, 1)
    if which == "f":
        M = Gh @ point @ G
    else:
        CG = np.matmul(point, G)
        M = CG.conj().transpose(0, 2, 1) @ CG
    M = _hermitize(M)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(M).min())
        raise EvaluationError(
            "density boundary reached: G* (.) G has minimum grid eigenvalue "
            f"{min_eig:.6e}") from None
    W = np.linalg.solve(L, Gh)
    K = W.conj().transpose(0, 2, 1) @ W
    return prior.psi_values(theta), K


class GridPoint:
    """The quadrature oracle at one point: f at Lambda (``which="f"``,
    admitted as is_in_Lplus admits it: finite, n x n, Hermitian and of the
    bank's field, else ValueError naming Lambda) or g at C (``which="g"``,
    ``point`` a matrix or FactorParameter).  ``prior`` None is the flat
    prior psi = 1; a prior that is not a PriorSpectrum, or not even on a
    real bank, raises ValueError naming the prior, as for CascadePoint.

    It has CascadePoint's interface (value, derivatives, jacobian) and is
    implemented independently of it: one Riemann sum on a uniform circle
    grid, whose spacing is the divisor of 2 pi closest to ``dtheta``
    (DEFAULT_GRID_N points when ``dtheta`` is None).  The grid converges
    spectrally fast for the rational integrand.  The constructor walks the
    grid once, in contiguous blocks of angles in grid order (as many points
    as an n x n complex kernel per point fits into GRID_BLOCK_BYTES), and
    adds each block's share to two sums: the value, sum_k psi_k K_k / N,
    and Q = sum_k psi_k vec(K_k) vec(R_k)^T with R = K for f and R = C K
    for g.  So its memory is bounded by the block, not the grid (under
    2 MiB at n = 4 for any dtheta), and a grid of one block is summed
    exactly as one sum.  Entry (a, d) of sum_k psi_k K_k D R_k is then
    sum_{b,c} Q[a,b,c,d] D[b,c], so every derivative, and every column of
    the Jacobian, costs n^3 r operations whatever the grid size.  Where
    M = G* Lambda G or (CG)*(CG) is not positive definite at a grid point,
    EvaluationError (``density boundary``) names the smallest eigenvalue
    of M over that point's block.

    The derivative of f along dLambda is -integral(psi K dLambda K); that of
    g along V is -integral(psi K (V*C + C*V) K) = Y + Y* with
    Y = -integral(psi K V* (C K)), since K is Hermitian.  Where
    M = (CG)*(CG) is nearly singular, K blows up along the direction that
    C G nearly annihilates, so C K grows only like the square root of K.
    Forming C K at each grid point keeps that cancellation to roundoff; a
    grid sum with K on both sides rounds it away (cond_g off by 1e-5
    instead of 1e-9 at cond_g ~ 1e8).
    """

    def __init__(self, filterbank, prior, point, which="g", dtheta=None):
        prior = _as_prior(prior, filterbank.field)
        if which == "g":
            point = _as_param(filterbank, point).C
        elif which == "f":
            point = _as_hermitian(point, "Lambda", filterbank.field,
                                  (filterbank.n, filterbank.n))
        else:
            raise ValueError(f"unknown moment map {which!r}")
        N = DEFAULT_GRID_N if dtheta is None else grid_size_from_spacing(dtheta)
        n = filterbank.n
        # points per block: an n x n complex kernel takes 16 n^2 bytes
        size = max(1, GRID_BLOCK_BYTES // (16 * n * n))
        value = Q = 0
        for start in range(0, N, size):
            theta = circle_grid(N, start, min(start + size, N))
            psi, K = _kernel_grid(filterbank, prior, point, which, theta)
            R = point @ K if which == "g" else K
            value += np.tensordot(psi, K, axes=(0, 0))
            Q += K.reshape(len(K), n * n).T @ (psi[:, None]
                                               * R.reshape(len(K), -1))
        self.filterbank, self.which, self._N = filterbank, which, N
        self.field = filterbank.field
        self._value = _hermitize(value / N)
        self._Q = Q.reshape(n, n, -1, n)

    def value(self):
        """f(psi, Lambda) or g(psi, C)."""
        return coerce_field(self._value, self.field, tol=QUAD_FIELD_TOL,
                            what="moment value")

    def _columns(self, D):
        """The derivative along every direction of the stack D (for f without
        its Hermitian part taken; the chart's coordinates ignore it)."""
        if self.which == "g":
            D = D.conj().swapaxes(-1, -2)
        Y = -np.einsum("abcd,mbc->mad", self._Q, D) / self._N
        return Y + Y.conj().swapaxes(-1, -2) if self.which == "g" else Y

    def derivatives(self, D):
        """The derivative along one direction (an n x n dLambda for f, an
        m x n V for g) or along every direction of a (k, ., .) stack,
        stacked.  A direction of another shape, or with an imaginary part
        on a real bank, raises ValueError naming it."""
        fb = self.filterbank
        name, rows = ("V", fb.m) if self.which == "g" else ("dLambda", fb.n)
        D = _as_stack(D, name, (rows, fb.n), self.field)
        cols = self._columns(D if D.ndim == 3 else D[None])
        cols = coerce_field(_hermitize(cols), self.field, tol=QUAD_FIELD_TOL,
                            what="derivative value")
        return cols if D.ndim == 3 else cols[0]

    def jacobian(self, chart):
        """The Jacobian in chart coordinates: columns along the factor basis
        for g and along the range basis for f.  ``chart`` must be the chart
        of this point's bank object, else ValueError."""
        if chart.filterbank is not self.filterbank:
            raise ValueError("the chart is of another filter bank")
        basis = chart.factor_basis if self.which == "g" else chart.range_basis
        return chart.range_coords(self._columns(basis)).T


# ---------------------------------------------------------------------------
# integration-free evaluation


@dataclass(frozen=True, eq=False)
class JacobianSolveInfo:
    """Diagnostics of one linear-system solve against the g-Jacobian.

    ``verify_residual`` is a float for one right-hand side and a (k,) array,
    one relative residual per slice, for a stack of k.
    """

    gram_cond: float
    verify_residual: float | np.ndarray


class CascadePoint:
    """The exact route for g at one point (p_t, C), p_t = (1 - t) + t psi.

    One point gives the value g(p_t, C), the drift d/dt of it, the
    derivative along any direction, the Jacobian in chart coordinates and
    the verified direction solve, all from one Stein factorization.  ``C``
    may be a matrix or a FactorParameter; ``prior`` None is the flat prior
    psi = 1.  ``prior`` must be a PriorSpectrum or None, and on a real bank
    psi must be even; either violation raises ValueError naming the prior
    (statespace._as_prior).

    The cascade T = sigma G (z C G)^{-1} feeds the prior's states into the
    closed-loop realization (Pi, Bt, I, 0) that the FactorParameter keeps,

        A_T = [[Pi, Bt C_s], [0, A_s]],   B_T = [Bt D_s; B_s],   C_T = [I 0],

    where (A_s, B_s, C_s, D_s) = (A (x) I_m, B (x) I_m, C (x) I_m, D I_m)
    are the prior's per-channel copies, built once per prior and m
    (PriorSpectrum._blowup); a point assembles A_T in place around the
    parameter's Pi and Bt, with no realization objects.
    A_T is block upper triangular, so its spectral radius is the larger of
    Pi's (kept by the FactorParameter) and the prior's, and the Stein
    factorization's stability check needs no eigenvalues.  The flat prior
    drives the same A_T through the input [Bt; 0], so one stacked Stein
    solve gives both Gramians P_1 and P_psi; the point keeps the squared
    powers of A_T for every later Stein solve in the same matrix.  g is
    affine in the density weight, so p_t has the Gramian
    P_t = (1 - t) P_1 + t P_psi and needs no factor of its own; the value,
    every derivative column and the verification are linear in P_t.
    """

    def __init__(self, filterbank, prior, C, t=1.0):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        param = _as_param(filterbank, C)
        n, m = filterbank.n, filterbank.m
        prior = _as_prior(prior, filterbank.field)
        sigma = prior._blowup(m)
        q = sigma.n_states
        Bt = param.Bt
        dtype = np.result_type(param.Pi, Bt, sigma.A, sigma.D, float)
        A = np.zeros((n + q, n + q), dtype)
        A[:n, :n] = param.Pi
        A[:n, n:] = Bt @ sigma.C
        A[n:, n:] = sigma.A
        B, B1 = np.zeros((2, n + q, m), dtype)
        B[:n] = Bt @ sigma.D
        B[n:] = sigma.B
        B1[:n] = Bt
        self.A_T, self.B_T = A, B
        self.field = filterbank.field
        self.param = param
        self._n = n
        self._stein = _stein_solver(
            A, radius=max(param.spectral_radius(), prior._radius))
        # the one right-hand side built by matmul, Hermitized where it is
        # built: the Stein solve takes exactly Hermitian data
        P1, Ppsi = self._stein(
            _hermitize(np.array([B1 @ B1.conj().T, B @ B.conj().T])))
        self._P = (1.0 - t) * P1 + t * Ppsi
        self._P_drift = Ppsi - P1

    @property
    def C_T(self):
        """The cascade's output matrix [I 0]."""
        return np.eye(self._n, len(self.A_T))

    def _read(self, P, what):
        # C_T P C_T* is the leading n x n block (of each slice) of P, a copy;
        # the Stein solver returns exactly Hermitian slices, and P_t and the
        # drift are real combinations of them, so the block is Hermitian too
        return coerce_field(P[..., :self._n, :self._n].copy(), self.field,
                            what=what)

    def value(self):
        """g((1 - t) + t psi, C) = C_T P_t C_T*."""
        return self._read(self._P, "moment value")

    def drift(self):
        """d/dt of the value: g(psi, C) - g(1, C) = C_T (P_psi - P_1) C_T*.

        The moment map is affine in the density weight, so the drift does
        not depend on t; it is the inhomogeneous term of the path ODE.
        """
        return self._read(self._P_drift, "moment drift")

    def derivatives(self, V):
        """g'(p_t, C; V) for an m x n direction V, or for every V of a
        (k, m, n) stack, stacked; exact for every direction of the bank's
        field, not only the factor slice.

        Moving C along V moves the closed loop and the inner input matrix by
        dPi = -Bt V Pi and dBt = -Bt V Bt, so the cascade moves by
        dA_T = -X A_T and dB_T = -X B_T with X = C_T* Bt V C_T; the flat
        input [Bt; 0] moves by -X [Bt; 0] too.  Differentiating the Gramian
        equation gives the tangent Stein equation

            P' - A_T P' A_T* = -(X P + P X*),

        linear in P, so it holds for P = P_t, and g'(p_t, C; V) = C_T P' C_T*.
        All k equations share A_T, so they are one batched Stein solve.  A V
        of another shape, or with an imaginary part on a real bank, raises
        ValueError.
        """
        V = _as_stack(V, "V", self.param.C.shape, self.field)
        # X P = C_T* Bt V (C_T P): Bt V times the first n rows of P, over
        # zero rows
        n, P = self._n, self._P
        top = self.param.Bt @ V @ P[:n]
        XP = np.zeros(top.shape[:-2] + P.shape, top.dtype)
        XP[..., :n, :] = top
        dP = self._stein(-(XP + XP.conj().swapaxes(-1, -2)))
        return self._read(dP, "derivative value")

    def jacobian(self, chart):
        """J_g in chart coordinates: all M columns from one stacked solve.
        ``chart`` must be the chart of this point's bank object, else
        ValueError."""
        if chart.filterbank is not self.param.filterbank:
            raise ValueError("the chart is of another filter bank")
        return chart.range_coords(self.derivatives(chart.factor_basis)).T

    def solve(self, chart, Y):
        """Solve g'(p_t, C; V) = Y for a direction V in the factor slice, for
        one Y or for every Y of a (k, n, n) stack (V is then (k, m, n)).

        All M basis directions go through derivatives as one stacked tangent
        Stein solve, against the squared powers of A_T that the Gramian
        already computed; the verification below reuses them, so a solve
        factors A_T once.  The coefficients are characterized by the Gram
        normal equations in the image space (inner product Re trace);
        because the range basis is orthonormal, those reduce to the square
        coordinate system J alpha = coords(Y) with Gram = J^T J, and the
        solve is done on J so the error grows with cond(J), not cond(J)^2.
        The reported gram_cond is exactly the Gram-matrix condition number,
        cond(J)^2.  A stack shares the one Jacobian, its one SVD and its
        Gram gate, so the continuation's corrector gets its Newton step and
        the path tangent (right-hand side -drift) from one factorization.

        The solve works entirely in range coordinates.  Derivative values
        lie in the range subspace; any component of Y orthogonal to it is
        roundoff of a covariance difference (absolute machine noise, so its
        share of ||Y|| grows without bound as the rhs shrinks) and is
        discarded by the projection.  Y itself must be n x n (or a stack
        of such) and, on a real bank, real, else ValueError naming Y
        (statespace._as_stack): the range coordinates would drop an
        imaginary part unseen.  The returned V is verified by one more
        exact evaluation, one stacked Stein solve for a stack:
        ||g'(p_t, C; V) - Y|| <= VERIFY_TOL ||Y|| in the range metric, each
        slice against its own ||Y||.  A zero Y (or slice) gives a zero V with
        residual 0, and no SVD is taken when every Y is zero.

        Returns (V, JacobianSolveInfo).  Raises SolverError, once for the
        whole stack, when the Gram conditioning exceeds GRAM_COND_LIMIT or
        a slice fails verification, and ValueError, as jacobian does, for a
        chart of another bank, even when every Y is zero.
        """
        if chart.filterbank is not self.param.filterbank:
            raise ValueError("the chart is of another filter bank")
        Y = _as_stack(Y, "Y", (self._n, self._n), self.field)
        stacked = Y.ndim == 3
        yr = chart.range_coords(Y if stacked else Y[None])
        ynorm = np.linalg.norm(yr, axis=1)
        zero = ynorm == 0.0
        V = np.zeros((len(yr),) + self.param.C.shape, self.param.C.dtype)
        cond, resid = 1.0, np.zeros(len(yr))
        if not zero.all():
            # one SVD gives the Gram condition (s_0 / s_min)^2 and the solve
            U, sv, Vh = np.linalg.svd(self.jacobian(chart))
            with np.errstate(divide="ignore", invalid="ignore"):
                condJ = float(sv[0] / sv[-1])
            cond = condJ * condJ
            # NaN and inf fail it too
            if not cond <= GRAM_COND_LIMIT:
                raise SolverError(
                    f"Gram system condition {cond:.3e} exceeds limit "
                    f"{GRAM_COND_LIMIT:.1e}")
            # below the limit no singular value is under lstsq's default
            # cutoff, so this is the least-squares solution it would return
            V = chart.factor_from_coords(((yr @ U) / sv) @ Vh)
            err = np.linalg.norm(
                chart.range_coords(self.derivatives(V)) - yr, axis=1)
            np.divide(err, ynorm, out=resid, where=~zero)
            ok = resid <= VERIFY_TOL
            if not ok.all():
                i = int(np.argmin(ok))
                where = f" in slice {i} of {len(yr)}" if stacked else ""
                raise SolverError(
                    f"direction solve verification failed{where}: relative "
                    f"residual {resid[i]:.3e} exceeds {VERIFY_TOL:.1e}")
        return (V if stacked else V[0]), JacobianSolveInfo(
            gram_cond=cond,
            verify_residual=resid if stacked else float(resid[0]))


def moment_g_statespace(filterbank, prior, C):
    """g(psi, C) without quadrature.

    The integrand is the power spectrum of the cascade T = sigma G (z C G)^{-1},
    so g equals C_T P C_T* with P the controllability Gramian of T.
    """
    return CascadePoint(filterbank, prior, C).value()


# ---------------------------------------------------------------------------
# coordinate charts


def _field_matrix_basis(m, n, field):
    """The m x n matrix units, then (complex field) i times them, stacked."""
    units = np.eye(m * n).reshape(m * n, m, n)
    if field == "complex":
        return np.concatenate([units, 1j * units])
    return units


def build_range_gamma_basis(filterbank):
    """Orthonormal basis of the range of the covariance operator, stacked.

    A Hermitian X lies in the range iff X - A X A* = B H + H* B* for some
    m x n matrix H; sweeping H over a basis (one stacked Stein solve for
    all of them) spans the range.  One SVD of the solutions, written as real
    rows (real and imaginary parts, so the row inner product is Re trace),
    gives the basis: the right singular vectors whose singular values exceed
    BASIS_DROP_TOL times the largest.
    """
    fb = filterbank
    S = fb.B @ _field_matrix_basis(fb.m, fb.n, fb.field)
    raw = _stein_solver(fb.A, radius=fb._radius)(
        S + S.conj().swapaxes(-1, -2))
    rows = raw.reshape(len(raw), -1)
    if fb.field == "complex":
        rows = np.hstack([rows.real, rows.imag])
    _, sv, vh = np.linalg.svd(rows, full_matrices=False)
    vh = vh[sv > BASIS_DROP_TOL * sv[0]]
    if fb.field == "complex":
        vh = vh[:, :fb.n * fb.n] + 1j * vh[:, fb.n * fb.n:]
    # real combinations of the Hermitian solutions, Hermitian up to the
    # SVD's roundoff
    return _hermitize(vh.reshape(-1, fb.n, fb.n))


def build_factor_basis(filterbank):
    """Orthonormal basis of the slice {V : VB lower triangular, real diagonal},
    stacked as an (M, m, n) array.

    The slice is the null space of a real-linear constraint map: the
    above-diagonal entries of VB and, for the complex field, their imaginary
    parts and those of the diagonal.  One row of constraints per matrix unit
    of the field (orthonormal under Re trace); the left singular vectors past
    the numerical rank, contracted with the units, give the basis.
    """
    fb = filterbank
    units = _field_matrix_basis(fb.m, fb.n, fb.field)
    VB = units @ fb.B
    rows, cols = np.triu_indices(fb.m, 1)
    above = VB[:, rows, cols]
    if fb.field == "complex":
        K = np.hstack([above.real, above.imag,
                       np.diagonal(VB, axis1=1, axis2=2).imag])
    else:
        K = above
    u, s, _ = np.linalg.svd(K)
    rank = int(np.sum(s > np.finfo(float).eps * max(K.shape)
                      * s.max(initial=0.0)))
    return np.tensordot(u[:, rank:].T, units, axes=1)


def _coords(basis_h, X):
    """Re trace(X E*) for every E of a stacked basis, given as ``basis_h``,
    its flattened slices conjugated and as columns; X may be stacked."""
    X = np.asarray(X)
    return np.real(X.reshape(X.shape[:-2] + (-1,)) @ basis_h)


@dataclass(frozen=True, eq=False)
class CoordinateChart:
    """Orthonormal coordinates for moment values and factor directions.

    range_basis spans the range of the covariance operator (Hermitian
    matrices), factor_basis spans the ambient factor slice; both are
    orthonormal under Re trace(X Y*), both have length M (else
    SolverError), and both are stored stacked, as (M, n, n) and (M, m, n)
    arrays, so that converting any matrix, or a whole stack of them, is one
    contraction.  Construction marks both bases read-only, and keeps,
    read-only too, the conjugate transposes of the flattened bases that the
    coordinate maps contract with.
    """

    filterbank: object
    range_basis: np.ndarray
    factor_basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "range_basis", np.asarray(self.range_basis))
        object.__setattr__(self, "factor_basis", np.asarray(self.factor_basis))
        if len(self.range_basis) != len(self.factor_basis):
            raise SolverError(
                f"range/slice dimensions disagree ({len(self.range_basis)} "
                f"vs {len(self.factor_basis)}); the filter bank violates the "
                "standing rank assumptions")
        for name in ("range_basis", "factor_basis"):
            basis = getattr(self, name)
            basis_h = basis.reshape(len(basis), -1).conj().T
            for val in (basis, basis_h):
                val.setflags(write=False)
            object.__setattr__(self, f"_{name}_h", basis_h)

    @property
    def dim(self):
        return len(self.factor_basis)

    def range_coords(self, X):
        """Range coordinates of X, or (k, M) for a (k, n, n) stack."""
        return _coords(self._range_basis_h, X)

    def range_from_coords(self, y):
        y = np.asarray(y, dtype=float).ravel()
        return np.tensordot(y, self.range_basis, axes=1)

    def project_range_gamma(self, X):
        """Orthogonal projection onto the range of the covariance operator."""
        return self.range_from_coords(self.range_coords(X))

    def range_residual(self, X):
        """Distance of X from the range, relative to its own norm."""
        nrm = float(np.linalg.norm(X))
        if nrm == 0.0:
            return 0.0
        return float(np.linalg.norm(X - self.project_range_gamma(X))) / nrm

    def factor_coords(self, V):
        """Factor coordinates of V, or (k, M) for a (k, m, n) stack."""
        return _coords(self._factor_basis_h, V)

    def factor_from_coords(self, y):
        """The factor direction with coordinates y, or (k, m, n) for a
        (k, M) stack."""
        y = np.asarray(y, dtype=float)
        V = y @ self.factor_basis.reshape(self.dim, -1)
        return V.reshape(y.shape[:-1] + self.factor_basis.shape[1:])


def make_chart(filterbank):
    """The CoordinateChart of a filter bank: its range and factor bases.

    Any orthonormal bases serve; Newton directions and predictions do not
    depend on the choice.  Bases of different lengths raise SolverError.
    The chart depends on the bank alone, so it is built on the first call
    for a bank, with read-only bases, and kept on the bank; every later
    call returns that chart.  Threads that race on a bank's first call may
    each build one: the builds are equal bit for bit, and the bank keeps
    the last.
    """
    chart = filterbank._chart
    if chart is None:
        chart = CoordinateChart(
            filterbank=filterbank,
            range_basis=build_range_gamma_basis(filterbank),
            factor_basis=build_factor_basis(filterbank))
        object.__setattr__(filterbank, "_chart", chart)
    return chart


# ---------------------------------------------------------------------------
# Jacobians


def jacobian_condition_number(chart, prior, point, which="g",
                              route="quadrature", dtheta=None):
    """Spectral condition number of the chart-coordinate Jacobian.

    Route "statespace" (g only) reads the Jacobian off a CascadePoint at the
    parameter ``point``; route "quadrature" off a GridPoint of spacing
    ``dtheta`` at ``point`` (C for g, Lambda for f).  Invariant (up to
    discretization error) under orthonormal changes of either basis, since
    those act by orthogonal matrices on each side.
    """
    if route == "statespace":
        if which != "g":
            raise ValueError(
                "the exact Gramian route only evaluates the factor-side map")
        oracle = CascadePoint(chart.filterbank, prior, point)
    elif route == "quadrature":
        oracle = GridPoint(chart.filterbank, prior, point, which, dtheta)
    else:
        raise ValueError(f"unknown route {route!r}")
    return float(np.linalg.cond(oracle.jacobian(chart)))


def _h_inverse_jacobian(chart, C):
    """M x M Jacobian of h^{-1} at the factor C in chart coordinates.

    h^{-1}(C) is the range projection of C*C, so the column along a factor
    basis direction V is the range coordinates of V*C + C*V: one chart
    contraction for all M columns.  It does not depend on the prior.
    """
    Cm = _as_param(chart.filterbank, C).C
    CV = Cm.conj().T @ chart.factor_basis
    return chart.range_coords(CV + CV.conj().swapaxes(-1, -2)).T


def f_jacobian_from_g(chart, C, J_g):
    """J_f at Lambda = h^{-1}(C) from J_g at C, by the chain rule.

    g = f o h^{-1}, so J_g = J_f J_{h^{-1}} and J_f = J_g J_{h^{-1}}^{-1}:
    one linear solve, J_{h^{-1}}^T J_f^T = J_g^T.  h^{-1} is a
    diffeomorphism from the factor set onto the weights, so J_{h^{-1}} is
    invertible there; a singular or non-finite one raises SolverError.
    A J_g that is not a finite M x M matrix raises ValueError naming it.
    """
    J_g = _as_matrix(J_g, "J_g", (chart.dim, chart.dim))
    H = _h_inverse_jacobian(chart, C)
    if not np.all(np.isfinite(H)):
        raise SolverError("Jacobian of h^{-1} has non-finite entries")
    try:
        return np.linalg.solve(H.T, J_g.T).T
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Jacobian of h^{{-1}} is singular ({exc})") from None


def condition_numbers(chart, prior, C):
    """(cond_g, cond_f): the Jacobian conditions of g at C and of f at
    Lambda = h^{-1}(C), both exact.

    J_g comes from one cascade point (one stacked tangent Stein solve) and
    J_f from it by the chain rule (f_jacobian_from_g); no grid is built.
    """
    point = CascadePoint(chart.filterbank, prior, C)
    J_g = point.jacobian(chart)
    J_f = f_jacobian_from_g(chart, point.param, J_g)
    return float(np.linalg.cond(J_g)), float(np.linalg.cond(J_f))
