"""Stein and Riccati solvers, triangular factorizations."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spectral_homotopy import (FactorizationError, FactorParameter,
                               FilterBank, MembershipError, PriorSpectrum,
                               SolverError, StateSpaceSystem, circle_grid,
                               h_inverse, h_map, is_in_Lplus, make_chart,
                               make_covariance_extension_filter, matrixeq,
                               reverse_cholesky, solve_dare_appendix,
                               solve_dare_lambda, solve_dlyap,
                               standard_cholesky)

from spectral_homotopy.statespace import _fir_system

from conftest import random_additive_quadruple, relative_error


def stein_residual(A1, Q, X):
    return np.linalg.norm(X - A1 @ X @ A1.conj().T - Q)


class TestStein:
    def test_scalar_closed_form(self):
        # x - 0.25 x = 1
        X = solve_dlyap(np.array([[0.5]]), np.array([[1.0]]))
        assert_allclose(X, [[4.0 / 3.0]], rtol=1e-14)

    def test_nilpotent_gives_finite_sum(self, fb):
        Q = np.eye(4)
        X = solve_dlyap(fb.A, Q)
        want = Q + fb.A @ Q @ fb.A.T
        assert_allclose(X, want, atol=1e-14)

    def test_matches_truncated_series(self, rng):
        A1 = rng.standard_normal((3, 3))
        A1 *= 0.5 / np.max(np.abs(np.linalg.eigvals(A1)))
        Q0 = rng.standard_normal((3, 3))
        Q = Q0 + Q0.T
        X = solve_dlyap(A1, Q)
        S = np.zeros((3, 3))
        T = Q.copy()
        for _ in range(200):
            S += T
            T = A1 @ T @ A1.T
        assert_allclose(X, S, rtol=1e-12)
        assert stein_residual(A1, Q, X) < 1e-12

    def test_rejects_unstable_A(self):
        with pytest.raises(MembershipError, match="Schur"):
            solve_dlyap(np.array([[1.0]]), np.array([[1.0]]))

    @pytest.mark.parametrize("A1, Q, message", [
        (np.zeros((2, 3)), np.eye(2), "A1 must be nxn, got (2, 3)"),
        (0.5 * np.eye(2), np.eye(3), "Q must be 2x2 or kx2x2, got (3, 3)"),
        (0.5 * np.eye(2), np.zeros((1, 1, 2, 2)),
         "Q must be 2x2 or kx2x2, got (1, 1, 2, 2)"),
        (0.5 * np.eye(2), np.zeros((3, 2)),
         "Q must be 2x2 or kx2x2, got (3, 2)"),
        (np.zeros((1, 2, 2)), np.eye(2), "A1 must be nxn, got (1, 2, 2)")],
        ids=["non-square-A1", "Q-size", "4-d-Q", "non-square-Q", "3-d-A1"])
    def test_rejects_mismatched_shapes(self, A1, Q, message):
        # each named before numpy can raise on the shapes
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            solve_dlyap(A1, Q)

    def test_empty_equation_has_the_empty_solution(self):
        for Q in (np.zeros((0, 0)), np.zeros((3, 0, 0))):
            X = solve_dlyap(np.zeros((0, 0)), Q)
            assert X.shape == Q.shape

    def test_real_inputs_give_real_output(self, rng):
        A1 = 0.3 * rng.standard_normal((3, 3))
        Q = np.eye(3)
        assert not np.iscomplexobj(solve_dlyap(A1, Q))

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stack_matches_per_slice_solves(self, field, n, k, rng):
        A1, Q = _stable_and_stack(rng, field, n, k)
        R = solve_dlyap(A1, Q)
        assert R.shape == (k, n, n)
        assert np.iscomplexobj(R) == (field == "complex")
        for Ri, Qi in zip(R, Q):
            want = solve_dlyap(A1, Qi)
            assert np.linalg.norm(Ri - want) <= 1e-13 * np.linalg.norm(want)
            assert stein_residual(A1, Qi, Ri) <= 1e-11 * (
                1.0 + np.linalg.norm(Ri))

    def test_one_bad_slice_fails_the_whole_stack(self, rng, monkeypatch):
        A1, Q = _stable_and_stack(rng, "real", 4, 7)
        _corrupt_slice(monkeypatch, 3, 1e-6)
        with pytest.raises(SolverError, match="slice 3 of 7"):
            solve_dlyap(A1, Q)

    def test_non_finite_residual_fails_the_gate(self, rng, monkeypatch):
        # NaN compares false with any bound; it must fail, and be named as
        # the worst slice next to a finite failure
        A1, Q = _stable_and_stack(rng, "complex", 4, 7)
        _corrupt_slice(monkeypatch, 2, 1e-6)
        _corrupt_slice(monkeypatch, 5, np.nan)
        with pytest.raises(SolverError, match="nan .* slice 5 of 7"):
            solve_dlyap(A1, Q)

    @pytest.mark.parametrize("shape", ["random", "jordan"])
    @pytest.mark.parametrize("rho", [0.5, 0.985, 0.9999])
    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_kronecker_oracle(self, field, n, rho, shape, rng):
        # vec(A1 R A1*) = (A1 kron conj(A1)) vec(R) for row-major vec;
        # "jordan" is rho I + 3 (1 - rho) N, whose powers grow by up to
        # 1e3 before they decay
        if shape == "jordan":
            A1 = rho * np.eye(n) + 3.0 * (1.0 - rho) * np.eye(n, k=1)
            if field == "complex":
                A1 = np.exp(0.7j) * A1
        else:
            A1, _ = _stable_and_stack(rng, field, n, 1)
            A1 *= rho / 0.9
        K = np.eye(n * n) - np.kron(A1, A1.conj())
        for k in (1, 7):
            _, Q = _stable_and_stack(rng, field, n, k)
            R = solve_dlyap(A1, Q)
            for Ri, Qi in zip(R, Q):
                want = np.linalg.solve(K, Qi.ravel()).reshape(n, n)
                assert np.linalg.norm(Ri - want) <= 1e-10 * np.linalg.norm(
                    want)

    @pytest.mark.parametrize("rho", [1.0 - 1e-12, 1.0, 1.5])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rejects_radius_at_the_circle(self, field, rho):
        A1 = np.diag([0.5, rho, 0.1]).astype(
            complex if field == "complex" else float)
        with pytest.raises(MembershipError,
                           match=f"spectral radius {rho:.15g}"):
            solve_dlyap(A1, np.eye(3))

    def test_overflowing_powers_raise(self):
        # stable (radius 0.9), but A1^2 has an entry ~1e200 and the
        # solution entries ~1e400: not representable
        A1 = 0.9 * np.eye(3) + 1e100 * np.eye(3, k=1)
        with pytest.raises(SolverError, match="overflow"):
            solve_dlyap(A1, np.eye(3))

    def test_squaring_budget_is_enforced(self, monkeypatch):
        # radius 0.985 needs 11 squarings to reach the tail bound
        monkeypatch.setattr(matrixeq, "_MAX_SQUARINGS", 3)
        with pytest.raises(SolverError, match="do not decay in 3 squarings"):
            solve_dlyap(np.array([[0.985]]), np.array([[1.0]]))


def _corrupt_slice(monkeypatch, i, bad):
    """Make Smith's sum return slice i of every stack off by ``bad``."""
    smith_sum = matrixeq._smith_sum

    def corrupted(powers, Q):
        R = smith_sum(powers, Q)
        R[i] += bad
        return R

    monkeypatch.setattr(matrixeq, "_smith_sum", corrupted)


def _stable_and_stack(rng, field, n, k):
    """A Schur-stable A1 (spectral radius 0.9) and k random Hermitian Q."""
    def normal(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field == "complex" else x

    A1 = normal((n, n))
    A1 *= 0.9 / np.max(np.abs(np.linalg.eigvals(A1)))
    Q0 = normal((k, n, n))
    return A1, Q0 + Q0.conj().transpose(0, 2, 1)


class TestCholesky:
    def test_standard_known_factor(self):
        M = np.array([[4.0, 2.0], [2.0, 2.0]])
        L = standard_cholesky(M)
        assert_allclose(L, [[2.0, 0.0], [1.0, 1.0]], rtol=1e-14)

    def test_reverse_known_factor(self):
        # lower-triangular L with M = L* L (anti-ordered pivots)
        M = np.array([[2.0, 1.0], [1.0, 1.0]])
        L = reverse_cholesky(M)
        assert_allclose(L, [[1.0, 0.0], [1.0, 1.0]], rtol=1e-14)
        assert_allclose(L.conj().T @ L, M, rtol=1e-14)

    def test_reverse_diagonal(self):
        L = reverse_cholesky(np.diag([4.0, 9.0]))
        assert_allclose(L, np.diag([2.0, 3.0]), rtol=1e-14)

    def test_both_conventions_factor_random_spd(self, rng):
        for _ in range(10):
            X = rng.standard_normal((4, 4))
            M = X @ X.T + 4 * np.eye(4)
            Ls = standard_cholesky(M)
            Lr = reverse_cholesky(M)
            assert_allclose(Ls @ Ls.T, M, rtol=1e-12)
            assert_allclose(Lr.T @ Lr, M, rtol=1e-12)
            assert np.all(np.diag(Ls) > 0)
            assert np.all(np.diag(Lr) > 0)
            assert_allclose(np.triu(Ls, 1), 0, atol=1e-15)
            assert_allclose(np.triu(Lr, 1), 0, atol=1e-15)

    def test_non_square_input_is_named(self):
        for factor in (standard_cholesky, reverse_cholesky):
            with pytest.raises(ValueError, match=re.escape(
                    "M must be nxn, got (2, 3)")):
                factor(np.ones((2, 3)))

    def test_indefinite_input_names_pivot(self):
        M = np.diag([1.0, -1.0])
        with pytest.raises(FactorizationError) as exc:
            standard_cholesky(M)
        assert exc.value.pivot == 1


def dare_lambda_residual(fb, Lam, P):
    A, B = fb.A, fb.B
    M = B.conj().T @ P @ B
    K = np.linalg.solve(M, B.conj().T @ P @ A)
    return np.linalg.norm(
        P - (A.conj().T @ P @ A - A.conj().T @ P @ B @ K + Lam))


class TestLagWeightRiccati:
    def test_flat_weight_closed_form(self, fb):
        # Lambda = BB* reproduces the pure-delay factor: P = BB*, L = I
        Lam = fb.B @ fb.B.T
        sol = solve_dare_lambda(fb, Lam)
        assert_allclose(sol.P, Lam, atol=1e-13)
        assert_allclose(sol.L, np.eye(2), atol=1e-13)
        assert_allclose(sol.closed_loop, fb.A, atol=1e-13)

    def test_scalar_closed_form(self):
        from spectral_homotopy import FilterBank
        fb1 = FilterBank(np.array([[0.7]]), np.array([[1.0]]))
        sol = solve_dare_lambda(fb1, np.array([[2.5]]))
        # for m = n = 1 the quadratic term cancels the linear one exactly
        assert_allclose(sol.P, [[2.5]], rtol=1e-13)
        assert_allclose(sol.closed_loop, [[0.0]], atol=1e-13)
        assert_allclose(sol.L, [[np.sqrt(2.5)]], rtol=1e-13)

    def test_reference_weight(self, fb, chart, param_ref):
        Lam = h_inverse(chart, param_ref)
        sol = solve_dare_lambda(fb, Lam)
        assert dare_lambda_residual(fb, Lam, sol.P) <= 1e-10 * (
            1 + np.linalg.norm(sol.P))
        rho = float(np.max(np.abs(np.linalg.eigvals(sol.closed_loop))))
        assert_allclose(rho, 0.9848730882707679, rtol=1e-9)
        # L is lower triangular with positive diagonal, B*PB = L*L
        assert_allclose(np.triu(sol.L, 1), 0, atol=1e-14)
        assert np.all(np.diag(sol.L) > 0)
        assert_allclose(sol.L.conj().T @ sol.L,
                        fb.B.T @ sol.P @ fb.B, rtol=1e-12)

    def test_methods_agree(self, fb, chart, param_ref, random_param, rng):
        # the reference weight (closed-loop radius 0.985) and random ones
        params = [param_ref] + [random_param(rng) for _ in range(3)]
        for param in params:
            Lam = h_inverse(chart, param)
            sd = solve_dare_lambda(fb, Lam)
            # the direct lag-weight iteration is an independent oracle
            Pf = _fixed_point_lambda(fb.A, fb.B, Lam)
            assert_allclose(sd.P, Pf, rtol=1e-9, atol=1e-11)

    def test_each_gate_runs_once(self, fb, chart, param_ref, monkeypatch):
        # one residual gate, one innovation Cholesky and one closed-loop
        # spectral radius, all in lag-weight form: the additive form's are
        # the same checks, transposed
        Lam = h_inverse(chart, param_ref)
        calls = {"residual": 0, "cholesky": 0}
        radii = []

        def counted(kind, func):
            def wrapper(*args):
                calls[kind] += 1
                return func(*args)
            return wrapper

        for name in ("_appendix_residual", "_lambda_residual"):
            monkeypatch.setattr(matrixeq, name,
                                counted("residual", getattr(matrixeq, name)))
        monkeypatch.setattr(np.linalg, "cholesky",
                            counted("cholesky", np.linalg.cholesky))
        radius = matrixeq._spectral_radius
        monkeypatch.setattr(matrixeq, "_spectral_radius",
                            lambda A: radii.append(A) or radius(A))
        sol = solve_dare_lambda(fb, Lam)
        assert calls == {"residual": 1, "cholesky": 1}
        # the Stein solve for Q takes A*'s radius from the bank
        assert len(radii) == 1
        assert_array_equal(radii[0], sol.closed_loop)

    def test_inadmissible_weight_rejected(self, fb):
        with pytest.raises(MembershipError, match="positive"):
            solve_dare_lambda(fb, -np.eye(4))

    def test_shape_mismatch(self, fb):
        with pytest.raises(ValueError):
            solve_dare_lambda(fb, np.eye(3))


def additive_residual(F, G, H, J, P):
    R = J + J.conj().T
    S = G + F @ P @ H.conj().T
    M = R + H @ P @ H.conj().T
    return np.linalg.norm(
        P - (F @ P @ F.conj().T - S @ np.linalg.solve(M, S.conj().T)))


class TestAdditiveRiccati:
    def test_constant_part_short_circuits(self):
        # H = 0: P solves the Stein equation P = F P F* - G R^{-1} G*, here
        # P = P / 4 - 1 / 4, and the innovation factor is the square root of
        # R = J + J*; doubling reaches both like any other case
        F, G, H, J = (np.array([[v]]) for v in (0.5, 1.0, 0.0, 2.0))
        sol = solve_dare_appendix(F, G, H, J)
        assert_allclose(sol.P, [[-1.0 / 3.0]], rtol=1e-14)
        assert_allclose(sol.L, [[2.0]], rtol=1e-14)
        assert additive_residual(F, G, H, J, sol.P) \
            <= matrixeq.DARE_RESIDUAL_TOL * (1.0 + np.linalg.norm(sol.P))
        assert_array_equal(sol.closed_loop, F)

    def test_random_positive_quadruples(self, rng):
        z = np.exp(1j * circle_grid(512))
        for _ in range(5):
            (F, G, H, J), (A, B, Cs, D) = random_additive_quadruple(rng)
            # construction promises Z + Z* = S S* on the circle; verify the
            # sampler before trusting it
            I = np.eye(F.shape[0])
            Zg = J + np.einsum(
                "ij,kjl->kil", H,
                np.linalg.solve(z[:, None, None] * I - F,
                                np.broadcast_to(G + 0j, (512,) + G.shape)))
            Sg = D + np.einsum(
                "ij,kjl->kil", Cs,
                np.linalg.solve(z[:, None, None] * I - A,
                                np.broadcast_to(B + 0j, (512,) + B.shape)))
            assert_allclose(Zg + Zg.conj().transpose(0, 2, 1),
                            Sg @ Sg.conj().transpose(0, 2, 1), atol=1e-10)
            sol = solve_dare_appendix(F, G, H, J)
            assert additive_residual(F, G, H, J, sol.P) <= 1e-10 * (
                1 + np.linalg.norm(sol.P))
            rho = float(np.max(np.abs(np.linalg.eigvals(sol.closed_loop))))
            assert rho < 1.0

    def test_methods_agree(self, rng):
        (F, G, H, J), _ = random_additive_quadruple(rng)
        sd = solve_dare_appendix(F, G, H, J)
        Pf = _fixed_point_appendix(F, G, H, J + J.conj().T)
        assert_allclose(sd.P, Pf, rtol=1e-9, atol=1e-11)

    def test_rejects_indefinite_circle_values(self, rng):
        # Z(z) = 0.1 + 1/(z - 0.5) dips negative on the circle
        with pytest.raises(MembershipError, match="circle"):
            solve_dare_appendix(np.array([[0.5]]), np.array([[1.0]]),
                                np.array([[1.0]]), np.array([[0.1]]))

    def test_rejects_indefinite_constant_term(self):
        with pytest.raises(FactorizationError,
                           match=r"^J \+ J\* is not positive definite "
                                 r"\(min eigenvalue -2\.000e\+00\)$"):
            solve_dare_appendix(np.array([[0.5]]), np.array([[0.2]]),
                                np.array([[0.1]]), np.array([[-1.0]]))

    def test_mean_is_tested_once(self, rng, monkeypatch):
        # J + J* > 0 is decided by one eigvalsh of R per solve, which the
        # rest of the positivity test reuses
        (F, G, H, J), _ = random_additive_quadruple(rng)
        R = J + J.conj().T
        tested = []
        eigvalsh = np.linalg.eigvalsh

        def counted(X):
            if X.shape == R.shape and np.allclose(X, R, rtol=0, atol=1e-12):
                tested.append(X)
            return eigvalsh(X)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        solve_dare_appendix(F, G, H, J)
        assert len(tested) == 1

    def test_unconverged_doubling_names_its_last_update(self, rng,
                                                        monkeypatch):
        (F, G, H, J), _ = random_additive_quadruple(rng)
        monkeypatch.setattr(matrixeq, "ITER_BUDGET", 2)
        with pytest.raises(SolverError, match=(
                r"^doubling iteration did not converge in 2 steps \(last "
                r"relative update \d\.\d{3}e[+-]\d\d\)$")) as info:
            solve_dare_appendix(F, G, H, J)
        assert info.value.history == []

    def test_rejects_unstable_F(self):
        with pytest.raises(MembershipError, match="stable"):
            solve_dare_appendix(np.array([[1.1]]), np.array([[1.0]]),
                                np.array([[1.0]]), np.array([[5.0]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_dare_appendix(np.eye(2) * 0.1, np.ones((3, 1)),
                                np.ones((1, 2)), np.ones((1, 1)))

    def test_zero_states_need_no_special_case(self):
        # nz = 0: Z = J, so P is 0 x 0, L L* = J + J* and the closed loop
        # is the empty F
        J = np.array([[2.0, 0.5], [-0.3, 1.0]])
        sol = solve_dare_appendix(np.zeros((0, 0)), np.zeros((0, 2)),
                                  np.zeros((2, 0)), J)
        assert sol.P.shape == (0, 0) and sol.closed_loop.shape == (0, 0)
        assert_allclose(sol.L @ sol.L.T, J + J.T, rtol=1e-14)
        assert_array_equal(sol.L, np.tril(sol.L))
        assert np.all(np.diag(sol.L) > 0)


# The fixed-point iterations below are the test_methods_agree oracles for the
# doubling route.  They contract only linearly, at the squared spectral
# radius of the closed loop: at the reference weight (radius 0.985) the
# additive form needs 739 steps to reach matrixeq.ITER_UPDATE_TOL.
FIXED_POINT_BUDGET = 10000


def _fixed_point_appendix(F, G, H, R):
    """Stabilizing P of the additive form by P <- FPF* - K (R + HPH*) K*."""
    P = np.zeros_like(F, dtype=np.result_type(F, G, H, R, float))
    for _ in range(FIXED_POINT_BUDGET):
        Om = matrixeq._hermitize(R + H @ P @ H.conj().T)
        np.linalg.cholesky(Om)
        K = np.linalg.solve(Om.conj().T,
                            (G + F @ P @ H.conj().T).conj().T).conj().T
        Pn = matrixeq._hermitize(F @ P @ F.conj().T - K @ Om @ K.conj().T)
        delta = np.linalg.norm(Pn - P) / (1.0 + np.linalg.norm(Pn))
        P = Pn
        if delta <= matrixeq.ITER_UPDATE_TOL:
            return P
    raise AssertionError(f"no convergence in {FIXED_POINT_BUDGET} steps")


def _fixed_point_lambda(A, B, Lam):
    """Stabilizing P of the lag-weight form by its direct iteration."""
    # start from the Stein solution Q - A*QA = Lambda: B*QB is the circle
    # integral of G* Lambda G, so positive definite; B*Lambda B need not be
    P = solve_dlyap(A.conj().T, Lam)
    for _ in range(FIXED_POINT_BUDGET):
        M = matrixeq._hermitize(B.conj().T @ P @ B)
        np.linalg.cholesky(M)
        W = np.linalg.solve(M, B.conj().T @ P @ A)
        Pn = matrixeq._hermitize(
            A.conj().T @ P @ A - (B.conj().T @ P @ A).conj().T @ W + Lam)
        delta = np.linalg.norm(Pn - P) / (1.0 + np.linalg.norm(Pn))
        P = Pn
        if delta <= matrixeq.ITER_UPDATE_TOL:
            return P
    raise AssertionError(f"no convergence in {FIXED_POINT_BUDGET} steps")


def _counterexample_weight(eps):
    """Lambda on covext(1, 2) with G* Lambda G = (cos theta - cos a)^2 - eps.

    a = 2 pi 100.5 / 1024 lies halfway between two points of a 1024-point
    grid, whose minimum is +3.1e-6 for either sign of eps = 1e-9.
    """
    c = np.cos(2.0 * np.pi * 100.5 / 1024)
    return np.array([[0.5 + c * c - eps, -c, 0.25],
                     [-c, 0.0, 0.0],
                     [0.25, 0.0, 0.0]])


class TestCounterexample:
    fb = make_covariance_extension_filter(1, 2)

    def test_negative_dip_between_grid_points_is_rejected(self):
        Lam = _counterexample_weight(1e-9)
        diag = is_in_Lplus(self.fb, Lam)
        assert not diag.member
        # the reason names a zero next to the dip at a = 2 pi 100.5 / 1024,
        # which the grid alone would miss
        theta = re.fullmatch(r"it is singular at theta = (-?[0-9.]+)",
                             diag.reason)
        assert abs(abs(float(theta[1])) - 2 * np.pi * 100.5 / 1024) < 1e-4
        for solve in (h_map, solve_dare_lambda):
            with pytest.raises(MembershipError,
                               match=re.escape(diag.reason) + "$"):
                solve(self.fb, Lam)

    def test_positive_weight_near_the_boundary_solves(self):
        Lam = _counterexample_weight(-1e-9)
        assert is_in_Lplus(self.fb, Lam).member
        sol = solve_dare_lambda(self.fb, Lam)
        assert dare_lambda_residual(self.fb, Lam, sol.P) <= 1e-10 * (
            1 + np.linalg.norm(sol.P))
        param = h_map(self.fb, Lam)
        assert 0.999 < param.spectral_radius() < 1.0

    @pytest.mark.parametrize("b, positive", [([1.0, -1.0], False),
                                             ([0.0, 1.0], True)])
    def test_prior_density(self, b, positive):
        # sigma = b_0 + b_1 z^{-1}: 1 - z^{-1} vanishes at z = 1, while
        # z^{-1} has |sigma|^2 = 1 on the circle (though it is not outer)
        sigma = StateSpaceSystem([[0.0]], [[1.0]], [[b[1]]], [[b[0]]])
        why = _prior_positivity(sigma)
        if positive:
            assert why is None
        else:
            assert why is not None and "theta = 0.000000" in why
        with pytest.raises(MembershipError, match="sigma is not outer"):
            PriorSpectrum(sigma)

    @pytest.mark.parametrize("b, zero", [
        ([1.0, -2.0, 1.0], 0.0),
        ([1.0, -3.0, 3.0, -1.0], 0.0),
        ([1.0, -4.0, 6.0, -4.0, 1.0], 0.0),
        (np.poly([np.exp(0.3j)] * 2), 0.3),
        (np.poly([1.0, 0.999]), 0.0)])
    def test_prior_with_a_multiple_zero_on_the_circle(self, b, zero):
        # sigma = (1 - e^{i zero} z^{-1})^k for k = 2, 3, 4 gives psi a zero
        # of order 2k, which roundoff moves off the pencil's imaginary axis
        # by more than AXIS_TOL; the last has a simple zero beside a root
        # at 0.999
        why = _prior_positivity(_fir_system(b))
        assert why is not None and "singular at theta" in why
        theta = float(why.rsplit("= ", 1)[1])
        assert abs(theta - zero) < 1e-2
        with pytest.raises(MembershipError, match="sigma is not outer"):
            PriorSpectrum(_fir_system(b))


def _prior_positivity(sigma):
    """Why |sigma|^2 is not positive on the unit circle, or None, by the
    exact test: with Pc sigma's reachability Gramian, sigma sigma* = Z + Z*
    for the additive data (A, A Pc C* + B D*, C, (C Pc C* + D D*) / 2)."""
    A, B, C, D = sigma.A, sigma.B, sigma.C, sigma.D
    Pc = matrixeq._stein_solver(A)(B @ B.conj().T)
    return matrixeq._circle_positivity(
        A, A @ Pc @ C.conj().T + B @ D.conj().T, C,
        0.5 * (C @ Pc @ C.conj().T + D @ D.conj().T))


def _positivity_bank(bank, field):
    A = np.diag([0.5, -0.3, 0.7, 0.2])
    if bank == "diag":
        return FilterBank(A, np.ones((4, 1)), field=field)
    if bank == "diag2":
        B = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 1.0]])
        return FilterBank(A, B, field=field)
    return make_covariance_extension_filter(*bank, field=field)


def _ratio_min(fb, Lam0, theta):
    """Smallest eigenvalue of the pencil (G* Lam0 G, G* G) at each angle."""
    G = fb.eval_grid(np.exp(1j * theta))
    Gh = G.conj().transpose(0, 2, 1)
    L = np.linalg.cholesky(Gh @ G)
    X = np.linalg.solve(L, Gh @ Lam0 @ G)
    Y = np.linalg.solve(L, X.conj().transpose(0, 2, 1))
    return np.linalg.eigvalsh(0.5 * (Y + Y.conj().transpose(0, 2, 1)))[:, 0]


def _circle_minimum(fb, Lam0):
    """min over the circle of _ratio_min: a 2048-point grid, then five
    33-point zooms around each of the three lowest grid minima."""
    theta = circle_grid(2048)
    r = _ratio_min(fb, Lam0, theta)
    local = np.flatnonzero((r <= np.roll(r, 1)) & (r <= np.roll(r, -1)))
    best = np.inf
    for k in local[np.argsort(r[local])[:3]]:
        centre, half = theta[k], 2.0 * np.pi / 2048
        for _ in range(5):
            t = np.linspace(centre - half, centre + half, 33)
            rt = _ratio_min(fb, Lam0, t)
            centre, half = t[np.argmin(rt)], half / 16
        best = min(best, float(rt.min()))
    return best


class TestExactPositivity:
    """The exact test against a fine-grid truth, on weights at signed margins.

    Lambda = Lam0 - (mu - margin) I with mu the minimum of the smallest
    eigenvalue of the pencil (G* Lam0 G, G* G) over the circle.  Then
    G* Lambda G >= margin G* G > 0 for margin > 0, while for margin < 0 it
    is indefinite at the minimizer: the sign of the margin is the truth.
    """

    @pytest.mark.parametrize("bank, field", [
        ((1, 2), "real"), ((2, 1), "real"), ((3, 2), "real"),
        ((2, 1), "complex"), ("diag", "real"), ("diag2", "real"),
        ("diag2", "complex")])
    def test_matches_signed_margins_and_doubling_converges(self, bank, field,
                                                           rng):
        fb = _positivity_bank(bank, field)
        for k in range(12):
            X = rng.standard_normal((fb.n, fb.n))
            if fb.field == "complex":
                X = X + 1j * rng.standard_normal((fb.n, fb.n))
            Lam0 = 0.5 * (X + X.conj().T)
            margin = (-1) ** k * 10.0 ** rng.uniform(-6, -1)
            Lam = Lam0 - (_circle_minimum(fb, Lam0) - margin) * np.eye(fb.n)
            assert is_in_Lplus(fb, Lam).member == (margin > 0)
            if margin > 0:
                sol = solve_dare_lambda(fb, Lam)
                assert dare_lambda_residual(fb, Lam, sol.P) <= 1e-10 * (
                    1 + np.linalg.norm(sol.P))
            else:
                with pytest.raises(MembershipError, match="not positive"):
                    solve_dare_lambda(fb, Lam)


    def test_indefinite_everywhere_is_caught_at_minus_one(self):
        # G* Lambda G = I + 2 [[cos 2t, sin 2t], [sin 2t, -cos 2t]] has
        # eigenvalues 3 and -1 at every angle: it is never singular and its
        # mean J + J* = I is positive, so only the value at z = -1 tells
        fb = make_covariance_extension_filter(2, 2, field="complex")
        X = np.array([[1.0, -1j], [-1j, -1.0]])
        Lam = np.zeros((6, 6), dtype=complex)
        Lam[:2, :2] = np.eye(2)
        Lam[:2, 4:] = X
        Lam[4:, :2] = X.conj().T
        diag = is_in_Lplus(fb, Lam)
        assert not diag.member
        assert diag.reason == "its min eigenvalue at z = -1 is -1.000000e+00"
        with pytest.raises(MembershipError, match="at z = -1"):
            solve_dare_lambda(fb, Lam)


def _complex_param(fb, rng, radius):
    """C = [-C2 K, C2] on covext(2, 1): W = zCG = C2 (I - K z^{-1}), so the
    closed loop has the eigenvalues of K (spectral radius ``radius``) and
    two zeros; C2 = CB is lower triangular with positive diagonal."""
    K = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    K *= radius / np.max(np.abs(np.linalg.eigvals(K)))
    C2 = np.tril(rng.standard_normal((2, 2))
                 + 1j * rng.standard_normal((2, 2)))
    C2[np.diag_indices(2)] = 0.5 + rng.random(2)
    return FactorParameter(fb, np.hstack([-C2 @ K, C2]))


class TestComplexField:
    @pytest.mark.parametrize("radius", [0.5, 0.9, 0.99])
    def test_round_trip_and_residual(self, radius, rng):
        fb = make_covariance_extension_filter(2, 1, field="complex")
        param = _complex_param(fb, rng, radius)
        assert abs(param.spectral_radius() - radius) < 1e-12
        Lam = h_inverse(make_chart(fb), param)
        sol = solve_dare_lambda(fb, Lam)
        assert dare_lambda_residual(fb, Lam, sol.P) <= 1e-10 * (
            1 + np.linalg.norm(sol.P))
        assert relative_error(h_map(fb, Lam).C, param.C) < 1e-10
