"""Spectral factorization: the weight-to-factor map and outer factors."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spectral_homotopy import (FactorParameter, FilterBank, MembershipError,
                               circle_grid, constant_prior, density_values,
                               h_inverse, h_map,
                               left_outer_factor_from_additive,
                               prior_from_polynomial, right_outer_factor,
                               solve_dare_appendix, statespace)

from conftest import C_REF, random_additive_quadruple, relative_error


class TestWeightToFactor:
    def test_flat_weight_gives_pure_delay(self, fb):
        param = h_map(fb, fb.B @ fb.B.T)
        assert_allclose(param.C, fb.B.T, atol=1e-12)

    def test_scalar_weight_gives_square_root(self):
        fb1 = FilterBank(np.array([[0.7]]), np.array([[1.0]]))
        param = h_map(fb1, np.array([[2.5]]))
        assert_allclose(param.C, [[np.sqrt(2.5)]], rtol=1e-12)

    def test_factorization_identity_on_circle(self, fb, chart, param_ref):
        # G* Lambda G = |z C G|^2 pointwise is the defining property
        Lam = h_inverse(chart, param_ref)
        param = h_map(fb, Lam)
        z = np.exp(1j * circle_grid(512))
        Gz = fb.eval_grid(z)
        lhs = Gz.conj().transpose(0, 2, 1) @ Lam @ Gz
        W = z[:, None, None] * (param.C @ Gz)
        rhs = W.conj().transpose(0, 2, 1) @ W
        assert relative_error(rhs, lhs) < 1e-9

    def test_round_trip_from_factor_side(self, fb, chart, random_param, rng):
        for _ in range(20):
            p0 = random_param(rng)
            p1 = h_map(fb, h_inverse(chart, p0))
            assert relative_error(p1.C, p0.C) < 1e-8

    def test_round_trip_from_weight_side(self, fb, chart, random_param, rng):
        # weights live in the attainable subspace; h_inverse lands there, so
        # the composite must fix them
        for _ in range(20):
            Lam0 = h_inverse(chart, random_param(rng))
            Lam1 = h_inverse(chart, h_map(fb, Lam0))
            assert relative_error(Lam1, Lam0) < 1e-8

    def test_inverse_projects_gram_matrix(self, fb, chart):
        # C = B^T has Gram BB^T; the attainable representative averages the
        # two diagonal blocks
        Lam = h_inverse(chart, FactorParameter(fb, fb.B.T))
        assert_allclose(Lam, 0.5 * np.eye(4), atol=1e-12)

    def test_inverse_of_zero_is_zero(self, fb, chart):
        assert_allclose(chart.project_range_gamma(np.zeros((4, 4))),
                        np.zeros((4, 4)), atol=0)

    def test_h_map_builds_no_circle_grid(self, fb, chart, monkeypatch):
        # membership of Lambda is decided by the exact test on the additive
        # data of the Riccati reduction, so nothing is evaluated on a grid
        Lam = h_inverse(chart, C_REF)

        def no_grid(*args, **kwargs):
            raise AssertionError("h_map evaluated on a circle grid")

        monkeypatch.setattr(statespace, "circle_grid", no_grid)
        monkeypatch.setattr(statespace.FilterBank, "eval_grid", no_grid)
        monkeypatch.setattr(statespace.StateSpaceSystem, "eval_grid", no_grid)
        assert relative_error(h_map(fb, Lam).C, C_REF) < 1e-8

    def test_inverse_checks_a_matrix_as_factor_parameter_does(self, chart):
        # a 3x4 C used to give a 4x4 "Lambda" for the 2x4 bank
        with pytest.raises(ValueError, match="C must be 2x4"):
            h_inverse(chart, np.zeros((3, 4)))
        with pytest.raises(MembershipError, match="stable factor set"):
            h_inverse(chart, np.zeros((2, 4)))
        assert_allclose(h_inverse(chart, C_REF),
                        h_inverse(chart, FactorParameter(chart.filterbank,
                                                         C_REF)), atol=0)

    def test_inverse_takes_a_factor_parameter_as_it_is(self, chart,
                                                       param_ref,
                                                       monkeypatch):
        # no second membership check of a parameter that carries its own
        def forbidden(*args):
            raise AssertionError("membership checked again")

        monkeypatch.setattr(statespace, "_closed_loop", forbidden)
        Lam = h_inverse(chart, param_ref)
        assert_allclose(Lam, chart.project_range_gamma(
            param_ref.C.conj().T @ param_ref.C), atol=0)

    def test_inadmissible_weight_rejected(self, fb):
        with pytest.raises(MembershipError):
            h_map(fb, -np.eye(4))


class TestRightOuter:
    def test_evaluates_to_zCG(self, fb, param_ref):
        W = right_outer_factor(fb, param_ref)
        for z in np.exp(1j * np.array([0.0, 0.7, -2.1])):
            want = z * (param_ref.C @ fb.eval(z))
            assert_allclose(W.eval(z), want, atol=1e-12)

    def test_eval_grid_matches_eval(self, fb, param_ref):
        W = right_outer_factor(fb, param_ref)
        z = np.exp(1j * circle_grid(16))
        grid = W.eval_grid(z)
        for k in (0, 7, 15):
            assert_allclose(grid[k], W.eval(z[k]), atol=1e-13)

    def test_zeros_are_the_closed_loop_spectrum(self, fb, param_ref):
        # reference parameter: complex pair near the circle plus the
        # deferred-lag zeros at the origin
        zeros = np.linalg.eigvals(param_ref.Pi)
        zeros = zeros[np.argsort(-np.abs(zeros))]
        assert_allclose(zeros[:2].real, [0.9, 0.9], rtol=1e-7)
        assert_allclose(np.sort(zeros[:2].imag), [-0.39996875, 0.39996875],
                        rtol=1e-7)
        assert_allclose(np.abs(zeros[:2]), [0.9848730882707679] * 2,
                        rtol=1e-9)
        assert_allclose(zeros[2:], 0, atol=1e-12)

    def test_value_at_infinity_is_CB(self, fb, param_ref):
        W = right_outer_factor(fb, param_ref)
        assert_allclose(W.D, param_ref.CB, atol=0)
        assert_allclose(np.triu(param_ref.CB, 1), 0, atol=1e-14)


class TestLeftOuter:
    def test_constant_data(self):
        # Z identically 1/2 factors as W = 1
        W = left_outer_factor_from_additive(
            np.array([[0.5]]), np.array([[0.0]]), np.array([[0.0]]),
            np.array([[0.5]]))
        assert_allclose(W.eval(1.0), [[1.0]], rtol=1e-14)

    def test_random_quadruples_factor_on_circle(self, rng):
        z = np.exp(1j * circle_grid(512))
        for _ in range(5):
            (F, G, H, J), _ = random_additive_quadruple(rng)
            W = left_outer_factor_from_additive(F, G, H, J)
            sol = solve_dare_appendix(F, G, H, J)
            I = np.eye(F.shape[0])
            Zg = J + np.einsum(
                "ij,kjl->kil", H,
                np.linalg.solve(z[:, None, None] * I - F,
                                np.broadcast_to(G + 0j, (512,) + G.shape)))
            Wg = W.eval_grid(z)
            assert relative_error(
                Wg @ Wg.conj().transpose(0, 2, 1),
                Zg + Zg.conj().transpose(0, 2, 1)) < 1e-9
            # value at infinity carries the full constant term
            R = J + J.conj().T
            want = R + H @ sol.P @ H.conj().T
            Winf = W.D
            assert_allclose(Winf @ Winf.conj().T, want, rtol=1e-10)

    def test_factor_is_minimum_phase(self, rng):
        (F, G, H, J), _ = random_additive_quadruple(rng)
        W = left_outer_factor_from_additive(F, G, H, J)
        zero_dyn = W.A - W.B @ np.linalg.solve(W.D, W.C)
        assert np.max(np.abs(np.linalg.eigvals(zero_dyn))) < 1.0
        assert np.max(np.abs(np.linalg.eigvals(W.A))) < 1.0


class TestDensityValues:
    def test_flat_case_is_inverse_gram(self, fb):
        # psi = 1 and C = B^T give Phi = I
        theta = circle_grid(32)
        Phi = density_values(fb, fb.B.T, constant_prior(1.0), theta)
        assert_allclose(Phi, np.broadcast_to(np.eye(2), (32, 2, 2)),
                        atol=1e-12)

    def test_no_prior_is_the_flat_prior(self, fb, param_ref):
        # prior=None means constant_prior(1.0), as everywhere else
        theta = circle_grid(32)
        assert_allclose(density_values(fb, param_ref, None, theta),
                        density_values(fb, param_ref, constant_prior(1.0),
                                       theta), atol=0)

    def test_matches_direct_formula(self, fb, prior_ref, param_ref):
        theta = circle_grid(64)
        Phi = density_values(fb, param_ref, prior_ref, theta)
        z = np.exp(1j * theta)
        Gz = fb.eval_grid(z)
        W = z[:, None, None] * (param_ref.C @ Gz)
        psi = np.abs(prior_ref.sigma_values(theta)) ** 2
        want = psi[:, None, None] * np.linalg.inv(
            W.conj().transpose(0, 2, 1) @ W)
        assert_allclose(Phi, want, rtol=1e-9, atol=1e-12)

    def test_hermitian_positive(self, fb, prior_ref, param_ref):
        theta = circle_grid(128)
        Phi = density_values(fb, param_ref, prior_ref, theta)
        assert_allclose(Phi, Phi.conj().transpose(0, 2, 1), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(Phi)) > 0
