"""Homotopy continuation: start, predictor, corrector, path, writers."""

import dataclasses
import inspect
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spectral_homotopy import (ConfigError, FactorParameter, FilterBank,
                               HomotopyConfig, MembershipError, PriorSpectrum,
                               SolutionPath, SolverError,
                               SpectralHomotopyError,
                               StateSpaceSystem,
                               constant_prior, continuation, corrector_newton,
                               factorization, make_chart,
                               make_covariance_extension_filter,
                               maxent_initialization, matrixeq, moment,
                               moment_g_statespace, prior_from_outer,
                               run_continuation,
                               statespace, write_path_csv, write_path_json)
from spectral_homotopy.statespace import _fir_system

from conftest import (B_REF, C_REF, ROUND_TRIP_BANKS, draw_param,
                      draw_prior, draw_random_bank, make_bank,
                      relative_error, rotated_chart)

# a factor parameter of the complex covext(2, 1) bank
C_COMPLEX = np.array([[0.3 + 0.2j, -0.2 + 0.1j, 1.0, 0.0],
                      [-0.4 + 0.3j, 0.1 - 0.2j, 0.5 - 0.5j, 1.5]])


class TestMaxent:
    def test_identity_covariance(self, fb):
        param = maxent_initialization(fb, np.eye(4))
        assert_allclose(param.C, fb.B.T, atol=1e-12)

    def test_defining_equation(self, fb, random_sigma, rng):
        for _ in range(5):
            Sigma = random_sigma(rng)
            param = maxent_initialization(fb, Sigma)
            got = moment_g_statespace(fb, None, param)
            assert relative_error(got, Sigma) < 1e-9

    @pytest.mark.parametrize("scale", [1e-8, 1e-6, 1.0, 1e3])
    def test_defining_equation_at_any_scale(self, fb, sigma_ref, scale):
        # CB is made exactly L, so at a small scale of Sigma the roundoff
        # above its diagonal does not fail the absolute membership tolerance
        Sigma = scale * sigma_ref
        param = maxent_initialization(fb, Sigma)
        got = moment_g_statespace(fb, None, param)
        assert relative_error(got, Sigma) <= 1e-9

    def test_rejects_indefinite(self, fb):
        with pytest.raises(MembershipError, match="positive definite"):
            maxent_initialization(fb, np.diag([1.0, 1.0, 1.0, -0.1]))

    def test_rejects_unattainable(self, fb):
        # unequal diagonal blocks cannot be a covariance of the lag window
        with pytest.raises(MembershipError, match="attainable"):
            maxent_initialization(fb, np.diag([1.0, 1.0, 2.0, 1.0]))

    def test_rejects_non_hermitian(self, fb):
        M = np.eye(4)
        M[0, 1] = 0.5
        with pytest.raises((MembershipError, ValueError)):
            maxent_initialization(fb, M)

    def test_rejects_a_sigma_of_another_size(self, fb):
        with pytest.raises(ValueError,
                           match=re.escape("Sigma must be 4x4, got (3, 3)")):
            maxent_initialization(fb, np.eye(3))

    def test_zero_sigma_is_one_finding(self, fb):
        # its range residual is 0 by definition, not 0 / 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, findings, eig_min, rr = continuation._check_covariance(
                make_chart(fb), np.zeros((4, 4)))
            with pytest.raises(MembershipError, match=re.escape(
                    "Sigma is not positive definite (min eigenvalue "
                    "0.000000e+00)")):
                maxent_initialization(fb, np.zeros((4, 4)))
        assert findings == [
            "not positive definite (min eigenvalue 0.000000e+00)"]
        assert (eig_min, rr) == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, fb, prior_ref, bad):
        # a ValueError naming Sigma before any eigenvalue computation, which
        # would fail to converge on such a matrix
        Sigma = np.eye(4)
        Sigma[1, 1] = bad
        for start in (lambda: maxent_initialization(fb, Sigma),
                      lambda: run_continuation(fb, prior_ref, Sigma)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError,
                                   match="Sigma has non-finite entries"):
                    start()


class TestPredictorCorrector:
    def test_corrector_accepts_exact_solution(self, fb, chart, prior_ref,
                                              sigma_ref, param_ref):
        cfg = HomotopyConfig(newton_tol=1e-10)
        point, rnorm, iters, _, tangent = corrector_newton(
            chart, prior_ref, 1.0, param_ref, sigma_ref, cfg)
        assert iters == 0
        assert tangent is None
        assert rnorm <= 1e-10
        assert_array_equal(point.param.C, param_ref.C)

    def test_corrector_recovers_from_perturbation(self, fb, chart, prior_ref,
                                                  sigma_ref, param_ref, rng):
        bump = chart.factor_from_coords(1e-3 * rng.standard_normal(chart.dim))
        start = FactorParameter(fb, param_ref.C + bump)
        cfg = HomotopyConfig(newton_tol=1e-10)
        point, rnorm, iters, _, tangent = corrector_newton(
            chart, prior_ref, 1.0, start, sigma_ref, cfg)
        assert rnorm <= 1e-10
        assert tangent is None  # t = 1 needs no tangent
        assert 1 <= iters <= 6
        assert relative_error(point.param.C, param_ref.C) < 1e-7

    def test_corrector_budget_exhaustion(self, fb, chart, prior_ref,
                                         sigma_ref, param_ref, rng,
                                         monkeypatch):
        bump = chart.factor_from_coords(1e-3 * rng.standard_normal(chart.dim))
        start = FactorParameter(fb, param_ref.C + bump)
        monkeypatch.setattr(continuation, "MAX_NEWTON", 1)
        solve, solves = moment.CascadePoint.solve, []

        def counted(self, chart, Y):
            solves.append(Y)
            return solve(self, chart, Y)

        monkeypatch.setattr(moment.CascadePoint, "solve", counted)
        cfg = HomotopyConfig(newton_tol=1e-15)
        with pytest.raises(SolverError, match="in 1 iterations"):
            corrector_newton(chart, prior_ref, 1.0, start, sigma_ref, cfg)
        assert len(solves) == 1

    def test_corrector_returns_the_last_iterates_tangent(
            self, fb, chart, prior_ref, sigma_ref, rng):
        # at t < 1 the Newton step and the tangent come from one Jacobian,
        # the last iterate's: with one iteration, the start's.  The bump puts
        # the start outside the tube, and one iterate brings it inside
        on_path = run_continuation(fb, prior_ref, sigma_ref,
                                   config=HomotopyConfig(dt=0.5)).samples[1]
        assert on_path.t == 0.5
        bump = chart.factor_from_coords(3e-4 * rng.standard_normal(chart.dim))
        start = FactorParameter(fb, on_path.C + bump)
        first = moment.CascadePoint(fb, prior_ref, start, 0.5)
        tube = continuation.PATH_TOL * np.linalg.norm(sigma_ref)
        assert np.linalg.norm(sigma_ref - first.value()) > 2.0 * tube
        point, rnorm, iters, gram_cond, tangent = corrector_newton(
            chart, prior_ref, 0.5, start, sigma_ref, HomotopyConfig())
        assert iters == 1
        want, info = first.solve(chart, -first.drift())
        assert relative_error(tangent, want) < 1e-9
        assert gram_cond == info.gram_cond
        # one Newton step away from the accepted point's own tangent
        own, _ = point.solve(chart, -point.drift())
        assert 0.0 < relative_error(tangent, own) < 1e-3

    def test_corrector_solves_the_tangent_of_an_accepted_prediction(
            self, fb, chart, prior_ref, sigma_ref):
        # a prediction inside the tube takes no iterate, and the corrector
        # solves the tangent at the accepted point itself: every t < 1
        # returns a tangent
        on_path = run_continuation(fb, prior_ref, sigma_ref,
                                   config=HomotopyConfig(dt=0.5)).samples[1]
        assert on_path.t == 0.5
        start = FactorParameter(fb, on_path.C)
        point, rnorm, iters, gram_cond, tangent = corrector_newton(
            chart, prior_ref, 0.5, start, sigma_ref, HomotopyConfig())
        assert iters == 0 and rnorm == on_path.residual
        assert point.param is start
        want, info = point.solve(chart, -point.drift())
        assert_array_equal(tangent, want)
        assert gram_cond == info.gram_cond

    def test_one_membership_check_per_candidate(self, fb, chart, prior_ref,
                                                sigma_ref, param_ref, rng,
                                                monkeypatch):
        # the candidate's FactorParameter is its membership check: one
        # closed-loop computation (CB, Pi and its eigenvalues) per Newton
        # candidate
        bump = chart.factor_from_coords(1e-3 * rng.standard_normal(chart.dim))
        start = FactorParameter(fb, param_ref.C + bump)
        checks = []
        closed_loop = statespace._closed_loop

        def counted(*args, **kwargs):
            checks.append(args)
            return closed_loop(*args, **kwargs)

        monkeypatch.setattr(statespace, "_closed_loop", counted)
        _, _, iters, _, _ = corrector_newton(chart, prior_ref, 1.0, start,
                                             sigma_ref, HomotopyConfig())
        assert iters >= 1
        # every full Newton step stayed feasible, so one candidate each
        assert len(checks) == iters

    def test_predictor_moves_toward_prior(self, fb, chart, prior_ref,
                                          sigma_ref):
        # one Euler step from t = 0 must reduce the t = 1 residual
        start = maxent_initialization(fb, sigma_ref)
        point = moment.CascadePoint(fb, prior_ref, start, 0.0)
        v, info = point.solve(chart, -point.drift())
        C_pred = start.C + 0.1 * v
        assert info.verify_residual <= 1e-8
        r0 = np.linalg.norm(
            moment_g_statespace(fb, prior_ref, start) - sigma_ref)
        r1 = np.linalg.norm(
            moment_g_statespace(fb, prior_ref, FactorParameter(fb, C_pred))
            - sigma_ref)
        assert r1 < r0

    def test_predictor_is_stationary_for_flat_prior(self, fb, chart,
                                                    sigma_ref):
        start = maxent_initialization(fb, sigma_ref)
        flat = constant_prior(1.0)
        point = moment.CascadePoint(fb, flat, start, 0.0)
        v, _ = point.solve(chart, -point.drift())
        C_pred = start.C + 0.1 * v
        assert np.linalg.norm(v) < 1e-10
        assert_allclose(C_pred, start.C, atol=1e-11)

    def test_hermite_increment_reproduces_a_cubic(self):
        # from two samples of a cubic path and its derivatives, the
        # predictor extrapolates the path exactly
        c = np.random.default_rng(1).standard_normal((4, 3))

        def y(t):
            return c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3

        def dy(t):
            return c[1] + 2.0 * c[2] * t + 3.0 * c[3] * t**2

        t0, t1 = 0.3, 0.45
        for dt in (0.025, 0.15, 0.4):
            step = continuation._hermite_increment(t1 - t0, dt, y(t0), dy(t0),
                                                   y(t1), dy(t1))
            assert_allclose(y(t1) + step, y(t1 + dt), rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("dt", [0.1, 0.05])
    def test_prediction_stays_in_the_slice(self, dt):
        # Newton directions never correct the part of C outside the factor
        # slice, here Im diag(CB); the prediction is an increment of the last
        # C in factor coordinates, so that part stays at roundoff (a cubic
        # combination of the samples' matrices amplifies it fivefold per
        # step at s = 2, until membership fails and the run stalls)
        fb = make_bank("diag", "complex")
        rng = np.random.default_rng(0)
        prior = draw_prior(rng, "polynomial", "complex")
        C_true = draw_param(fb, rng).C
        Sigma = moment_g_statespace(fb, prior, FactorParameter(fb, C_true))
        path = run_continuation(fb, prior, Sigma, config=HomotopyConfig(dt=dt))
        assert path.final.t == 1.0
        off_slice = max(float(np.max(np.abs(np.diag(s.C @ fb.B).imag)))
                        for s in path.samples)
        assert off_slice <= 1e-14


class TestRunContinuation:
    def test_reference_problem_step_count_and_recovery(self, fb, prior_ref,
                                                       sigma_ref, c_ref):
        cfg = HomotopyConfig(dt=0.1, newton_tol=1e-10)
        path = run_continuation(fb, prior_ref, sigma_ref, config=cfg)
        assert len(path.samples) == 11
        assert path.final.t == 1.0
        assert np.linalg.norm(path.final.C - c_ref) < 1e-6
        gfin = moment_g_statespace(fb, prior_ref, path.final_parameter())
        assert np.linalg.norm(gfin - sigma_ref) <= 1e-10

    def test_times_are_uniform_with_snap(self, fb, prior_ref, sigma_ref):
        path = run_continuation(fb, prior_ref, sigma_ref,
                                config=HomotopyConfig(dt=0.5))
        assert_allclose([s.t for s in path.samples], [0.0, 0.5, 1.0],
                        atol=1e-15)

    def test_flat_prior_path_is_constant(self, fb, sigma_ref):
        path = run_continuation(fb, constant_prior(1.0), sigma_ref)
        y0 = path.samples[0].y
        for s in path.samples[1:]:
            assert np.max(np.abs(s.y - y0)) <= 1e-10

    def test_endpoint_independent_of_step_size(self, fb, prior_ref,
                                               sigma_ref):
        ends = []
        for dt in (0.5, 0.2):
            path = run_continuation(fb, prior_ref, sigma_ref,
                                    config=HomotopyConfig(dt=dt))
            ends.append(path.final.C)
        assert np.linalg.norm(ends[0] - ends[1]) < 1e-6

    def test_infeasible_covariance_raises(self, fb, prior_ref):
        with pytest.raises(MembershipError, match="attainable"):
            run_continuation(fb, prior_ref, np.diag([1.0, 1.0, 2.0, 1.0]))

    def test_impossible_tolerance_reports_history(self, fb, prior_ref,
                                                  sigma_ref, monkeypatch):
        # a smaller floor and budget than the constants' stall the same way,
        # only sooner
        monkeypatch.setattr(continuation, "MIN_DT", 0.4)
        monkeypatch.setattr(continuation, "MAX_NEWTON", 2)
        cfg = HomotopyConfig(dt=0.5, newton_tol=1e-16)
        with pytest.raises(SolverError, match="stalled at t = 0: step size "
                           "fell below the smallest step 4.0e-01") as exc:
            run_continuation(fb, prior_ref, sigma_ref, config=cfg)
        # the first step fails its 2 iterations, and half of it is below
        # the floor
        assert [h[:2] for h in exc.value.history] == [(0.0, 0.5)]
        assert "in 2 iterations" in exc.value.history[0][2]

    def test_complex_field_round_trip(self, prior_ref):
        fbc = make_covariance_extension_filter(2, 1, field="complex")
        C_true = C_COMPLEX
        Sigma = moment_g_statespace(fbc, prior_ref,
                                    FactorParameter(fbc, C_true))
        path = run_continuation(fbc, prior_ref, Sigma)
        assert len(path.samples) == 11
        assert np.linalg.norm(path.final.C - C_true) \
            <= 1e-6 * np.linalg.norm(C_true)

    def test_infeasible_newton_candidate_halves_the_step(
            self, fb, prior_ref, sigma_ref, monkeypatch):
        # the corrector takes full Newton steps; a candidate outside the
        # factor set rejects the continuation step, which is retried at dt / 2
        solve = moment.CascadePoint.solve
        calls = []

        def leaving_solve(self, chart, Y):
            V, info = solve(self, chart, Y)
            calls.append(Y)
            # call 1 is the tangent at t = 0, call 2 the first Newton
            # direction at t = 0.1, stacked with that iterate's tangent;
            # C + V = -C has a negative diagonal of CB
            if len(calls) == 2:
                assert np.shape(Y) == (2, fb.n, fb.n)
                V = np.stack([-2.0 * self.param.C, V[1]])
            return V, info

        monkeypatch.setattr(moment.CascadePoint, "solve", leaving_solve)
        path = run_continuation(fb, prior_ref, sigma_ref)
        assert_allclose([s.t for s in path.samples[:3]], [0.0, 0.05, 0.15],
                        rtol=0, atol=1e-15)
        assert path.final.t == 1.0

    def test_failed_tangent_solve_raises_at_once(self, fb, prior_ref,
                                                 sigma_ref, monkeypatch):
        # halving dt cannot change the tangent, so its failure is final
        calls = []

        def failing_solve(*args, **kwargs):
            calls.append(args)
            raise SolverError("Gram system condition 1e+16 exceeds limit")

        monkeypatch.setattr(moment.CascadePoint, "solve", failing_solve)
        with pytest.raises(SolverError, match="tangent solve failed") as exc:
            run_continuation(fb, prior_ref, sigma_ref)
        assert len(calls) == 1
        assert len(exc.value.history) == 1

    def test_failed_tangent_solve_after_the_start_halves_the_step(
            self, fb, prior_ref, sigma_ref, c_ref, monkeypatch):
        # the prediction at t = 0.3 lies in the tube, so the corrector solves
        # the tangent at the accepted point; that solve failing is a failed
        # step like any other, retried from t = 0.2 at half the step
        reason = "Gram system condition 1e+16 exceeds limit"
        at, failed = [], []
        corrector = continuation.corrector_newton
        solve = moment.CascadePoint.solve

        def tracked(chart, prior, t, *args):
            at.append(t)
            return corrector(chart, prior, t, *args)

        def failing_once(self, chart, Y):
            if not failed and at and abs(at[-1] - 0.3) < 1e-12:
                assert np.shape(Y) == (fb.n, fb.n)
                failed.append(Y)
                raise SolverError(reason)
            return solve(self, chart, Y)

        monkeypatch.setattr(continuation, "corrector_newton", tracked)
        monkeypatch.setattr(moment.CascadePoint, "solve", failing_once)
        path = run_continuation(fb, prior_ref, sigma_ref)
        assert len(failed) == 1
        times = [0.25 + 0.1 * k for k in range(8)] + [1.0]
        assert_allclose(at, [0.1, 0.2, 0.3] + times, rtol=0, atol=1e-12)
        assert_allclose([s.t for s in path.samples], [0.0, 0.1, 0.2] + times,
                        rtol=0, atol=1e-12)
        assert relative_error(path.final.C, c_ref) <= 1e-9
        # with a floor above the halved step, the same failure stalls the
        # run, whose history is that one failed step from t = 0.2 at dt 0.1
        monkeypatch.setattr(continuation, "MIN_DT", 0.06)
        at.clear()
        failed.clear()
        with pytest.raises(SolverError) as exc:
            run_continuation(fb, prior_ref, sigma_ref)
        assert str(exc.value) == (
            "continuation stalled at t = 0.2: step size fell below the "
            f"smallest step 6.0e-02 (last failure: {reason})")
        assert exc.value.history == [(0.2, 0.1, reason)]

    @pytest.mark.parametrize("flat", [False, True])
    def test_corrector_returns_a_tangent_at_every_t_below_one(
            self, fb, prior_ref, sigma_ref, flat, monkeypatch):
        # after >= 1 iterates the last iterate's tangent, after 0 iterates
        # (t = 0.3 of the reference run, every step under the flat prior)
        # the one solved at the accepted point; none at t = 1
        returned = []
        corrector = continuation.corrector_newton

        def recorded(chart, prior, t, *args):
            found = corrector(chart, prior, t, *args)
            returned.append((t, found[2], found[4]))
            return found

        monkeypatch.setattr(continuation, "corrector_newton", recorded)
        prior = constant_prior(1.0) if flat else prior_ref
        run_continuation(fb, prior, sigma_ref)
        assert returned[-1][0] == 1.0
        assert any(iters == 0 for t, iters, _ in returned if t < 1.0)
        for t, iters, tangent in returned:
            assert (tangent is None) == (t == 1.0), (t, iters)

    def test_one_point_per_tangent_and_newton_iterate(self, fb, prior_ref,
                                                      sigma_ref, monkeypatch):
        # the blended prior is never factored: every evaluation is one
        # cascade point of psi at weight t, and nothing is built twice: the
        # tangent at an accepted t_k reuses the corrector's last point
        built = []
        init = moment.CascadePoint.__init__

        def counting_init(self, filterbank, prior, C, t=1.0):
            built.append(t)
            init(self, filterbank, prior, C, t)

        monkeypatch.setattr(moment.CascadePoint, "__init__",
                            counting_init)
        path = run_continuation(fb, prior_ref, sigma_ref)
        steps = len(path.samples) - 1
        assert steps == 10  # dt = 0.1 throughout: no step was rejected
        # the start point at t = 0, whose P_t = P_1 checks the start's
        # defining equation and serves the first tangent, then per step one
        # point per corrector iterate at the next t; the last of these
        # serves the next tangent
        want = [0.0]
        for s in path.samples[1:]:
            want += [s.t] * (s.newton_iters + 1)
        assert built == want
        assert len(built) == 21

    def test_work_per_reference_solve(self, fb, sigma_ref, monkeypatch):
        # what depends only on the prior is built once per solve, a point's
        # Stein factorization takes A_T's spectral radius from its blocks,
        # and each candidate's closed loop is computed once
        # a prior of its own, whose blow-up is not built yet
        prior = PriorSpectrum(_fir_system(np.array(B_REF)), kind="polynomial")
        blowups, loops, in_point, point_radii = [], [], [], []
        channel_blowup = statespace._channel_blowup
        closed_loop = statespace._closed_loop
        spectral_radius = matrixeq._spectral_radius
        init = moment.CascadePoint.__init__

        def counted_blowup(outer, m):
            if outer is prior.sigma:
                blowups.append(m)
            return channel_blowup(outer, m)

        def counted_loop(*args):
            loops.append(args)
            return closed_loop(*args)

        def counted_radius(A):
            if in_point:
                point_radii.append(A.shape)
            return spectral_radius(A)

        def tracked_init(self, *args, **kwargs):
            in_point.append(True)
            try:
                init(self, *args, **kwargs)
            finally:
                in_point.pop()

        monkeypatch.setattr(statespace, "_channel_blowup", counted_blowup)
        monkeypatch.setattr(statespace, "_closed_loop", counted_loop)
        monkeypatch.setattr(matrixeq, "_spectral_radius", counted_radius)
        monkeypatch.setattr(moment.CascadePoint, "__init__", tracked_init)
        path = run_continuation(fb, prior, sigma_ref)
        steps = len(path.samples) - 1
        iters = sum(s.newton_iters for s in path.samples)
        assert (steps, iters) == (10, 10)
        assert blowups == [fb.m]
        assert point_radii == []
        # the start parameter, one prediction per step (none rejected) and
        # one candidate per Newton iterate (none damped)
        assert len(loops) == 1 + steps + iters

    def test_stein_work_per_reference_solve(self, fb, chart, prior_ref,
                                            sigma_ref, monkeypatch):
        # with the chart built, the reference solve factors one A_T per
        # cascade point (21) and runs 45 stacked solves against them, each
        # gating its residual: the two Gramians of every point (21 x 2
        # slices), the M = 7 Jacobian columns of every direction solve
        # (12 x 7) and its verification (one slice for each of the two
        # standalone tangent solves, at t = 0 and 0.3, and for each of the
        # two iterates at t = 1; two for each of the 8 iterates between)
        factored, slices = [], []
        stein_solver = moment._stein_solver
        smith_sum = matrixeq._smith_sum

        def counted_solver(a, radius=None):
            factored.append(a.shape)
            return stein_solver(a, radius=radius)

        def counted_sum(powers, Q):
            slices.append(len(Q))
            return smith_sum(powers, Q)

        monkeypatch.setattr(moment, "_stein_solver", counted_solver)
        monkeypatch.setattr(matrixeq, "_smith_sum", counted_sum)
        run_continuation(fb, prior_ref, sigma_ref)
        assert chart.dim == 7
        assert len(factored) == 21
        assert len(slices) == 45
        assert sum(slices) == 146
        assert sorted(slices) == [1] * 4 + [2] * (21 + 8) + [7] * 12

    def test_dense_solves_per_reference_solve(self, fb, chart, prior_ref,
                                              sigma_ref, monkeypatch):
        # with the chart built, the reference solve makes 23 np.linalg.solve
        # calls: one against CB per closed loop (the start, 10 predictions
        # and 10 Newton candidates) and two in the start's flat-prior
        # factorization; a cascade point reads Bt from its parameter
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        path = run_continuation(fb, prior_ref, sigma_ref)
        assert chart.dim == 7
        assert (len(path.samples) - 1,
                sum(s.newton_iters for s in path.samples)) == (10, 10)
        assert len(calls) == 23

    def test_one_jacobian_per_newton_iterate(self, fb, prior_ref, sigma_ref,
                                             monkeypatch):
        # the tangent shares the corrector's Jacobian: each iterate at t < 1
        # solves [Sigma - g, -drift] as one stack, t = 1 solves the Newton
        # right-hand side alone, and only the start and a t < 1 whose
        # corrector took no iteration (t = 0.3) solve a tangent of their own
        jacobians, rhs = [], []
        jacobian = moment.CascadePoint.jacobian
        solve = moment.CascadePoint.solve

        def counted_jacobian(self, chart):
            jacobians.append(chart)
            return jacobian(self, chart)

        def counted_solve(self, chart, Y):
            rhs.append(np.shape(Y))
            return solve(self, chart, Y)

        monkeypatch.setattr(moment.CascadePoint, "jacobian", counted_jacobian)
        monkeypatch.setattr(moment.CascadePoint, "solve", counted_solve)
        path = run_continuation(fb, prior_ref, sigma_ref)
        want = []
        for s in path.samples:
            shape = (fb.n, fb.n) if s.t == 1.0 else (2, fb.n, fb.n)
            want += [shape] * s.newton_iters
            if s.newton_iters == 0 and s.t < 1.0:
                want.append((fb.n, fb.n))
        assert rhs == want
        assert len(jacobians) == len(want) == 12

    def test_samples_carry_the_tangent_they_predict_with(
            self, fb, prior_ref, sigma_ref, monkeypatch):
        # a sample's gram_cond and tangent_norm describe one Jacobian, whose
        # tangent predicts the next step: the standalone tangent solve at the
        # sample's own C at t = 0 and after a corrector that took no
        # iteration, else the corrector's last iterate, one Newton step
        # before the sample's C; t = 1 has no tangent
        solves = []
        solve = moment.CascadePoint.solve

        def recorded(self, chart, Y):
            V, info = solve(self, chart, Y)
            solves.append((self.param.C, V, info))
            return V, info

        monkeypatch.setattr(moment.CascadePoint, "solve", recorded)
        path = run_continuation(fb, prior_ref, sigma_ref)
        # the prediction at t = 0.3 already lies in the tube
        assert [s.t for s in path.samples if s.newton_iters == 0] \
            == pytest.approx([0.0, 0.3], abs=1e-15)
        used = 0
        for s in path.samples:
            own = s.newton_iters == 0 and s.t < 1.0
            used += s.newton_iters + own
            C, V, info = solves[used - 1]
            assert s.gram_cond == info.gram_cond
            if own:
                assert C is s.C and V.ndim == 2
                assert s.tangent_norm == np.linalg.norm(V)
            elif s.t < 1.0:
                assert not np.array_equal(C, s.C)
                assert s.tangent_norm == np.linalg.norm(V[1])
            else:
                assert V.ndim == 2 and s.tangent_norm == 0.0
        assert used == len(solves)

    def test_tangent_after_no_iteration_is_solved_at_the_point(
            self, fb, sigma_ref, monkeypatch):
        # under the flat prior every prediction is already on the path, so
        # no corrector iterates and each t < 1 solves its tangent alone
        rhs = []
        solve = moment.CascadePoint.solve

        def counted(self, chart, Y):
            rhs.append(np.shape(Y))
            return solve(self, chart, Y)

        monkeypatch.setattr(moment.CascadePoint, "solve", counted)
        path = run_continuation(fb, constant_prior(1.0), sigma_ref)
        assert [s.newton_iters for s in path.samples] == [0] * 11
        assert rhs == [(fb.n, fb.n)] * 10

    @pytest.mark.parametrize("case", ["reference", "three-complex"])
    def test_intermediate_points_in_the_tube_endpoint_at_tol(
            self, fb, prior_ref, sigma_ref, case):
        # only t = 1 is converged to newton_tol; every intermediate sample
        # lies within PATH_TOL ||Sigma|| of Sigma, recomputed independently
        # of the corrector's own residual
        if case == "reference":
            prior, Sigma = prior_ref, sigma_ref
        else:
            fb = make_bank("three", "complex")
            rng = np.random.default_rng(11)
            prior = draw_prior(rng, "polynomial", "complex")
            Sigma = moment_g_statespace(fb, prior, draw_param(fb, rng))
        cfg = HomotopyConfig()
        path = run_continuation(fb, prior, Sigma, config=cfg)
        tube = continuation.PATH_TOL * np.linalg.norm(Sigma)
        assert tube > cfg.newton_tol
        assert path.final.t == 1.0
        for s in path.samples[1:]:
            g = moment.CascadePoint(fb, prior, s.C, s.t).value()
            resid = np.linalg.norm(Sigma - g)
            assert resid <= (cfg.newton_tol if s.t == 1.0 else tube)
            assert resid == pytest.approx(s.residual, rel=1e-6, abs=1e-13)
        # the tube is used: some intermediate point stops above newton_tol
        assert max(s.residual for s in path.samples[1:-1]) > cfg.newton_tol

    def test_one_range_basis_and_one_factor_basis_per_solve(
            self, fb, prior_ref, sigma_ref, monkeypatch):
        # without a chart, the feasibility check's chart serves the path,
        # and the bank keeps it for its next solve; a bank of this test's
        # own has no chart yet
        own = FilterBank(fb.A, fb.B)
        calls = []
        for name in ("build_range_gamma_basis", "build_factor_basis"):
            build = getattr(moment, name)

            def counted(*args, _name=name, _build=build):
                calls.append(_name)
                return _build(*args)

            monkeypatch.setattr(moment, name, counted)
        run_continuation(own, prior_ref, sigma_ref)
        assert sorted(calls) == ["build_factor_basis",
                                 "build_range_gamma_basis"]
        calls.clear()
        run_continuation(own, prior_ref, sigma_ref)
        assert calls == []

    @pytest.mark.parametrize("field, C", [("real", C_REF),
                                          ("complex", C_COMPLEX)])
    def test_chart_orientation_does_not_matter(self, prior_ref, field, C,
                                               monkeypatch):
        # Newton directions and the Hermite prediction are invariant under
        # an orthogonal change of chart coordinates; the run builds its
        # chart from the bank, so the rotated one is handed in there
        fb = make_covariance_extension_filter(2, 1, field=field)
        Sigma = moment_g_statespace(fb, prior_ref, FactorParameter(fb, C))
        default = run_continuation(fb, prior_ref, Sigma)
        chart = rotated_chart(make_chart(fb), np.random.default_rng(3))
        monkeypatch.setattr(continuation, "make_chart", lambda bank: chart)
        rotated = run_continuation(fb, prior_ref, Sigma)
        assert rotated.chart is chart
        assert_array_equal([s.t for s in rotated.samples],
                           [s.t for s in default.samples])
        for got, want in zip(rotated.samples, default.samples):
            assert relative_error(got.C, want.C) <= 1e-12

    def test_the_chart_comes_from_the_bank_alone(self):
        # a chart is a function of the bank, so no caller passes one (a
        # chart of another bank used to fail as "Sigma is not attainable")
        assert list(inspect.signature(run_continuation).parameters) == [
            "filterbank", "prior", "Sigma", "config"]
        assert list(inspect.signature(maxent_initialization).parameters) \
            == ["filterbank", "Sigma"]

    def test_a_path_built_by_hand_has_the_banks_chart(self, fb, sigma_ref):
        # the chart is not an input of a path: it is the one the bank keeps
        path = SolutionPath(fb, HomotopyConfig(), sigma_ref)
        assert path.chart is make_chart(fb)
        assert "chart" not in [f.name for f in dataclasses.fields(path)]

    def test_no_riccati_solve(self, fb, prior_ref, sigma_ref, c_ref,
                              monkeypatch):
        # the homotopy prior needs no spectral factor, so no additive-form
        # Riccati equation is solved on the path, for a polynomial or a
        # rational prior
        def forbidden(*args, **kwargs):
            raise AssertionError("Riccati solve on the continuation path")

        originals = (matrixeq._sda_appendix, matrixeq.solve_dare_appendix,
                     matrixeq.solve_dare_lambda)
        for mod in (matrixeq, statespace, factorization, moment,
                    continuation):
            for name, value in list(vars(mod).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(mod, name, forbidden)
        path = run_continuation(fb, prior_ref, sigma_ref)
        assert np.linalg.norm(path.final.C - c_ref) < 1e-6
        rational = prior_from_outer(StateSpaceSystem(
            np.array([[0.6]]), np.array([[1.0]]), np.array([[0.9]]),
            np.array([[1.0]])))
        C_true = np.array([[0.3, -0.2, 1.0, 0.0],
                           [-0.4, 0.1, 0.5, 1.5]])
        Sigma = moment_g_statespace(fb, rational, FactorParameter(fb, C_true))
        path = run_continuation(fb, rational, Sigma)
        assert path.final.t == 1.0
        assert np.linalg.norm(path.final.C - C_true) \
            <= 1e-6 * np.linalg.norm(C_true)

    def test_first_sample_is_maxent(self, fb, prior_ref, sigma_ref):
        path = run_continuation(fb, prior_ref, sigma_ref,
                                config=HomotopyConfig(dt=0.5))
        start = maxent_initialization(fb, sigma_ref)
        assert_allclose(path.samples[0].C, start.C, atol=1e-14)
        assert path.samples[0].newton_iters == 0

    def test_start_residual_is_the_start_gate_gap(self, fb, prior_ref,
                                                  sigma_ref, monkeypatch):
        # the t = 0 residual is the gap the start's gate checked, with no
        # second evaluation of g: the start's cascade point gives its value
        # once, and it is ||g(1, C) - Sigma|| bit for bit
        gaps, values = [], []
        start, value = continuation._start, moment.CascadePoint.value

        def gated(*args):
            found = start(*args)
            gaps.append(found[2])
            return found

        def counted(self):
            values.append(self.param)
            return value(self)

        monkeypatch.setattr(continuation, "_start", gated)
        monkeypatch.setattr(moment.CascadePoint, "value", counted)
        path = run_continuation(fb, prior_ref, sigma_ref)
        assert [path.samples[0].residual] == gaps
        assert sum(p is values[0] for p in values) == 1
        flat = moment_g_statespace(fb, None, path.samples[0].C)
        assert gaps[0] == float(np.linalg.norm(flat - sigma_ref))


class TestRoundTripEverywhere:
    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(bank=st.sampled_from(ROUND_TRIP_BANKS),
           field=st.sampled_from(("real", "complex")),
           prior_kind=st.sampled_from(("polynomial", "rational")),
           seed=st.integers(0, 2**32 - 1))
    def test_recovers_generating_parameter(self, bank, field, prior_kind,
                                           seed):
        # Sigma = g(psi, C_true) is attainable with the known answer C_true
        fb = make_bank(bank, field)
        rng = np.random.default_rng(seed)
        prior = draw_prior(rng, prior_kind, field)
        C_true = draw_param(fb, rng).C
        Sigma = moment_g_statespace(fb, prior, FactorParameter(fb, C_true))
        path = run_continuation(fb, prior, Sigma)
        assert path.final.t == 1.0
        assert path.final.residual <= 1e-10
        assert relative_error(path.final.C, C_true) <= 1e-6


# what a typed failure on a random bank must name: the start's defining
# equation with cond(Sigma), whose roundoff breaks it, the residual gate of
# a Stein solve, the Gram gate of a direction solve, or the input Sigma; a
# run stalled at the smallest step names its last failure's cause
NAMED_CAUSE = (r"defining equation \(.*cond\(Sigma\) = |Stein solve "
               r"residual .* exceeds tolerance|Gram system condition .* "
               r"exceeds limit|^Sigma ")


class TestRandomBanks:
    """Banks of conftest.draw_random_bank end in a recovery or a typed
    error that names its cause.  The two seeded draws have an
    ill-conditioned covariance, on which the roundoff asymmetry of the
    start's B* Sigma^{-1} B exceeds the Hermitian tolerance of its Cholesky
    factor unless it is Hermitized."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    # draws that end in typed errors: the start's defining-equation gate
    # (73380435 in run_continuation, 522867 in draw_param's own start) and
    # the Gram gate of the start's tangent (949303, 1184)
    @example(seed=73380435)
    @example(seed=522867)
    @example(seed=949303)
    @example(seed=1184)
    def test_every_draw_recovers_or_names_its_cause(self, seed):
        # no draw is filtered out by its conditioning: an ill-conditioned
        # Sigma is part of the scenario space
        fb, prior, rng = draw_random_bank(seed)
        try:
            C_true = draw_param(fb, rng).C
            Sigma = moment_g_statespace(fb, prior, FactorParameter(fb, C_true))
            path = run_continuation(fb, prior, Sigma)
        except SpectralHomotopyError as exc:
            assert re.search(NAMED_CAUSE, str(exc)), str(exc)
            return
        assert path.final.t == 1.0
        assert relative_error(path.final.C, C_true) <= 1e-6

    def test_ill_conditioned_covariance_is_recovered(self):
        # seed 40: m = 2, n = 7, real bank, rational prior
        fb, prior, rng = draw_random_bank(40)
        C_true = draw_param(fb, rng).C
        Sigma = moment_g_statespace(fb, prior, FactorParameter(fb, C_true))
        assert np.linalg.cond(Sigma) > 1e5
        path = run_continuation(fb, prior, Sigma)
        assert path.final.t == 1.0
        assert relative_error(path.final.C, C_true) <= 1e-6

    def test_start_names_itself_when_a_stein_gate_fails(self):
        # seed 1530: m = 1, n = 8, real bank, polynomial prior and
        # cond(Sigma) = 4.2e8; the Gramian solve of the start's cascade
        # point fails its residual gate before the defining equation is
        # checked, and the error says so
        fb, prior, rng = draw_random_bank(1530)
        C_true = draw_param(fb, rng).C
        Sigma = moment_g_statespace(fb, prior, FactorParameter(fb, C_true))
        with pytest.raises(SolverError) as info:
            run_continuation(fb, prior, Sigma)
        exc = info.value
        assert re.fullmatch(
            r"maximum-entropy start failed: Stein solve residual \S+ exceeds "
            r"tolerance in slice 1 of 2 \(cond\(Sigma\) = 4\.\d{3}e\+08\)",
            str(exc)), str(exc)
        assert re.search(NAMED_CAUSE, str(exc))
        cause = exc.__cause__
        assert isinstance(cause, SolverError)
        assert str(cause) in str(exc)
        # history lists failed continuation steps only; the gate's message
        # carries its value
        assert exc.history == []

    def test_maxent_start_raises_only_typed_errors(self):
        # seed 219: m = 1, n = 6, complex bank; draw_param runs
        # maxent_initialization on a covariance with cond(X0) ~ 9e9, whose
        # roundoff is the cause the start's gate names
        fb, _, rng = draw_random_bank(219)
        try:
            draw_param(fb, rng)
        except SpectralHomotopyError as exc:
            assert "defining equation" in str(exc)
            assert "cond(Sigma) = " in str(exc)


class TestConfig:
    def test_defaults(self):
        cfg = HomotopyConfig()
        assert cfg.dt == 0.1
        assert cfg.newton_tol == 1e-10

    def test_validation(self):
        with pytest.raises(ConfigError):
            HomotopyConfig(dt=0.0)
        with pytest.raises(ConfigError):
            HomotopyConfig(newton_tol=-1.0)

    def test_only_the_step_and_the_tolerance_are_settings(self):
        # the smallest step and the Newton budget are algorithm constants
        assert [f.name for f in dataclasses.fields(HomotopyConfig)] == [
            "dt", "newton_tol"]
        assert (continuation.MIN_DT, continuation.MAX_NEWTON) == (1e-4, 20)

    @pytest.mark.parametrize("dt, ok", [(5e-5, False), (1e-4, True),
                                        (1.0, True), (1.5, False),
                                        (np.nan, False)])
    def test_dt_lies_between_the_smallest_step_and_one(self, dt, ok):
        if ok:
            assert HomotopyConfig(dt=dt).dt == dt
        else:
            with pytest.raises(ConfigError,
                               match=r"^dt must lie in \[0.0001, 1\]"):
                HomotopyConfig(dt=dt)

    @pytest.mark.parametrize("name", ["dt", "newton_tol"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None,
                                       1j, np.complex128(0.1), [0.1]],
                             ids=repr)
    def test_settings_must_be_real_numbers(self, name, value):
        # a bool used to pass as 1 or 0, and a string or None raised a bare
        # TypeError from the range comparison
        with pytest.raises(ConfigError,
                           match=f"^{name} must be a real number, got "):
            HomotopyConfig(**{name: value})

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5),
                                       np.int64(1), 1], ids=repr)
    def test_numpy_scalars_are_real_numbers(self, value):
        cfg = HomotopyConfig(dt=value, newton_tol=value)
        assert type(cfg.dt) is float and cfg.dt == value
        assert type(cfg.newton_tol) is float and cfg.newton_tol == value

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0])
    def test_newton_tol_must_be_finite_and_positive(self, tol):
        # an infinite tolerance never corrects, which used to end in a
        # continuation stalled at the smallest step instead of a config
        # error
        with pytest.raises(ConfigError, match="newton_tol"):
            HomotopyConfig(newton_tol=tol)


class TestWriters:
    @pytest.fixture
    def path(self, fb, prior_ref, sigma_ref):
        return run_continuation(fb, prior_ref, sigma_ref,
                                config=HomotopyConfig(dt=0.5))

    def test_csv_shape_and_header(self, path):
        buf = io.StringIO()
        write_path_csv(path, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ("t,y_1,y_2,y_3,y_4,y_5,y_6,y_7,"
                            "residual,newton_iters,gram_cond")
        assert len(lines) == 1 + len(path.samples)
        cells = lines[1].split(",")
        assert len(cells) == 11

    def test_csv_preserves_full_precision(self, path):
        buf = io.StringIO()
        write_path_csv(path, buf)
        rows = buf.getvalue().strip().split("\n")[1:]
        for row, s in zip(rows, path.samples):
            cells = row.split(",")
            assert float(cells[0]) == s.t
            got = np.array([float(v) for v in cells[1:8]])
            assert_array_equal(got, s.y)

    def test_csv_is_deterministic(self, fb, prior_ref, sigma_ref):
        outs = []
        for _ in range(2):
            p = run_continuation(fb, prior_ref, sigma_ref,
                                 config=HomotopyConfig(dt=0.5))
            buf = io.StringIO()
            write_path_csv(p, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_json_document(self, path, fb):
        buf = io.StringIO()
        write_path_json(path, buf)
        doc = json.loads(buf.getvalue())
        assert doc["m"] == fb.m and doc["n"] == fb.n
        assert doc["field"] == "real"
        assert doc["config"]["dt"] == 0.5
        assert len(doc["samples"]) == len(path.samples)
        first = doc["samples"][0]
        for key in ("t", "C", "y", "residual", "newton_iters", "gram_cond",
                    "tangent_norm"):
            assert key in first
        assert doc["samples"][-1]["t"] == 1.0
