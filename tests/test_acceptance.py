"""Acceptance gate: the eight shipping criteria, one test per criterion.

Each test prints a single summary line with the measured quantities and the
stated tolerance, so a verbose run gives one pass/fail line per criterion.
"""

import dataclasses
import time

import numpy as np
import pytest

from spectral_homotopy import (CascadePoint, FactorParameter, GridPoint,
                               HomotopyConfig, circle_grid,
                               condition_numbers, constant_prior, h_inverse,
                               h_map, jacobian_condition_number,
                               left_outer_factor_from_additive, make_chart,
                               make_covariance_extension_filter,
                               maxent_initialization, moment_g_statespace,
                               prior_from_polynomial, run_continuation,
                               solve_dare_appendix, solve_dare_lambda)

from conftest import (B_REF, C_REF, fd_direction, random_additive_quadruple,
                      relative_error, rotated_chart)

COND_G_TARGET = 2.4674e5
COND_F_TARGET = 3.8187e8


@pytest.fixture
def _report(capsys):
    # bypass capture: the summary lines must show up in a plain verbose run
    def emit(criterion, ok, detail):
        with capsys.disabled():
            print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} "
                  f"({detail})")
        assert ok, detail

    return emit


def test_criterion_1_reference_condition_numbers(fb, chart, prior_ref,
                                                 param_ref, _report):
    """The paper's cond_g and cond_f at C_REF, within 1%.

    They land 0.153% and 0.231% below the printed 2.4674e5 and 3.8187e8.
    That gap is the rounding of C[1, 0] = -2.2615 to four decimals: a
    C[1, 0] 4e-5 away gives both printed values to their last digit (see
    test_reference_condition_numbers_to_the_printed_digits).
    """
    t0 = time.perf_counter()
    cond_g = jacobian_condition_number(chart, prior_ref, param_ref,
                                       which="g", route="quadrature",
                                       dtheta=1e-4)
    Lam = h_inverse(chart, param_ref)
    cond_f = jacobian_condition_number(chart, prior_ref, Lam, which="f",
                                       route="quadrature", dtheta=1e-4)
    elapsed = time.perf_counter() - t0
    err_g = abs(cond_g - COND_G_TARGET) / COND_G_TARGET
    err_f = abs(cond_f - COND_F_TARGET) / COND_F_TARGET
    ratio = cond_f / cond_g
    ok = err_g <= 0.01 and err_f <= 0.01 and ratio >= 1e3 and elapsed <= 60.0
    _report(1, ok,
            f"cond_g {cond_g:.5e} [{COND_G_TARGET:.4e} +-1%, off {err_g:.2%}], "
            f"cond_f {cond_f:.5e} [{COND_F_TARGET:.4e} +-1%, off {err_f:.2%}], "
            f"ratio {ratio:.0f} [>=1e3], {elapsed:.1f} s [<=60]")


def test_reference_condition_numbers_to_the_printed_digits(chart,
                                                           prior_ref):
    # the paper prints C[1, 0] = -2.2615 to four decimals; within that
    # rounding, +-5e-5, one C[1, 0] gives cond_g = 2.4674e5 (cond_g falls
    # as C[1, 0] grows), and there cond_f is the printed 3.8187e8 too
    def at(c10):
        C = C_REF.copy()
        C[1, 0] = c10
        return C, condition_numbers(chart, prior_ref, C)

    lo, hi = C_REF[1, 0] - 5e-5, C_REF[1, 0] + 5e-5
    assert at(lo)[1][0] > COND_G_TARGET > at(hi)[1][0]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if at(mid)[1][0] > COND_G_TARGET:
            lo = mid
        else:
            hi = mid
    C, (cond_g, cond_f) = at(0.5 * (lo + hi))
    assert abs(C[1, 0] - -2.261539) <= 1e-6
    assert cond_g == pytest.approx(COND_G_TARGET, rel=1e-9)
    assert cond_f == pytest.approx(COND_F_TARGET, rel=3e-5)
    # the quadrature oracle gives the same two numbers at that C
    grid_g = np.linalg.cond(GridPoint(chart.filterbank, prior_ref,
                                      C).jacobian(chart))
    grid_f = np.linalg.cond(GridPoint(chart.filterbank, prior_ref,
                                      h_inverse(chart, C),
                                      which="f").jacobian(chart))
    assert grid_g == pytest.approx(cond_g, rel=1e-7)
    assert grid_f == pytest.approx(cond_f, rel=1e-7)


def test_criterion_2_reference_continuation_round_trip(fb, prior_ref,
                                                       param_ref, c_ref,
                                                       _report):
    t0 = time.perf_counter()
    Sigma = moment_g_statespace(fb, prior_ref, param_ref)
    cfg = HomotopyConfig(dt=0.1, newton_tol=1e-10)
    path = run_continuation(fb, prior_ref, Sigma, config=cfg)
    elapsed = time.perf_counter() - t0
    steps = len(path.samples) - 1
    dts = np.diff([s.t for s in path.samples])
    c_err = float(np.linalg.norm(path.final.C - c_ref))
    g_err = float(np.linalg.norm(
        moment_g_statespace(fb, prior_ref, path.final_parameter()) - Sigma))
    ok = (steps == 10 and np.allclose(dts, 0.1, atol=1e-12)
          and c_err <= 1e-6 and g_err <= 1e-10 and elapsed <= 30.0)
    _report(2, ok,
            f"|C - C_ref| {c_err:.2e} [<=1e-6], residual {g_err:.2e} "
            f"[<=1e-10], steps {steps} [=10 at fixed dt], "
            f"{elapsed:.1f} s [<=30]")


def test_criterion_3_oracle_equivalence(fb, random_pair, _report):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        prior, param = random_pair(rng)
        Ss = moment_g_statespace(fb, prior, param)
        Sq = GridPoint(fb, prior, param, dtheta=2 * np.pi / 4096).value()
        worst = max(worst, relative_error(Sq, Ss))
    _report(3, worst <= 1e-7,
            f"state-space vs quadrature worst {worst:.2e} [<=1e-7], "
            f"20 random pairs")


def _jacobian_errors(fb, chart, prior, param, rng):
    """Worst relative error of the exact derivative against central
    differences over 10 slice directions, and the worst entrywise relative
    mismatch of the statespace Jacobian against quadrature."""
    point = CascadePoint(fb, prior, param)
    h = 1e-6
    worst_fd = 0.0
    for _ in range(10):
        V = fd_direction(chart, rng)
        d = point.derivatives(V)
        gp = moment_g_statespace(
            fb, prior, FactorParameter(fb, param.C + h * V))
        gm = moment_g_statespace(
            fb, prior, FactorParameter(fb, param.C - h * V))
        worst_fd = max(worst_fd, relative_error((gp - gm) / (2 * h), d))
    Js = point.jacobian(chart)
    Jq = GridPoint(fb, prior, param).jacobian(chart)
    return worst_fd, float(np.max(np.abs(Js - Jq) / np.abs(Jq)))


def test_criterion_4_jacobian_correctness(fb, chart, prior_ref, param_ref,
                                          _report):
    worst_fd, worst_entry = _jacobian_errors(
        fb, chart, prior_ref, param_ref, np.random.default_rng(4))
    ok = worst_fd <= 1e-5 and worst_entry <= 1e-6
    _report(4, ok,
            f"derivative vs central differences worst {worst_fd:.2e} "
            f"[<=1e-5, 10 directions], route mismatch entrywise "
            f"{worst_entry:.2e} [<=1e-6]")


def test_criterion_4_complex_field(prior_ref, _report):
    # C = [-C2 K, C2] on complex covext(2, 1): the closed loop has the
    # eigenvalues of K, scaled to spectral radius 0.9, and C2 = CB is lower
    # triangular with a positive diagonal
    fbc = make_covariance_extension_filter(2, 1, field="complex")
    rng = np.random.default_rng(4)
    K = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    K *= 0.9 / np.max(np.abs(np.linalg.eigvals(K)))
    C2 = np.tril(rng.standard_normal((2, 2))
                 + 1j * rng.standard_normal((2, 2)))
    C2[np.diag_indices(2)] = 0.5 + rng.random(2)
    param = FactorParameter(fbc, np.hstack([-C2 @ K, C2]))
    assert param.spectral_radius() >= 0.85
    worst_fd, worst_entry = _jacobian_errors(
        fbc, make_chart(fbc), prior_ref, param, rng)
    ok = worst_fd <= 1e-5 and worst_entry <= 1e-6
    _report("4, complex field", ok,
            f"derivative vs central differences worst {worst_fd:.2e} "
            f"[<=1e-5, 10 directions], route mismatch entrywise "
            f"{worst_entry:.2e} [<=1e-6], closed-loop radius "
            f"{param.spectral_radius():.2f}")


def test_criterion_5_factorization_residuals(fb, chart, param_ref,
                                             random_param, _report):
    rng = np.random.default_rng(5)
    z = np.exp(1j * circle_grid(512))

    worst_dare = 0.0
    worst_density = 0.0
    params = [param_ref] + [random_param(rng) for _ in range(4)]
    for param in params:
        Lam = h_inverse(chart, param)
        sol = solve_dare_lambda(fb, Lam)
        A, B = fb.A, fb.B
        K = np.linalg.solve(B.T @ sol.P @ B, B.T @ sol.P @ A)
        resid = np.linalg.norm(
            sol.P - (A.T @ sol.P @ A - A.T @ sol.P @ B @ K + Lam))
        worst_dare = max(worst_dare,
                         resid / (1.0 + np.linalg.norm(sol.P)))
        refit = h_map(fb, Lam)
        Gz = fb.eval_grid(z)
        lhs = Gz.conj().transpose(0, 2, 1) @ Lam @ Gz
        W = z[:, None, None] * (refit.C @ Gz)
        worst_density = max(
            worst_density,
            relative_error(W.conj().transpose(0, 2, 1) @ W, lhs))

    worst_outer = 0.0
    for complex_data in (False,) * 5 + (True,) * 5:
        (F, G, H, J), _ = random_additive_quadruple(
            rng, complex_data=complex_data)
        Wf = left_outer_factor_from_additive(F, G, H, J)
        sol = solve_dare_appendix(F, G, H, J)
        worst_dare = max(worst_dare,
                         sol.residual_norm / (1.0 + np.linalg.norm(sol.P)))
        I = np.eye(F.shape[0])
        Zg = J + np.einsum(
            "ij,kjl->kil", H,
            np.linalg.solve(z[:, None, None] * I - F,
                            np.broadcast_to(G + 0j, (512,) + G.shape)))
        Wg = Wf.eval_grid(z)
        worst_outer = max(
            worst_outer,
            relative_error(Wg @ Wg.conj().transpose(0, 2, 1),
                           Zg + Zg.conj().transpose(0, 2, 1)))

    ok = worst_dare <= 1e-10 and worst_outer <= 1e-9 and worst_density <= 1e-9
    _report(5, ok,
            f"Riccati residual worst {worst_dare:.2e} [<=1e-10 (1+|P|)], "
            f"|WW* - (Z+Z*)| worst {worst_outer:.2e} over real and complex "
            f"data [<=1e-9 rel, 512-pt], "
            f"|G* Lam G| = |zCG|^2 worst {worst_density:.2e} [<=1e-9 rel]")


def test_criterion_6_diffeomorphism_round_trips(fb, chart, random_param,
                                                _report):
    rng = np.random.default_rng(6)
    worst_c = 0.0
    worst_w = 0.0
    for _ in range(20):
        p0 = random_param(rng)
        worst_c = max(worst_c,
                      relative_error(h_map(fb, h_inverse(chart, p0)).C, p0.C))
    for _ in range(20):
        Lam0 = h_inverse(chart, random_param(rng))
        Lam1 = h_inverse(chart, h_map(fb, Lam0))
        worst_w = max(worst_w, relative_error(Lam1, Lam0))
    ok = worst_c <= 1e-8 and worst_w <= 1e-8
    _report(6, ok,
            f"factor-side worst {worst_c:.2e}, weight-side worst "
            f"{worst_w:.2e} [both <=1e-8, 20 points each]")


def test_criterion_7_maxent_property(fb, random_sigma, _report):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        Sigma = random_sigma(rng)
        param = maxent_initialization(fb, Sigma)
        gap = float(np.linalg.norm(
            moment_g_statespace(fb, None, param) - Sigma))
        worst = max(worst, gap / float(np.linalg.norm(Sigma)))
    _report(7, worst <= 1e-9,
            f"flat-prior defining equation worst {worst:.2e} "
            f"[<=1e-9 |Sigma|, 10 random feasible]")


def test_criterion_8_well_posedness_proxies(fb, chart, prior_ref, param_ref,
                                            _report):
    Sigma = moment_g_statespace(fb, prior_ref, param_ref)

    flat = run_continuation(fb, constant_prior(1.0), Sigma)
    y0 = flat.samples[0].y
    worst_step = max(
        float(np.max(np.abs(s.y - y0))) for s in flat.samples[1:])

    ends = {}
    for dt in (1.0, 0.5, 0.2, 0.1, 0.05):
        cfg = HomotopyConfig(dt=dt, newton_tol=1e-10)
        ends[dt] = run_continuation(fb, prior_ref, Sigma, config=cfg).final.C
    worst_dt = max(
        float(np.linalg.norm(ends[dt] - ends[0.1]))
        for dt in ends)

    rng = np.random.default_rng(8)
    cond_ref_g = jacobian_condition_number(chart, prior_ref, param_ref,
                                           which="g", route="statespace")
    Lam = h_inverse(chart, param_ref)
    cond_ref_f = jacobian_condition_number(chart, prior_ref, Lam, which="f",
                                           route="quadrature")
    worst_chart = 0.0
    for _ in range(3):
        rot = rotated_chart(chart, rng)
        cg = jacobian_condition_number(rot, prior_ref, param_ref, which="g",
                                       route="statespace")
        cf = jacobian_condition_number(rot, prior_ref, Lam, which="f",
                                       route="quadrature")
        worst_chart = max(worst_chart,
                          abs(cg - cond_ref_g) / cond_ref_g,
                          abs(cf - cond_ref_f) / cond_ref_f)

    ok = worst_step <= 1e-10 and worst_dt <= 1e-6 and worst_chart <= 1e-6
    _report(8, ok,
            f"flat-prior drift {worst_step:.2e} [<=1e-10/step], endpoint "
            f"spread over dt in {{1,0.5,0.2,0.1,0.05}} {worst_dt:.2e} "
            f"[<=1e-6], chart-change condition drift {worst_chart:.2e} "
            f"[<=1e-6 rel]")
