"""Moment maps, their derivatives, coordinate charts, Jacobian solves."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spectral_homotopy import (CascadePoint, CoordinateChart,
                               EvaluationError, FactorParameter, FilterBank,
                               GridPoint,
                               SolverError, StateSpaceSystem,
                               circle_grid, condition_numbers,
                               constant_prior, density_values,
                               f_jacobian_from_g, h_inverse,
                               jacobian_condition_number, make_chart,
                               make_covariance_extension_filter,
                               matrixeq, moment, statespace,
                               moment_g_statespace,
                               prior_from_outer, prior_from_polynomial,
                               right_outer_factor, trace_inner)
from spectral_homotopy.moment import (build_factor_basis,
                                      build_range_gamma_basis)

from conftest import (B_REF, C_REF, ROUND_TRIP_BANKS, cascade,
                      draw_normal, draw_param, draw_prior,
                      factor_inner_realization, fd_direction, make_bank,
                      relative_error, rotated_chart)

# covariance-extension banks (m, p) and a general bank with nonzero poles
BANKS = [(m, p) for m in (1, 2, 3) for p in (0, 1, 2)] + ["diag"]


class TestChart:
    def test_real_dimension(self, chart):
        # mn minus the triangularity constraints on the m x m corner
        assert chart.dim == 7

    def test_complex_dimension(self):
        fbc = make_covariance_extension_filter(2, 1, field="complex")
        assert make_chart(fbc).dim == 12

    def test_range_basis_is_orthonormal(self, chart):
        basis = chart.range_basis
        for i, X in enumerate(basis):
            for j, Y in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(trace_inner(X, Y) - want) < 1e-12

    def test_factor_basis_is_orthonormal(self, chart):
        basis = chart.factor_basis
        for i, X in enumerate(basis):
            for j, Y in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(trace_inner(X, Y) - want) < 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_chart_per_bank(self, field):
        # a bank of this test's own: its first make_chart builds the chart,
        # bit for bit a fresh build, and every later call returns it
        preset = make_covariance_extension_filter(2, 1, field=field)
        fb = FilterBank(preset.A, preset.B, field=field)
        chart = make_chart(fb)
        assert make_chart(fb) is chart
        assert chart.filterbank is fb
        for got, want in ((chart.range_basis, build_range_gamma_basis(fb)),
                          (chart.factor_basis, build_factor_basis(fb))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert make_chart(preset) is make_chart(
            make_covariance_extension_filter(2, 1, field=field))
        assert make_chart(preset) is not chart

    def test_bases_of_different_lengths_raise(self, chart):
        with pytest.raises(SolverError, match="dimensions disagree"):
            CoordinateChart(chart.filterbank, chart.range_basis,
                            chart.factor_basis[:-1])

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("bank", ROUND_TRIP_BANKS)
    def test_factor_basis_spans_the_slice(self, bank, field):
        fb = make_bank(bank, field)
        basis = moment.build_factor_basis(fb)
        flat = basis.reshape(len(basis), -1)
        assert_allclose(np.real(flat @ flat.conj().T), np.eye(len(basis)),
                        rtol=0, atol=1e-12)
        VB = basis @ fb.B
        bound = 1e-14 * np.linalg.norm(fb.B)
        assert np.abs(np.triu(VB, 1)).max() <= bound
        assert np.abs(np.diagonal(VB, axis1=1, axis2=2).imag).max() <= bound
        m, n = fb.m, fb.n
        dim = (m * n - m * (m - 1) // 2 if field == "real"
               else 2 * m * n - m * m)
        assert len(basis) == dim == len(moment.build_range_gamma_basis(fb))

    def test_range_is_block_toeplitz(self, fb, chart, rng):
        # attainable covariances of the lag window have equal diagonal
        # blocks and free off-diagonal block
        S0 = rng.standard_normal((2, 2))
        S0 = S0 + S0.T
        S1 = rng.standard_normal((2, 2))
        X = np.block([[S0, S1], [S1.T, S0]])
        assert_allclose(chart.project_range_gamma(X), X, atol=1e-12)
        assert chart.range_residual(X) < 1e-12

    def test_projection_is_idempotent_and_symmetric(self, chart, rng):
        X = rng.standard_normal((4, 4))
        X = 0.5 * (X + X.T)
        PX = chart.project_range_gamma(X)
        assert_allclose(chart.project_range_gamma(PX), PX, atol=1e-13)
        Y = rng.standard_normal((4, 4))
        Y = 0.5 * (Y + Y.T)
        PY = chart.project_range_gamma(Y)
        # self-adjointness of the projector in the trace inner product
        assert abs(trace_inner(PX, Y) - trace_inner(X, PY)) < 1e-12

    def test_projection_averages_diagonal_blocks(self, fb, chart):
        X = np.diag([1.0, 1.0, 3.0, 3.0])
        PX = chart.project_range_gamma(X)
        assert_allclose(PX, np.diag([2.0, 2.0, 2.0, 2.0]), atol=1e-12)

    def test_coordinate_round_trip(self, chart, rng):
        y = rng.standard_normal(chart.dim)
        X = chart.range_from_coords(y)
        assert_allclose(chart.range_coords(X), y, atol=1e-13)
        a = rng.standard_normal(chart.dim)
        V = chart.factor_from_coords(a)
        assert_allclose(chart.factor_coords(V), a, atol=1e-13)

    def test_stacked_factor_coordinates_round_trip(self, chart, rng):
        # factor_from_coords takes the (k, M) stacks factor_coords returns
        a = rng.standard_normal((3, chart.dim))
        V = chart.factor_from_coords(a)
        assert V.shape == (3,) + chart.factor_basis.shape[1:]
        for k in range(3):
            assert_array_equal(V[k], chart.factor_from_coords(a[k]))
        assert_allclose(chart.factor_coords(V), a, atol=1e-13)

    def test_factor_slice_keeps_corner_triangular(self, fb, chart, rng):
        V = fd_direction(chart, rng)
        assert_allclose(np.triu(V @ fb.B, 1), 0, atol=1e-14)


class TestMomentMaps:
    def test_flat_weight_moment(self, fb):
        # f(1, I): the two unit-delay blocks average to half the Gramian
        F = GridPoint(fb, constant_prior(1.0), np.eye(4), "f",
                      dtheta=2 * np.pi / 4096).value()
        assert_allclose(F, 0.5 * np.eye(4), rtol=1e-12, atol=1e-12)

    def test_flat_factor_moment(self, fb):
        # g(1, B^T): the inner factor is the identity, so the moment is the
        # reachability Gramian
        G0 = moment_g_statespace(fb, constant_prior(1.0),
                                 FactorParameter(fb, fb.B.T))
        assert_allclose(G0, np.eye(4), atol=1e-12)

    def test_moment_is_attainable_and_positive(self, fb, chart, prior_ref,
                                               param_ref):
        S = moment_g_statespace(fb, prior_ref, param_ref)
        assert chart.range_residual(S) < 1e-10
        assert np.min(np.linalg.eigvalsh(S)) > 0

    def test_statespace_matches_quadrature(self, fb, random_pair, rng):
        for _ in range(5):
            prior, param = random_pair(rng)
            Ss = moment_g_statespace(fb, prior, param)
            Sq = GridPoint(fb, prior, param, dtheta=2 * np.pi / 4096).value()
            assert relative_error(Sq, Ss) < 1e-7

    def test_factor_and_weight_routes_agree(self, fb, chart, prior_ref,
                                            param_ref):
        # the two parametrizations of one density must produce one moment
        Lam = h_inverse(chart, param_ref)
        dtheta = 2 * np.pi / 8192
        Sf = GridPoint(fb, prior_ref, Lam, "f", dtheta=dtheta).value()
        Sg = GridPoint(fb, prior_ref, param_ref, dtheta=dtheta).value()
        assert relative_error(Sf, Sg) < 1e-10

    def test_flat_prior_routes(self, fb, param_ref):
        # constant prior exercises the stateless branch of the cascade
        Ss = moment_g_statespace(fb, constant_prior(2.0), param_ref)
        Sq = GridPoint(fb, constant_prior(2.0), param_ref,
                       dtheta=2 * np.pi / 4096).value()
        assert relative_error(Sq, Ss) < 1e-9

    def test_quadrature_outside_weight_cone_raises(self, fb, prior_ref):
        # G* (-I) G is negative definite at every grid point
        with pytest.raises(EvaluationError, match="density boundary") as exc:
            GridPoint(fb, prior_ref, -np.eye(4), "f")
        assert "eigenvalue -" in str(exc.value)


class TestDerivatives:
    def test_weight_scaling_direction(self, fb, chart, prior_ref, param_ref):
        # f(psi, c Lam) = f(psi, Lam) / c, so the derivative along Lam is -f
        Lam = h_inverse(chart, param_ref)
        dtheta = 2 * np.pi / 4096
        point = GridPoint(fb, prior_ref, Lam, "f", dtheta=dtheta)
        dF = point.derivatives(Lam)
        F = point.value()
        assert relative_error(dF, -F) < 1e-10

    def test_factor_scaling_direction(self, fb, prior_ref, param_ref):
        # g(psi, c C) = g(psi, C) / c^2
        dG = CascadePoint(fb, prior_ref, param_ref).derivatives(param_ref.C)
        G0 = moment_g_statespace(fb, prior_ref, param_ref)
        assert relative_error(dG, -2.0 * G0) < 1e-10

    def test_zero_direction(self, fb, prior_ref, param_ref):
        dG = CascadePoint(fb, prior_ref, param_ref).derivatives(
            np.zeros((2, 4)))
        assert_allclose(dG, np.zeros((4, 4)), atol=1e-14)

    @pytest.mark.parametrize("V, match", [
        pytest.param(np.zeros((4, 2)), "V must be 2x4", id="transposed"),
        pytest.param(np.zeros(8), "V must be 2x4", id="flat"),
        pytest.param(np.zeros((1, 1, 2, 4)), "V must be 2x4", id="4-d"),
        pytest.param(1j * np.ones((2, 4)), "imaginary part", id="complex")])
    def test_rejects_foreign_direction(self, fb, prior_ref, param_ref, V,
                                       match):
        # a direction must have C's shape and, on a real bank, be real
        with pytest.raises(ValueError, match=match):
            CascadePoint(fb, prior_ref, param_ref).derivatives(V)
    def test_linearity(self, fb, chart, prior_ref, param_ref, rng):
        V1 = fd_direction(chart, rng)
        V2 = fd_direction(chart, rng)
        point = CascadePoint(fb, prior_ref, param_ref)
        d1 = point.derivatives(V1)
        d2 = point.derivatives(V2)
        d12 = point.derivatives(1.5 * V1 - 0.25 * V2)
        assert relative_error(d12, 1.5 * d1 - 0.25 * d2) < 1e-9

    def test_statespace_matches_quadrature(self, fb, chart, prior_ref,
                                           param_ref, rng):
        point = CascadePoint(fb, prior_ref, param_ref)
        grid = GridPoint(fb, prior_ref, param_ref, dtheta=2 * np.pi / 8192)
        for _ in range(5):
            V = fd_direction(chart, rng)
            ds = point.derivatives(V)
            dq = grid.derivatives(V)
            assert relative_error(dq, ds) < 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(bank=st.sampled_from(BANKS),
           field=st.sampled_from(("real", "complex")),
           prior_kind=st.sampled_from(("constant", "polynomial", "rational")),
           seed=st.integers(0, 2**32 - 1))
    def test_statespace_matches_quadrature_everywhere(self, bank, field,
                                                      prior_kind, seed):
        # every direction, not only the factor slice, on covext and general
        # banks in both fields
        fb = make_bank(bank, field)
        rng = np.random.default_rng(seed)
        prior = draw_prior(rng, prior_kind, field)
        param = draw_param(fb, rng)
        V = draw_normal(rng, (fb.m, fb.n), field)
        ds = CascadePoint(fb, prior, param).derivatives(V)
        dq = GridPoint(fb, prior, param,
                       dtheta=2 * np.pi / 8192).derivatives(V)
        assert relative_error(dq, ds) < 1e-8

    def test_matches_central_difference(self, fb, chart, prior_ref,
                                        param_ref, rng):
        point = CascadePoint(fb, prior_ref, param_ref)
        h = 1e-6
        for _ in range(5):
            V = fd_direction(chart, rng)
            d = point.derivatives(V)
            gp = moment_g_statespace(
                fb, prior_ref, FactorParameter(fb, param_ref.C + h * V))
            gm = moment_g_statespace(
                fb, prior_ref, FactorParameter(fb, param_ref.C - h * V))
            assert relative_error((gp - gm) / (2 * h), d) < 1e-5

    def test_weight_derivative_matches_difference(self, fb, chart, prior_ref,
                                                  param_ref, rng):
        Lam = h_inverse(chart, param_ref)
        dLam = chart.range_from_coords(rng.standard_normal(chart.dim))
        dLam *= 0.05 / np.linalg.norm(dLam)
        h = 1e-6
        dtheta = 2 * np.pi / 4096
        d = GridPoint(fb, prior_ref, Lam, "f", dtheta=dtheta).derivatives(dLam)
        fp, fm = (GridPoint(fb, prior_ref, Lam + s * h * dLam, "f",
                            dtheta=dtheta).value() for s in (1, -1))
        assert relative_error((fp - fm) / (2 * h), d) < 1e-5

    def test_prior_drift_vanishes_for_flat_prior(self, fb, param_ref):
        drift = CascadePoint(fb, constant_prior(1.0), param_ref).drift()
        assert_allclose(drift, np.zeros((4, 4)), atol=1e-14)

    def test_prior_drift_is_moment_difference(self, fb, prior_ref,
                                              param_ref):
        drift = CascadePoint(fb, prior_ref, param_ref).drift()
        want = (moment_g_statespace(fb, prior_ref, param_ref)
                - moment_g_statespace(fb, constant_prior(1.0), param_ref))
        assert relative_error(drift, want) < 1e-12


class _BlendedPrior:
    """The density (1 - t) + t psi, for quadrature only: the grid needs its
    values and whether it is even (as psi is), never a factor."""

    def __init__(self, prior, t):
        self.prior, self.t = prior, t
        self._even = prior._even

    def psi_values(self, theta):
        return (1.0 - self.t) + self.t * self.prior.psi_values(theta)


def _rational_prior():
    # one pole at 0.6 and one zero at -0.3
    return prior_from_outer(StateSpaceSystem(
        np.array([[0.6]]), np.array([[1.0]]), np.array([[0.9]]),
        np.array([[1.0]])))


def _blend_case(case, rng):
    if case == "covext-real":
        fb = make_bank((2, 1), "real")
        return fb, prior_from_polynomial(B_REF), FactorParameter(fb, C_REF)
    if case == "covext-complex":
        fb = make_bank((2, 1), "complex")
        return fb, prior_from_polynomial(B_REF), draw_param(fb, rng)
    fb = make_bank("diag", "real")
    return fb, _rational_prior(), draw_param(fb, rng)


class TestBlendedPoint:
    """One cascade point serves every prior (1 - t) + t psi on the path."""

    @pytest.mark.parametrize("t", [0.0, 0.05, 0.5, 0.95, 1.0])
    @pytest.mark.parametrize("case", ["covext-real", "covext-complex",
                                      "diag-rational"])
    def test_matches_quadrature_of_blended_density(self, case, t, rng):
        fb, prior, param = _blend_case(case, rng)
        chart = make_chart(fb)
        dtheta = 2 * np.pi / 4096
        point = CascadePoint(fb, prior, param, t)
        blend = _BlendedPrior(prior, t)
        grid = GridPoint(fb, blend, param, dtheta=dtheta)
        assert relative_error(grid.value(), point.value()) < 1e-7
        Js = chart.range_coords(point.derivatives(chart.factor_basis)).T
        Jq = grid.jacobian(chart)
        assert np.max(np.abs(Js - Jq)) / np.max(np.abs(Js)) < 1e-8
        Dq = (GridPoint(fb, _BlendedPrior(prior, 1.0), param,
                        dtheta=dtheta).value()
              - GridPoint(fb, _BlendedPrior(prior, 0.0), param,
                          dtheta=dtheta).value())
        assert relative_error(Dq, point.drift()) < 1e-7

    def test_endpoints_exact(self, fb, prior_ref, param_ref):
        # t = 0 is the flat prior, t = 1 the prior itself
        flat = CascadePoint(fb, prior_ref, param_ref, 0.0)
        want = moment_g_statespace(fb, constant_prior(1.0), param_ref)
        assert relative_error(flat.value(), want) < 1e-13
        assert_array_equal(
            CascadePoint(fb, prior_ref, param_ref, 1.0).value(),
            moment_g_statespace(fb, prior_ref, param_ref))
        for t in (-0.1, 1.1):
            with pytest.raises(ValueError, match="t must lie"):
                CascadePoint(fb, prior_ref, param_ref, t)

    def test_intermediate_blend(self, fb, chart, prior_ref, param_ref):
        # value and Jacobian are affine in t; the drift is their slope
        ends = [CascadePoint(fb, prior_ref, param_ref, t)
                for t in (0.0, 1.0)]
        g0, g1 = (p.value() for p in ends)
        J0, J1 = (p.derivatives(chart.factor_basis) for p in ends)
        for t in (0.25, 0.5, 0.9):
            point = CascadePoint(fb, prior_ref, param_ref, t)
            assert relative_error(point.value(),
                                  (1 - t) * g0 + t * g1) < 1e-13
            assert relative_error(point.derivatives(chart.factor_basis),
                                  (1 - t) * J0 + t * J1) < 1e-13
            assert relative_error(point.drift(), g1 - g0) < 1e-12

    def test_constant_prior_blends_to_constant(self, fb, param_ref):
        # blending a flat prior of level c only moves the level
        point = CascadePoint(fb, constant_prior(2.5), param_ref, 0.4)
        want = (0.6 + 0.4 * 2.5) * moment_g_statespace(fb, None, param_ref)
        assert relative_error(point.value(), want) < 1e-14


class TestFlatPrior:
    """prior=None is constant_prior(1.0), on both routes."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_none_is_the_unit_constant_prior(self, field, rng):
        fb = make_bank((2, 1), field)
        param = draw_param(fb, rng)
        one = constant_prior(1.0)
        assert_array_equal(moment_g_statespace(fb, None, param),
                           moment_g_statespace(fb, one, param))
        assert_array_equal(GridPoint(fb, None, param).value(),
                           GridPoint(fb, one, param).value())

    def test_blowup_is_kept(self, fb, param_ref, monkeypatch):
        # a flat point takes the copies that one constant prior keeps, like
        # any prior's, instead of building its own
        owners, built = [], []
        blowup = statespace.PriorSpectrum._blowup
        channel_blowup = statespace._channel_blowup

        def spied(self, m):
            owners.append(self)
            return blowup(self, m)

        def counted(outer, m):
            built.append(m)
            return channel_blowup(outer, m)

        monkeypatch.setattr(statespace.PriorSpectrum, "_blowup", spied)
        monkeypatch.setattr(statespace, "_channel_blowup", counted)
        for _ in range(3):
            CascadePoint(fb, None, param_ref)
        assert len(owners) == 3
        assert all(owner is owners[0] for owner in owners)
        assert owners[0].kind == "constant"
        assert len(built) <= 1


def _grid_case(bank, field, which, rng):
    """(bank, chart, GridPoint argument, its matrix, basis, directions) for
    an oracle of ``which`` at a random parameter."""
    fb = make_bank(bank, field)
    chart = make_chart(fb)
    param = draw_param(fb, rng)
    if which == "g":
        point, X, basis = param, param.C, chart.factor_basis
        D = draw_normal(rng, (3, fb.m, fb.n), field)
    else:
        point = X = h_inverse(chart, param)
        basis = chart.range_basis
        D = np.stack([chart.range_from_coords(rng.standard_normal(
            chart.dim)) for _ in range(3)])
    return fb, chart, point, X, basis, D


def _one_sum(fb, chart, prior, X, which, N, basis, D):
    """(value, derivatives along D, Jacobian) from the whole N-point grid at
    once: the value sum_k psi_k K_k / N; a derivative contracts the
    direction with Q = sum_k psi_k vec(K_k) vec(R_k)^T first and divides
    by N after."""
    psi, K = moment._kernel_grid(fb, prior, X, which, circle_grid(N))
    R = X @ K if which == "g" else K
    Q = (K.reshape(N, -1).T @ (psi[:, None] * R.reshape(N, -1))).reshape(
        fb.n, fb.n, R.shape[1], fb.n)

    def columns(mats):
        if which == "g":
            mats = mats.conj().swapaxes(-1, -2)
        Y = -np.einsum("abcd,mbc->mad", Q, mats) / N
        return Y + Y.conj().swapaxes(-1, -2) if which == "g" else Y

    def read(Y):
        Y = 0.5 * (Y + Y.conj().swapaxes(-1, -2))
        return Y.real if fb.field == "real" else Y

    return (read(np.tensordot(psi, K, axes=(0, 0)) / N), read(columns(D)),
            chart.range_coords(columns(basis)).T)


def _counted_blocks(monkeypatch):
    """The angles of every _kernel_grid call, in call order."""
    blocks = []
    kernel_grid = moment._kernel_grid

    def counted(*args):
        blocks.append(args[-1])
        return kernel_grid(*args)

    monkeypatch.setattr(moment, "_kernel_grid", counted)
    return blocks


class TestGridPoint:
    """The quadrature oracle: one walk over the grid, in contiguous blocks of
    a fixed byte budget, each summed in a fixed order."""

    @pytest.mark.parametrize("which", ["f", "g"])
    @pytest.mark.parametrize("bank,field", [
        pytest.param((2, 1), "real", id="covext-real"),
        pytest.param((2, 1), "complex", id="covext-complex"),
        pytest.param("diag", "real", id="diag-real")])
    def test_one_grid_and_the_reference_sums(self, bank, field, which,
                                             prior_ref, rng, monkeypatch):
        # N = 300 points are one block, so every number is bitwise the one
        # sum's (_one_sum); a stack of directions equals its slices one at
        # a time
        fb, chart, point, X, basis, D = _grid_case(bank, field, which, rng)
        N = 300  # not a power of two, so the division by N rounds
        blocks = _counted_blocks(monkeypatch)
        grid = GridPoint(fb, prior_ref, point, which, dtheta=2 * np.pi / N)
        value, derivs, J = (grid.value(), grid.derivatives(D),
                            grid.jacobian(chart))
        singles = [grid.derivatives(d) for d in D]
        assert len(blocks) == 1
        assert_array_equal(np.concatenate(blocks), circle_grid(N))

        want_value, want_derivs, want_J = _one_sum(
            fb, chart, prior_ref, X, which, N, basis, D)
        assert_array_equal(value, want_value)
        assert_array_equal(derivs, want_derivs)
        assert_array_equal(J, want_J)
        for single, d in zip(singles, derivs):
            assert_array_equal(single, d)

    @pytest.mark.parametrize("which", ["f", "g"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_seams(self, field, which, offset, prior_ref, rng,
                         monkeypatch):
        # grids of one point short of, exactly at and one point past two
        # full blocks: the blocks tile the grid in order, and the block
        # sums agree with the one sum to roundoff
        fb, chart, point, X, basis, D = _grid_case((2, 1), field, which, rng)
        # points per block: 16 bytes per complex kernel entry
        size = moment.GRID_BLOCK_BYTES // (16 * fb.n ** 2)
        assert size == 1024
        N = 2 * size + offset
        blocks = _counted_blocks(monkeypatch)
        grid = GridPoint(fb, prior_ref, point, which, dtheta=2 * np.pi / N)
        assert [len(b) for b in blocks] == {
            -1: [size, size - 1], 0: [size, size], 1: [size, size, 1]}[offset]
        assert_array_equal(np.concatenate(blocks), circle_grid(N))

        want = _one_sum(fb, chart, prior_ref, X, which, N, basis, D)
        got = (grid.value(), grid.derivatives(D), grid.jacobian(chart))
        for g, w in zip(got, want):
            assert relative_error(g, w) <= 1e-12

    @pytest.mark.parametrize("bank,which", [
        pytest.param((2, 1), "g", id="covext21-g"),
        pytest.param((2, 1), "f", id="covext21-f"),
        pytest.param((3, 2), "g", id="covext32-g")])
    def test_memory_does_not_grow_with_the_grid(self, bank, which,
                                                prior_ref):
        # the paper's dtheta = 1e-4 grid (62832 points); holding it whole
        # peaked at 39.9 MiB on covext(2, 1) and 156.9 MiB on covext(3, 2)
        fb = make_bank(bank, "real")
        param = FactorParameter(fb, C_REF if bank == (2, 1) else fb.B.T)
        point = param if which == "g" else h_inverse(make_chart(fb), param)
        tracemalloc.start()
        try:
            GridPoint(fb, prior_ref, point, which, dtheta=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_near_circle_rational_prior(self, field):
        # sigma = 1/(1 - 0.999 z^-1) = 1 + 0.999/(z - 0.999): psi peaks at
        # 1e6 in a band of width 2e-3 around theta = 0, which 2^16 points
        # resolve and the default grid does not
        fb = make_bank((2, 1), field)
        a = 0.999
        prior = prior_from_outer(StateSpaceSystem([[a]], [[1.0]], [[a]],
                                                  [[1.0]]))
        param = FactorParameter(fb, C_REF)
        want = moment_g_statespace(fb, prior, param)
        fine = GridPoint(fb, prior, param, dtheta=2 * np.pi / 2**16)
        assert relative_error(fine.value(), want) <= 1e-12
        assert relative_error(GridPoint(fb, prior, param).value(),
                              want) > 1e-3

    def test_unknown_map_or_route_raises(self, fb, chart, prior_ref,
                                         param_ref):
        with pytest.raises(ValueError, match="unknown moment map"):
            GridPoint(fb, prior_ref, param_ref, "h")
        with pytest.raises(ValueError, match="unknown route"):
            jacobian_condition_number(chart, prior_ref, param_ref,
                                      route="grid")


def _pointwise_jacobian(chart, prior, point, which, N):
    """-sum_k psi_k K_k D K_k / N in chart coordinates, one grid point at a
    time: the reference for the batched quadrature Jacobian."""
    fb = chart.filterbank
    if which == "g":
        C = point.C
        weight = C.conj().T @ C
        mats = [V.conj().T @ C + C.conj().T @ V for V in chart.factor_basis]
    else:
        weight = point
        mats = list(chart.range_basis)
    cols = [np.zeros((fb.n, fb.n), dtype=complex) for _ in mats]
    for k in range(1, N + 1):
        theta = -np.pi + 2.0 * np.pi * k / N
        G = fb.eval(np.exp(1j * theta))
        K = G @ np.linalg.solve(G.conj().T @ weight @ G, G.conj().T)
        psi = prior.psi_values(np.array([theta]))[0]
        for col, D in zip(cols, mats):
            col -= psi * (K @ D @ K) / N
    return np.column_stack([chart.range_coords(col) for col in cols])


class TestJacobian:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_routes_agree_entrywise(self, field, prior_ref, rng):
        fb = make_covariance_extension_filter(2, 1, field=field)
        chart = make_chart(fb)
        param = FactorParameter(fb, C_REF) if field == "real" \
            else draw_param(fb, rng)
        Js = CascadePoint(fb, prior_ref, param).jacobian(chart)
        Jq = GridPoint(fb, prior_ref, param,
                       dtheta=2 * np.pi / 4096).jacobian(chart)
        assert Js.shape == {"real": (7, 7), "complex": (12, 12)}[field]
        assert np.max(np.abs(Js - Jq)) / np.max(np.abs(Js)) < 1e-8

    @pytest.mark.parametrize("which", ["f", "g"])
    @pytest.mark.parametrize("bank,field", [
        pytest.param((2, 1), "real", id="covext-real"),
        pytest.param((2, 1), "complex", id="covext-complex"),
        pytest.param("diag", "real", id="diag-real")])
    def test_quadrature_matches_pointwise_loop(self, bank, field, which,
                                               prior_ref, rng):
        # same Riemann sum, summed in another order: equal to roundoff
        fb = make_bank(bank, field)
        chart = make_chart(fb)
        param = draw_param(fb, rng)
        point = param if which == "g" else h_inverse(chart, param)
        Jq = GridPoint(fb, prior_ref, point, which,
                       dtheta=2 * np.pi / 64).jacobian(chart)
        Jl = _pointwise_jacobian(chart, prior_ref, point, which, 64)
        for j in range(chart.dim):
            assert relative_error(Jq[:, j], Jl[:, j]) < 1e-12

    @pytest.mark.parametrize("C", [
        pytest.param(C_REF, id="reference"),
        # closed-loop radius 0.952, cond_g ~ 9e7: K peaks near 4e5 on the grid
        pytest.param(np.array([[0.6487, 0.6794, 1.1005, 0.0],
                               [-2.5744, -1.2127, 1.9312, 0.9645]]),
                     id="near-boundary")])
    def test_quadrature_condition_matches_exact_route(self, fb, chart,
                                                      prior_ref, C):
        # on criterion 1's grid the Riemann sum has converged, so the two
        # routes agree on cond_g to well below criterion 1's tolerance
        param = FactorParameter(fb, C)
        cq = jacobian_condition_number(chart, prior_ref, param,
                                       which="g", route="quadrature",
                                       dtheta=1e-4)
        cs = jacobian_condition_number(chart, prior_ref, param,
                                       which="g", route="statespace")
        assert abs(cq - cs) / cs < 1e-6

    @pytest.mark.parametrize("bank,field", [
        pytest.param((2, 1), "real", id="covext-real"),
        pytest.param((2, 1), "complex", id="covext-complex"),
        pytest.param("diag", "real", id="diag-real")])
    def test_batched_statespace_matches_column_by_column(self, bank, field,
                                                         prior_ref, rng):
        # all M tangent Stein solves in one stack against one factorization,
        # against one derivative per basis direction
        fb = make_bank(bank, field)
        chart = make_chart(fb)
        param = draw_param(fb, rng)
        J = CascadePoint(fb, prior_ref, param).jacobian(chart)
        for j, V in enumerate(chart.factor_basis):
            col = chart.range_coords(
                CascadePoint(fb, prior_ref, param).derivatives(V))
            assert np.linalg.norm(J[:, j] - col) <= 1e-13 * np.linalg.norm(col)

    def test_weight_route_needs_quadrature(self, fb, chart, prior_ref,
                                           param_ref):
        Lam = h_inverse(chart, param_ref)
        with pytest.raises(ValueError, match="factor-side"):
            jacobian_condition_number(chart, prior_ref, Lam, which="f",
                                      route="statespace")

    def test_condition_spread_at_reference_point(self, fb, chart, prior_ref,
                                                 param_ref):
        # the factor coordinates are orders of magnitude better conditioned
        # than the weight coordinates at this point
        cond_g = jacobian_condition_number(chart, prior_ref, param_ref,
                                           which="g", route="statespace")
        Lam = h_inverse(chart, param_ref)
        cond_f = jacobian_condition_number(chart, prior_ref, Lam,
                                           which="f", route="quadrature",
                                           dtheta=2 * np.pi / 4096)
        assert 1e5 < cond_g < 1e6
        assert 1e8 < cond_f < 1e9
        assert cond_f / cond_g > 1e3


class TestCascadeAssembly:
    @pytest.mark.parametrize("kind", ["constant", "polynomial", "rational",
                                      None])
    @pytest.mark.parametrize("bank", [(1, 2), (2, 1), (3, 2), "diag"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_assembled_realization_matches_cascade(self, field, bank, kind,
                                                   rng, monkeypatch):
        # a point assembles A_T, B_T and C_T around Pi and the prior's kept
        # blow-up; the oracle cascade of the prior and the inner system is
        # the oracle, and the radius the point hands its Stein
        # factorization is the spectral radius of A_T
        fb = make_bank(bank, field)
        param = draw_param(fb, rng)
        prior = None if kind is None else draw_prior(rng, kind, field)
        factored = []
        stein_solver = moment._stein_solver

        def recorded(a, radius=None):
            factored.append((a, radius))
            return stein_solver(a, radius=radius)

        monkeypatch.setattr(moment, "_stein_solver", recorded)
        point = CascadePoint(fb, prior, param)
        sigma = prior.sigma if prior is not None else StateSpaceSystem(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]])
        T = cascade(sigma, factor_inner_realization(fb, param))
        for got, want in ((point.A_T, T.A), (point.B_T, T.B),
                          (point.C_T, T.C)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
        ((a, radius),) = factored
        assert a is point.A_T
        assert abs(radius - matrixeq._spectral_radius(a)) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_a_parameter_brings_its_closed_loop(self, field, prior_ref, rng,
                                                monkeypatch):
        # Pi and Bt = B (CB)^{-1} come from the parameter's membership
        # check, so a point built on a FactorParameter makes no dense solve
        fb = make_covariance_extension_filter(2, 1, field=field)
        param = draw_param(fb, rng)

        def forbidden(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", forbidden)
        point = CascadePoint(fb, prior_ref, param, 0.5)
        n = fb.n
        assert_array_equal(point.A_T[:n, :n], param.Pi)
        assert point.param is param


class TestCascadeReads:
    """A point reads g, the drift and every derivative as the leading block
    of a Hermitian Stein solution, without Hermitizing it again."""

    @pytest.mark.parametrize("kind", ["polynomial", "rational", None])
    @pytest.mark.parametrize("bank", [(2, 1), (3, 2), "diag"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reads_are_exactly_hermitian(self, field, bank, kind, rng):
        # the Stein solver Hermitizes its output, and P_t = (1 - t) P_1 +
        # t P_psi and the drift are real combinations of such arrays, so
        # each read equals its own conjugate transpose bit for bit
        fb = make_bank(bank, field)
        chart = make_chart(fb)
        prior = None if kind is None else draw_prior(rng, kind, field)
        point = CascadePoint(fb, prior, draw_param(fb, rng), 0.3)
        V = chart.factor_basis[:3]
        for X in (point.value(), point.drift(), point.derivatives(V[0]),
                  *point.derivatives(V)):
            assert_array_equal(X, X.conj().T)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reads_are_copies(self, field, prior_ref, rng):
        fb = make_covariance_extension_filter(2, 1, field=field)
        chart = make_chart(fb)
        point = CascadePoint(fb, prior_ref, draw_param(fb, rng), 0.5)
        V = chart.factor_basis[:2]
        reads = (point.value, point.drift, lambda: point.derivatives(V))
        for read in reads:
            X = read()
            assert not np.shares_memory(X, point._P)
            assert not np.shares_memory(X, point._P_drift)
            want = X.copy()
            X[...] = 7.0
            assert_array_equal(read(), want)


class TestOddPrior:
    # 1 + 0.5i z^{-1}: outer, with psi(theta) = 1.25 + sin(theta) not even
    B_ODD = np.array([1.0, 0.5j])

    def test_real_bank_rejects_it_by_name(self, fb, param_ref):
        # g(psi, C) would be complex: an error naming the prior, not a
        # failed real-field coercion of the value or the drift
        prior = prior_from_polynomial(self.B_ODD)
        with pytest.raises(ValueError, match="^prior psi is not even"):
            CascadePoint(fb, prior, param_ref, 0.5)
        with pytest.raises(ValueError, match="^prior psi is not even"):
            moment_g_statespace(fb, prior, param_ref)

    def test_the_quadrature_oracle_rejects_it_by_name(self, fb, chart,
                                                      param_ref):
        # as the exact route does: the grid's value used to fail its
        # real-field coercion, and its Jacobian's condition number came out
        # finite (1.3e6) for a g that is complex
        prior = prior_from_polynomial(self.B_ODD)
        with pytest.raises(ValueError, match="^prior psi is not even"):
            GridPoint(fb, prior, param_ref).value()
        with pytest.raises(ValueError, match="^prior psi is not even"):
            jacobian_condition_number(chart, prior, param_ref,
                                      route="quadrature")
        with pytest.raises(ValueError, match="^prior psi is not even"):
            GridPoint(fb, prior, h_inverse(chart, param_ref), "f")

    def test_complex_bank_takes_it(self, rng):
        fbc = make_covariance_extension_filter(2, 1, field="complex")
        point = CascadePoint(fbc, prior_from_polynomial(self.B_ODD),
                             draw_param(fbc, rng))
        assert np.all(np.isfinite(point.value()))

    def test_phase_rotated_prior_gives_the_same_value(self, fb, param_ref):
        want = moment_g_statespace(fb, prior_from_polynomial(B_REF),
                                   param_ref)
        got = moment_g_statespace(
            fb, prior_from_polynomial(1j * np.asarray(B_REF)), param_ref)
        assert not np.iscomplexobj(got)
        assert_allclose(got, want, rtol=1e-13, atol=1e-13)


class TestChainRuleWeightJacobian:
    """J_f = J_g J_{h^{-1}}^{-1} against the quadrature oracle for f."""

    @pytest.mark.parametrize("prior_kind", ["polynomial", "rational"])
    @pytest.mark.parametrize("bank,field", [
        pytest.param((2, 1), "real", id="covext-real-C_REF"),
        pytest.param((2, 1), "complex", id="covext-complex"),
        pytest.param((3, 2), "real", id="covext-3-2"),
        pytest.param("diag", "real", id="diag-real")])
    def test_matches_quadrature(self, bank, field, prior_kind, rng):
        fb = make_bank(bank, field)
        chart = make_chart(fb)
        prior = (prior_from_polynomial(B_REF) if prior_kind == "polynomial"
                 else _rational_prior())
        if bank == (2, 1) and field == "real":
            # criterion 1's point and grid
            param, dtheta = FactorParameter(fb, C_REF), 1e-4
        else:
            param, dtheta = draw_param(fb, rng), 2 * np.pi / 4096
        J_g = CascadePoint(fb, prior, param).jacobian(chart)
        J_f = f_jacobian_from_g(chart, param, J_g)
        Lam = h_inverse(chart, param)
        J_q = GridPoint(fb, prior, Lam, "f", dtheta=dtheta).jacobian(chart)
        assert np.max(np.abs(J_f - J_q)) / np.max(np.abs(J_q)) < 1e-8
        cond_g, cond_f = condition_numbers(chart, prior, param)
        assert cond_g == float(np.linalg.cond(J_g))
        want = float(np.linalg.cond(J_q))
        # the benchmark's cross-route bound: roundoff grows with cond
        assert abs(cond_f - want) / want <= 1e-6 + 1e-13 * cond_f

    def test_chart_rotation_invariant(self, fb, chart, prior_ref, param_ref):
        rng = np.random.default_rng(8)
        _, cond_f = condition_numbers(chart, prior_ref, param_ref)
        for _ in range(3):
            _, cf = condition_numbers(rotated_chart(chart, rng), prior_ref,
                                      param_ref)
            assert abs(cf - cond_f) / cond_f < 1e-6

    def test_h_inverse_jacobian_matches_central_differences(self, fb, chart,
                                                            param_ref, rng):
        H = moment._h_inverse_jacobian(chart, param_ref)
        h = 1e-6
        for _ in range(3):
            y = rng.standard_normal(chart.dim)
            V = chart.factor_from_coords(y)
            fd = (h_inverse(chart, param_ref.C + h * V)
                  - h_inverse(chart, param_ref.C - h * V)) / (2 * h)
            assert relative_error(H @ y, chart.range_coords(fd)) < 1e-8

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_singular_h_inverse_jacobian_raises(self, fb, chart, prior_ref,
                                                param_ref, bad, monkeypatch):
        monkeypatch.setattr(moment, "_h_inverse_jacobian",
                            lambda chart, C: np.full((chart.dim,) * 2, bad))
        with pytest.raises(SolverError, match="h\\^\\{-1\\}"):
            condition_numbers(chart, prior_ref, param_ref)


class TestJacobianSolve:
    @pytest.fixture
    def point(self, fb, prior_ref, param_ref):
        return CascadePoint(fb, prior_ref, param_ref)

    def test_recovers_planted_direction(self, chart, point, rng):
        for _ in range(5):
            V0 = fd_direction(chart, rng)
            V, info = point.solve(chart, point.derivatives(V0))
            assert relative_error(V, V0) < 1e-6
            assert info.verify_residual <= 1e-8

    def test_scaling_direction_recovers_parameter(self, chart, point,
                                                  param_ref):
        # g'(C; C) = -2 g uniquely identifies V = C inside the slice
        V, _ = point.solve(chart, -2.0 * point.value())
        assert relative_error(V, param_ref.C) < 1e-6

    def test_one_stein_factorization_per_solve(self, fb, chart, prior_ref,
                                               param_ref, point, rng,
                                               monkeypatch):
        # the Gramian, all M columns and the verification are Stein solves
        # in the same A_T, so one factorization serves all M + 2 of them
        Y = point.derivatives(fd_direction(chart, rng))
        shapes = []
        stein_solver = moment._stein_solver

        def counted(a, radius=None):
            shapes.append(a.shape)
            return stein_solver(a, radius=radius)

        monkeypatch.setattr(moment, "_stein_solver", counted)
        CascadePoint(fb, prior_ref, param_ref).solve(chart, Y)
        # the cascade runs one copy of the prior's states per input channel
        n_T = fb.n + fb.m * prior_ref.sigma.A.shape[0]
        assert shapes == [(n_T, n_T)]

    def test_zero_right_hand_side(self, chart, point):
        V, info = point.solve(chart, np.zeros((4, 4)))
        assert_array_equal(V, np.zeros((2, 4)))
        assert info.verify_residual == 0.0

    def test_reports_conditioning(self, chart, point, rng):
        _, info = point.solve(chart,
                              point.derivatives(fd_direction(chart, rng)))
        # squared condition number of the coordinate matrix
        assert 1e10 < info.gram_cond < 1e12

    def test_condition_limit_enforced(self, chart, point, rng, monkeypatch):
        Y = point.derivatives(fd_direction(chart, rng))
        monkeypatch.setattr(moment, "GRAM_COND_LIMIT", 1.0)
        with pytest.raises(SolverError, match="condition"):
            point.solve(chart, Y)

    def test_discards_unattainable_component(self, chart, point, rng):
        # derivative values are attainable; junk orthogonal to that space
        # must not poison the solve
        V0 = fd_direction(chart, rng)
        noise = np.diag([1.0, 1.0, -1.0, -1.0]) * 1e-13
        V, info = point.solve(chart, point.derivatives(V0) + noise)
        assert relative_error(V, V0) < 1e-6
        assert info.verify_residual <= 1e-8

    @pytest.mark.parametrize("t", [0.0, 0.4, 1.0])
    def test_stack_equals_single_solves(self, fb, chart, prior_ref,
                                        param_ref, rng, t):
        # k right-hand sides against one Jacobian give the k single solves;
        # the stacked and single products round differently, by about
        # eps cond(J) relative
        point = CascadePoint(fb, prior_ref, param_ref, t)
        Y = np.stack([point.derivatives(fd_direction(chart, rng)),
                      -point.drift(), 1e-6 * point.value()])
        V, info = point.solve(chart, Y)
        assert V.shape == (3,) + param_ref.C.shape
        assert info.verify_residual.shape == (3,)
        for k in range(3):
            Vk, info_k = point.solve(chart, Y[k])
            assert relative_error(V[k], Vk) < 1e-9
            assert info.gram_cond == info_k.gram_cond
            assert info.verify_residual[k] <= 1e-8

    def test_stacked_solve_factors_one_jacobian(self, fb, chart, prior_ref,
                                                param_ref, rng, monkeypatch):
        # one Jacobian (M columns), one SVD and one stacked verification
        # for the whole stack
        point = CascadePoint(fb, prior_ref, param_ref, 0.5)
        Y = np.stack([point.derivatives(fd_direction(chart, rng)),
                      -point.drift()])
        stacks = []
        derivatives = CascadePoint.derivatives

        def counted(self, V):
            stacks.append(np.shape(V))
            return derivatives(self, V)

        monkeypatch.setattr(CascadePoint, "derivatives", counted)
        point.solve(chart, Y)
        assert stacks == [chart.factor_basis.shape, (2,) + param_ref.C.shape]

    def test_zero_slice_gives_zero_direction(self, chart, point, rng):
        Y = point.derivatives(fd_direction(chart, rng))
        V, info = point.solve(chart, np.stack([Y, np.zeros((4, 4)), -Y]))
        assert_array_equal(V[1], np.zeros((2, 4)))
        assert info.verify_residual[1] == 0.0
        assert_allclose(V[2], -V[0], rtol=1e-12, atol=1e-14)
        # a stack of zeros takes no SVD, as a single zero does
        V, info = point.solve(chart, np.zeros((2, 4, 4)))
        assert_array_equal(V, np.zeros((2, 2, 4)))
        assert_array_equal(info.verify_residual, [0.0, 0.0])
        assert info.gram_cond == 1.0

    def test_each_slice_verified_against_its_own_norm(self, chart, point,
                                                      rng, monkeypatch):
        # plant the same absolute error in every returned direction: each
        # slice's relative residual is that error over its own ||y||, so the
        # slice 1e4 times smaller reads 1e4 times larger and alone fails
        # (relative to the whole stack's norm, both would read the same)
        Y = point.derivatives(fd_direction(chart, rng))
        Y = np.stack([Y, 1e-4 * Y])
        ynorm = np.linalg.norm(chart.range_coords(Y), axis=1)
        W = chart.factor_basis[0]
        err = np.linalg.norm(chart.range_coords(point.derivatives(W)))
        from_coords = moment.CoordinateChart.factor_from_coords

        def planted(self, y):
            return from_coords(self, y) + delta * W

        monkeypatch.setattr(moment.CoordinateChart, "factor_from_coords",
                            planted)
        delta = 1e-9 * ynorm[1] / err
        _, info = point.solve(chart, Y)
        assert info.verify_residual[1] == pytest.approx(1e-9, rel=1e-2)
        assert info.verify_residual[0] < 1e-11
        delta = 1e-6 * ynorm[1] / err
        with pytest.raises(SolverError, match="in slice 1 of 2"):
            point.solve(chart, Y)
        with pytest.raises(SolverError, match="in slice 0 of 2"):
            point.solve(chart, Y[::-1])

    def test_gram_gate_raises_once_for_the_stack(self, chart, point, rng,
                                                 monkeypatch):
        Y = point.derivatives(fd_direction(chart, rng))
        jacobians = []
        jacobian = CascadePoint.jacobian

        def counted(self, chart):
            jacobians.append(chart)
            return jacobian(self, chart)

        monkeypatch.setattr(CascadePoint, "jacobian", counted)
        monkeypatch.setattr(moment, "GRAM_COND_LIMIT", 1.0)
        with pytest.raises(SolverError, match="Gram system condition"):
            point.solve(chart, np.stack([Y, -point.drift(), Y]))
        assert len(jacobians) == 1


def _other_bank(field):
    """4 states and 2 inputs, the shape of covext(2, 1), on other poles."""
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    return FilterBank(np.diag([0.5, 0.2, -0.3, 0.1]), B, field=field)


class TestOtherBank:
    """A parameter or a chart belongs to one bank object: handing one to
    another bank, even a bank of equal contents, is a ValueError."""

    @pytest.mark.parametrize("owner", ["other", "twin"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_parameter_of_another_bank_is_refused(self, field, owner,
                                                  prior_ref, rng):
        fb = make_covariance_extension_filter(2, 1, field=field)
        chart = make_chart(fb)
        if owner == "other":
            param = draw_param(_other_bank(field), rng)
        else:
            param = FactorParameter(FilterBank(fb.A, fb.B, field=field),
                                    C_REF)
        calls = [
            lambda: moment_g_statespace(fb, prior_ref, param),
            lambda: CascadePoint(fb, prior_ref, param),
            lambda: GridPoint(fb, prior_ref, param),
            lambda: jacobian_condition_number(chart, prior_ref, param,
                                              route="statespace"),
            lambda: condition_numbers(chart, prior_ref, param),
            lambda: h_inverse(chart, param),
            lambda: right_outer_factor(fb, param),
            lambda: density_values(fb, param, prior_ref, circle_grid(8)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=(
                    "^C is a FactorParameter of another filter bank$")):
                call()
        # the parameter's own bank takes it as is
        assert CascadePoint(param.filterbank, None, param).param is param

    @pytest.mark.parametrize("owner", ["other", "twin"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_chart_of_another_bank_is_refused(self, field, owner, prior_ref,
                                              rng):
        fb = make_covariance_extension_filter(2, 1, field=field)
        other = (_other_bank(field) if owner == "other"
                 else FilterBank(fb.A, fb.B, field=field))
        point = CascadePoint(fb, prior_ref, C_REF)
        chart = make_chart(other)
        Y = point.drift()
        match = "^the chart is of another filter bank$"
        # the quadrature oracle refuses it too, for g and for f
        Lambda = h_inverse(make_chart(fb), C_REF)
        for call in (lambda: GridPoint(fb, prior_ref, C_REF).jacobian(chart),
                     lambda: GridPoint(fb, prior_ref, Lambda,
                                       which="f").jacobian(chart),
                     lambda: point.jacobian(chart),
                     lambda: point.solve(chart, Y),
                     lambda: point.solve(chart, np.zeros_like(Y)),
                     lambda: point.solve(chart, np.stack([Y, Y]))):
            with pytest.raises(ValueError, match=match):
                call()
        # the point's own chart solves the same right-hand side
        V, info = point.solve(make_chart(fb), Y)
        assert info.verify_residual <= moment.VERIFY_TOL
