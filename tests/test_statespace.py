"""Filter bank geometry, membership tests, priors, serialization."""

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spectral_homotopy import (EvaluationError, FactorParameter, FilterBank,
                               GridPoint, MembershipError, PriorSpectrum,
                               StateSpaceSystem,
                               circle_grid, coerce_field, constant_prior,
                               grid_size_from_spacing, h_map, is_in_Cplus,
                               is_in_Lplus, make_chart,
                               make_covariance_extension_filter,
                               matrix_from_json, matrix_to_json, matrixeq,
                               prior_from_outer, prior_from_polynomial,
                               statespace)

from spectral_homotopy.statespace import _as_prior, _fir_system

from conftest import (C_REF, cascade, draw_param, factor_inner_realization,
                      make_bank, series_product)


class TestFilterBank:
    def test_lag_window_shape(self, fb):
        assert (fb.n, fb.m) == (4, 2)
        # block shift: one more power than the window depth annihilates it
        assert np.all(np.linalg.matrix_power(fb.A, 2) == 0)

    def test_value_at_one(self, fb):
        assert_allclose(fb.eval(1.0), np.vstack([np.eye(2), np.eye(2)]),
                        atol=1e-14)

    def test_value_at_minus_one(self, fb):
        assert_allclose(fb.eval(-1.0), np.vstack([np.eye(2), -np.eye(2)]),
                        atol=1e-14)

    def test_bottom_rows_are_pure_delay(self, fb):
        z = np.exp(1j * np.linspace(-2.9, 3.0, 7))
        Gz = fb.eval_grid(z)
        want = np.eye(2) / z[:, None, None]
        assert_allclose(fb.B.T @ Gz, want, atol=1e-14)

    def test_eval_matches_dense_solve(self, fb):
        z = 2.0 + 0.5j
        want = np.linalg.solve(z * np.eye(fb.n) - fb.A, fb.B)
        assert_allclose(fb.eval(z), want, rtol=1e-14)
        assert_allclose(fb.eval_grid([z])[0], want, rtol=1e-14)

    def test_eval_at_pole_raises(self):
        fb = FilterBank(np.array([[0.5]]), np.array([[1.0]]))
        with pytest.raises(EvaluationError):
            fb.eval(0.5)

    def test_eval_grid_at_pole_raises(self):
        fb = FilterBank(np.diag([0.5, -0.3, 0.7, 0.2]), np.ones((4, 1)))
        with pytest.raises(EvaluationError, match="0.5"):
            fb.eval_grid([0.1, 0.5])

    def test_rejects_unstable_A(self):
        with pytest.raises(MembershipError, match="Schur"):
            FilterBank(np.array([[1.0]]), np.array([[1.0]]))

    def test_rejects_rank_deficient_B(self):
        A = np.zeros((2, 2))
        B = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(MembershipError, match="rank"):
            FilterBank(A, B)

    def test_rejects_unreachable_pair(self):
        A = np.diag([0.5, 0.3])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(MembershipError, match="reachable"):
            FilterBank(A, B)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["A", "B"])
    def test_rejects_non_finite_data_by_name(self, which, bad):
        # checked before any eigenvalue, rank or reachability computation,
        # so numpy neither warns nor raises its own error first
        data = {"A": np.array([[0.5]]), "B": np.array([[1.0]])}
        data[which] = np.array([[bad]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"filter {which} has non-finite"):
                FilterBank(data["A"], data["B"])

    @pytest.mark.parametrize("A, B, field, message", [
        (np.eye(2) / 2, np.ones((2, 1)), "quaternion",
         "field must be 'real' or 'complex', got 'quaternion'"),
        (np.zeros((2, 3)), np.ones((2, 1)), "real",
         "filter A must be nxn, got (2, 3)"),
        (np.eye(2) / 2, np.ones((3, 1)), "real",
         "filter B must be 2xm, got (3, 1)"),
        (np.eye(2) / 2, np.ones((2, 3)), "real",
         "B cannot have more columns than A has rows"),
        (np.zeros((1, 2, 2)), np.ones((2, 1)), "real",
         "filter A must be nxn, got (1, 2, 2)")],
        ids=["field", "non-square-A", "B-rows", "B-columns", "3-d-A"])
    def test_rejects_bad_shapes_and_fields(self, A, B, field, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            FilterBank(A, B, field=field)

    def test_preset_argument_validation(self):
        with pytest.raises(ValueError):
            make_covariance_extension_filter(0, 1)
        with pytest.raises(ValueError):
            make_covariance_extension_filter(2, -1)


def _arrays(obj, seen=None):
    """Every numpy array reachable from ``obj`` through attributes, dicts
    and sequences."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [a for item in items for a in _arrays(item, seen)]


class TestSharedSetUp:
    """A preset bank per (m, p, field) and a polynomial prior per
    coefficient vector are built once per process and shared."""

    def test_one_bank_per_arguments(self):
        fb = make_covariance_extension_filter(2, 1)
        assert make_covariance_extension_filter(2, 1, field="real") is fb
        assert make_covariance_extension_filter(np.int64(2), np.int8(1)) is fb
        banks = [make_covariance_extension_filter(m, p, field=field)
                 for m, p in ((2, 1), (1, 2), (2, 2))
                 for field in ("real", "complex")]
        assert banks[0] is fb
        assert len({id(bank) for bank in banks}) == len(banks)
        assert [(b.m, b.n, b.field) for b in banks[::2]] == [
            (2, 4, "real"), (1, 3, "real"), (2, 6, "real")]

    @pytest.mark.parametrize("m, p, field", [
        (2.0, 1, "real"), (True, 1, "real"), (2, "1", "real"),
        (2, 1, "Real"), (2, 1, ["real"])])
    def test_preset_rejects_other_arguments(self, m, p, field):
        with pytest.raises(ValueError):
            make_covariance_extension_filter(m, p, field=field)

    def test_one_prior_per_coefficient_vector(self):
        prior = prior_from_polynomial([1.0, -1.0, 0.89])
        assert prior_from_polynomial(np.array([1.0, -1.0, 0.89])) is prior
        others = [prior_from_polynomial([1.0, -1.0, 0.88]),
                  prior_from_polynomial([1.0, -0.5]),
                  prior_from_polynomial(np.array([1.0, -1.0, 0.89],
                                                 dtype=complex))]
        assert len({id(p) for p in [prior] + others}) == 4
        # another dtype is another prior with the same density
        ints = prior_from_polynomial(np.array([2, 1]))
        floats = prior_from_polynomial(np.array([2.0, 1.0]))
        assert ints is not floats
        theta = circle_grid(16)
        assert_array_equal(ints.psi_values(theta), floats.psi_values(theta))

    def test_every_shared_array_is_read_only(self):
        fb = make_covariance_extension_filter(2, 1)
        chart = make_chart(fb)
        prior = prior_from_polynomial([1.0, -1.0, 0.89])
        prior._blowup(fb.m)
        seen = set()
        arrays = [a for obj in (fb, chart, prior) for a in _arrays(obj, seen)]
        # A, B and the row and column indices above the diagonal of CB; the
        # two bases and the conjugate transposes the coordinate maps
        # contract with; sigma's and each blow-up's A, B, C, D
        assert len(arrays) == 2 + 2 + 2 + 2 + 4 * (1 + len(prior._blowups))
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            prior.sigma.C[0, 0] = 0.0

    def test_the_prior_cache_is_bounded(self):
        size = statespace._PRIOR_CACHE_SIZE
        first = prior_from_polynomial([1.0, 0.125])
        for k in range(size + 5):
            prior_from_polynomial([1.0, 0.5 / (k + 3)])
        info = statespace._polynomial_prior.cache_info()
        assert (info.maxsize, info.currsize) == (size, size)
        # the least recently used vector went first
        assert prior_from_polynomial([1.0, 0.125]) is not first

    def test_a_rejected_prior_is_checked_on_every_call(self, monkeypatch):
        built = []
        fir_system = statespace._fir_system

        def counted(b):
            built.append(b)
            return fir_system(b)

        monkeypatch.setattr(statespace, "_fir_system", counted)
        for _ in range(2):
            with pytest.raises(MembershipError, match="not minimum phase"):
                prior_from_polynomial([1.0, -2.0])
        assert len(built) == 2


class TestValueTypes:
    """Each value type declares only its constructor's inputs as fields and
    compares and hashes by identity: two objects of equal contents are two
    values, as a chart kept on one bank object is not another bank's."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_equal_contents_are_two_values(self, field):
        fb = make_covariance_extension_filter(2, 1, field=field)
        sigma = (np.array([[0.5]]), np.array([[1.0]]), np.array([[0.3]]),
                 np.array([[1.0]]))
        pairs = [
            (FilterBank(fb.A, fb.B, field=field),
             FilterBank(fb.A, fb.B, field=field)),
            (StateSpaceSystem(*sigma), StateSpaceSystem(*sigma)),
            (prior_from_outer(StateSpaceSystem(*sigma)),
             prior_from_outer(StateSpaceSystem(*sigma))),
            (FactorParameter(fb, C_REF), FactorParameter(fb, C_REF)),
        ]
        for a, b in pairs:
            assert a == a and not a == b and a != b
            assert hash(a) == object.__hash__(a)
            assert hash(b) == object.__hash__(b)
            assert len({a, b, a}) == 2

    @pytest.mark.parametrize("cls, names", [
        (FilterBank, ["A", "B", "field"]),
        (PriorSpectrum, ["sigma", "kind"]),
        (FactorParameter, ["filterbank", "C"]),
    ])
    def test_fields_are_the_constructor_inputs(self, cls, names):
        assert [f.name for f in dataclasses.fields(cls)] == names
        assert list(inspect.signature(cls).parameters) == names

    def test_derived_state_is_set_by_construction(self):
        fb = FilterBank(np.diag([0.5, 0.2]), np.array([[1.0], [1.0]]))
        assert fb._chart is None and fb._radius == 0.5
        assert make_chart(fb) is fb._chart is make_chart(fb)
        prior = prior_from_outer(StateSpaceSystem(
            [[0.5]], [[1.0]], [[0.3]], [[1.0]]))
        assert prior._blowups == {} and prior._even
        assert prior._blowup(2) is prior._blowup(2)
        assert list(prior._blowups) == [2]
        param = FactorParameter(fb, [[1.0, 0.0]])
        assert_array_equal(param.CB, [[1.0]])
        assert param.spectral_radius() == param._radius


class TestGrids:
    def test_circle_grid_range_and_spacing(self):
        theta = circle_grid(8)
        assert theta.shape == (8,)
        assert_allclose(np.diff(theta), 2 * np.pi / 8)
        assert_allclose(theta[-1], np.pi)
        assert theta[0] > -np.pi

    def test_circle_grid_range_is_a_slice(self):
        theta = circle_grid(300)
        for start, stop in [(0, 300), (0, 7), (7, 300), (299, 300)]:
            assert_array_equal(circle_grid(300, start, stop),
                               theta[start:stop])

    def test_grid_size_from_spacing(self):
        assert grid_size_from_spacing(1e-3) == round(2 * np.pi / 1e-3)
        n = grid_size_from_spacing(1e-4)
        assert abs(2 * np.pi / n - 1e-4) < 1e-8

    @pytest.mark.parametrize("n", [0, -3, 2.5, 4.0, np.nan, np.inf, True])
    def test_circle_grid_takes_a_positive_integer(self, n):
        # 2.5 used to give three angles 2 pi / 2.5 apart, and nan or inf
        # leaked numpy's own arange error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"grid size must be a positive integer, got {n!r}")):
                circle_grid(n)

    def test_circle_grid_takes_a_numpy_integer(self):
        assert_array_equal(circle_grid(np.int64(8)), circle_grid(8))

    @pytest.mark.parametrize("dtheta", [0.0, -1e-3, np.nan, np.inf])
    def test_spacing_must_be_finite_and_positive(self, fb, dtheta):
        # an infinite spacing used to give a one-point "quadrature"
        for make in (lambda: grid_size_from_spacing(dtheta),
                     lambda: GridPoint(fb, None, C_REF, dtheta=dtheta)):
            with pytest.raises(ValueError,
                               match="^dtheta must be finite and positive$"):
                make()


class TestSystems:
    def test_system_without_states_is_its_feedthrough(self, rng):
        D = rng.standard_normal((3, 2))
        sys0 = StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, 2)),
                                np.zeros((3, 0)), D)
        z = np.exp(1j * np.array([0.0, 1.2, -2.5]))
        assert_allclose(sys0.eval_grid(z), np.broadcast_to(D, (3, 3, 2)),
                        atol=0)
        assert_allclose(sys0.eval(2.0), D, atol=0)

    def test_series_product_is_pointwise_product(self, rng):
        a = StateSpaceSystem(np.array([[0.4]]), np.array([[1.0, 0.0]]),
                             np.array([[1.0], [2.0]]),
                             rng.standard_normal((2, 2)))
        b = StateSpaceSystem(np.array([[-0.3]]), np.array([[0.5, 1.0]]),
                             np.array([[1.0], [0.0]]),
                             rng.standard_normal((2, 2)))
        prod = series_product(a, b)
        assert prod.n_states == 2
        for z in np.exp(1j * np.array([0.3, 1.1, -2.0])):
            assert_allclose(prod.eval(z), a.eval(z) @ b.eval(z), atol=1e-13)

    def test_cascade_applies_scalar_per_channel(self, rng):
        outer = StateSpaceSystem(np.array([[0.6]]), np.array([[1.0]]),
                                 np.array([[0.7]]), np.array([[1.2]]))
        inner = StateSpaceSystem(np.diag([0.2, -0.4]),
                                 rng.standard_normal((2, 2)),
                                 rng.standard_normal((3, 2)),
                                 rng.standard_normal((3, 2)))
        prod = cascade(outer, inner)
        assert prod.n_states == inner.n_states + 2
        for z in np.exp(1j * np.array([0.0, 0.9, 2.5])):
            assert_allclose(prod.eval(z), inner.eval(z) * outer.eval(z)[0, 0],
                            atol=1e-12)


class TestStableFactorSet:
    def test_reference_point_is_member(self, fb, c_ref):
        diag = is_in_Cplus(fb, c_ref)
        assert diag
        assert diag.member
        assert_allclose(diag.spectral_radius, 0.9848730882707679, rtol=1e-9)

    def test_flat_parameter_is_member(self, fb):
        assert is_in_Cplus(fb, fb.B.T).member

    def test_singular_CB_rejected(self, fb):
        C = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        diag = is_in_Cplus(fb, C)
        assert not diag
        assert any("diagonal" in msg for msg in diag.failures)

    def test_upper_triangular_CB_rejected(self, fb):
        C = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
        diag = is_in_Cplus(fb, C)
        assert not diag
        # CB = [[1, 1], [0, 1]]
        assert diag.failures == (
            "CB is not lower triangular (max above-diagonal modulus 1.000e+00)",)

    def test_overflowing_closed_loop_is_a_named_failure(self, fb):
        # CB = [[1e-310, 0], [2, 1]] is nonsingular, but B (CB)^{-1} and Pi
        # overflow: the closed loop's spectral radius is inf, a failure
        # named beside the diagonal's, not an error from the eigenvalues
        C = [[0.5, 0.65, 1e-310, 0.0], [-2.2615, -1.0, 2.0, 1.0]]
        diag = is_in_Cplus(fb, C)
        assert diag.spectral_radius == np.inf
        assert diag.failures == (
            "diagonal of CB is not positive (min real part 1.000e-310)",
            "closed loop is not Schur stable (spectral radius inf)")
        with pytest.raises(MembershipError,
                           match=r"\(spectral radius inf\)$"):
            FactorParameter(fb, C)

    def test_complex_diagonal_of_CB_is_a_named_failure(self):
        # on a complex bank the diagonal of CB must be real; here its (0, 0)
        # entry is 1 + 1e-3 j while the closed loop stays Schur stable
        fb = make_covariance_extension_filter(2, 1, field="complex")
        C = np.array([[0.3 + 0.2j, -0.2 + 0.1j, 1.0 + 1e-3j, 0.0],
                      [-0.4 + 0.3j, 0.1 - 0.2j, 0.5 - 0.5j, 1.5]])
        diag = is_in_Cplus(fb, C)
        assert not diag
        assert diag.spectral_radius < 1.0
        assert diag.failures == (
            "diagonal of CB is not real (max imaginary part 1.000e-03)",)
        with pytest.raises(MembershipError,
                           match=r": diagonal of CB is not real \(max "
                                 r"imaginary part 1\.000e-03\)$"):
            FactorParameter(fb, C)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectral_radius_of_a_non_finite_matrix_is_inf(self, bad):
        A = np.array([[0.5, 0.0], [bad, 0.1]])
        for a in (A, A.astype(complex)):
            assert statespace._spectral_radius(a) == np.inf

    def test_shape_mismatch_raises(self, fb):
        with pytest.raises(ValueError):
            is_in_Cplus(fb, np.eye(3))

    def test_three_dimensional_parameter_raises(self, fb):
        for check in (is_in_Cplus, FactorParameter):
            with pytest.raises(ValueError, match=re.escape(
                    "C must be 2x4, got (1, 2, 4)")):
                check(fb, C_REF[None])

    def test_complex_parameter_of_a_real_bank_raises(self):
        # the membership test checks the field as FactorParameter does
        fb1 = make_covariance_extension_filter(1, 1)
        assert is_in_Cplus(fb1, [[0.5, 1.0]])
        for check in (is_in_Cplus, FactorParameter):
            with pytest.raises(ValueError, match="imaginary part"):
                check(fb1, [[0.5 + 0.1j, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_is_its_one_finding(self, fb, bad):
        # a ValueError naming C, found before CB is formed, so numpy warns
        # of nothing
        C = C_REF.copy()
        C[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (is_in_Cplus, FactorParameter):
                with pytest.raises(ValueError,
                                   match="^C has non-finite entries$"):
                    check(fb, C)

    def test_parameter_caches_feedback_data(self, fb, c_ref):
        param = FactorParameter(fb, c_ref)
        assert_allclose(param.CB, c_ref @ fb.B, atol=1e-15)
        # closed loop Pi = A - B (CB)^{-1} C A must be Schur stable
        rho = float(np.max(np.abs(np.linalg.eigvals(param.Pi))))
        assert rho < 1.0

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("bank", [(2, 1), (3, 1), "pair"])
    def test_parameter_keeps_the_closed_loop_input(self, bank, field):
        # Bt = B (CB)^{-1}, read-only beside CB and Pi = A - Bt C A
        fb = make_bank(bank, field)
        param = draw_param(fb, np.random.default_rng(3))
        for name in ("CB", "Pi", "Bt"):
            assert not getattr(param, name).flags.writeable
        B = fb.B
        assert (np.linalg.norm(param.Bt @ param.CB - B)
                <= 1e-14 * np.linalg.norm(B))

    def test_parameter_rejects_nonmember(self, fb):
        C = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(MembershipError):
            FactorParameter(fb, C)

    def test_inner_realization_is_pointwise_inverse_factor(self, fb, c_ref):
        # the realization evaluates G (z C G)^{-1} without forming it
        sysr = factor_inner_realization(fb, c_ref)
        for z in np.exp(1j * np.array([0.4, -1.3, 3.0])):
            Gz = fb.eval(z)
            want = Gz @ np.linalg.inv(z * (c_ref @ Gz))
            assert_allclose(sysr.eval(z), want, atol=1e-12)


class TestPositiveCone:
    def test_identity_weight(self, fb):
        diag = is_in_Lplus(fb, np.eye(4))
        assert diag
        assert diag.reason is None
        # two unit-delay blocks contribute 1 each on the whole circle
        G = fb.eval_grid(np.exp(1j * circle_grid(16)))
        assert_allclose(G.conj().transpose(0, 2, 1) @ G,
                        np.broadcast_to(2.0 * np.eye(2), (16, 2, 2)),
                        rtol=1e-12, atol=1e-12)

    def test_negative_weight_rejected(self, fb):
        diag = is_in_Lplus(fb, -np.eye(4))
        assert not diag
        assert diag.reason == ("its mean J + J* is not positive definite "
                               "(min eigenvalue -2.000000e+00)")

    def test_indefinite_but_admissible_weight(self, fb):
        # admissibility is positivity of G* Lam G, not of Lam itself
        Lam = np.eye(4)
        Lam[0, 0] = -0.5
        assert is_in_Lplus(fb, Lam).member

    def test_non_hermitian_raises(self, fb):
        M = np.eye(4)
        M[0, 1] = 1.0
        with pytest.raises(ValueError):
            is_in_Lplus(fb, M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, fb, bad):
        Lam = np.eye(4)
        Lam[2, 2] = bad
        for check in (is_in_Lplus, h_map):
            with pytest.raises(ValueError, match="non-finite"):
                check(fb, Lam)

    def test_complex_weight_of_a_real_bank_raises_before_any_solve(
            self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Stein solve for an invalid Lambda")

        fb1 = make_covariance_extension_filter(1, 1)
        monkeypatch.setattr(matrixeq, "_stein_solver", forbidden)
        for check in (is_in_Lplus, h_map):
            with pytest.raises(ValueError, match="Lambda: imaginary part"):
                check(fb1, np.array([[2.0, 0.3j], [-0.3j, 1.0]]))


class TestPriors:
    def test_polynomial_prior_accepts_stable_roots(self, prior_ref):
        roots = np.roots([1.0, -1.0, 0.89])
        assert np.max(np.abs(roots)) < 1.0
        theta = np.array([0.0, 1.0])
        b = np.array([1.0, -1.0, 0.89])
        z = np.exp(1j * theta)
        want = np.abs(b[0] + b[1] / z + b[2] / z ** 2) ** 2
        got = np.abs(prior_ref.sigma_values(theta)) ** 2
        assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    def test_constant_prior_must_be_positive_and_finite(self, value):
        with pytest.raises(MembershipError, match="positive and finite"):
            constant_prior(value)

    def test_polynomial_prior_rejects_unstable_root(self):
        with pytest.raises(MembershipError, match="minimum phase"):
            prior_from_polynomial([1.0, -2.0])

    @pytest.mark.parametrize("b", [[1.0, np.nan], [np.inf, 0.5],
                                   [1.0, -1.0, -np.inf]])
    def test_polynomial_prior_rejects_non_finite_b(self, b):
        # found on b, before the outer check's eigenvalues; the FIR
        # realization's own check would name its C or D instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="b has non-finite entries"):
                prior_from_polynomial(b)

    @pytest.mark.parametrize("which", ["A", "B", "C", "D"])
    def test_system_rejects_non_finite_matrices_by_name(self, which):
        data = {k: np.array([[v]]) for k, v in zip("ABCD", (0.5, 1, 0.3, 1))}
        data[which] = np.array([[np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"^{which} has non-finite entries"):
                prior_from_outer(StateSpaceSystem(**data))

    @pytest.mark.parametrize("which, shape, message", [
        ("A", (1, 2), "A must be nxn, got (1, 2)"),
        ("B", (2, 1), "B must be 1xk, got (2, 1)"),
        ("C", (1, 2), "C must be px1, got (1, 2)"),
        ("D", (1, 2), "D must be 1x1, got (1, 2)"),
        ("D", (1, 1, 1), "D must be 1x1, got (1, 1, 1)")])
    def test_system_rejects_each_shape_fault(self, which, shape, message):
        data = {k: np.array([[v]]) for k, v in zip("ABCD", (0.5, 1, 0.3, 1))}
        data[which] = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StateSpaceSystem(**data)

    def test_prior_kind_and_scalar_sigma(self):
        scalar = _fir_system([1.0, 0.5])
        with pytest.raises(ValueError, match="^unknown prior kind 'spline'$"):
            PriorSpectrum(scalar, kind="spline")
        two_inputs = StateSpaceSystem(np.array([[0.5]]), np.ones((1, 2)),
                                      np.ones((1, 1)), np.ones((1, 2)))
        with pytest.raises(ValueError,
                           match="^sigma must be a scalar system$"):
            PriorSpectrum(two_inputs)

    def test_rational_prior_rejects_unstable_sigma(self):
        unstable = StateSpaceSystem(np.array([[1.5]]), np.array([[1.0]]),
                                    np.array([[0.1]]), np.array([[1.0]]))
        with pytest.raises(MembershipError, match=re.escape(
                "sigma is not outer: A is not Schur stable (spectral "
                "radius 1.5)")):
            prior_from_outer(unstable)

    def test_polynomial_prior_takes_a_1d_b(self):
        for b in ([[1.0, 0.5]], []):
            with pytest.raises(ValueError, match=(
                    "^b must be a non-empty 1-d coefficient array$")):
                prior_from_polynomial(b)

    def test_rational_prior_rejects_zero_feedthrough(self):
        sys_ = StateSpaceSystem(np.array([[0.5]]), np.array([[1.0]]),
                                np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(MembershipError, match="outer"):
            prior_from_outer(sys_)

    def test_rational_prior_rejects_unstable_zero(self):
        # zero dynamics A - BC/d = 0.5 - 2 = -1.5
        sys_ = StateSpaceSystem(np.array([[0.5]]), np.array([[1.0]]),
                                np.array([[2.0]]), np.array([[1.0]]))
        with pytest.raises(MembershipError, match="outer"):
            prior_from_outer(sys_)

    def test_rational_prior_with_an_overflowing_zero_is_not_outer(self):
        # A - B C / D overflows to -inf: a zero of modulus inf, named by
        # the outer check instead of an error from the eigenvalues
        sys_ = StateSpaceSystem([[0.5]], [[1e300]], [[1e10]], [[0.1]])
        with pytest.raises(MembershipError, match=(
                "^sigma is not outer: a zero of modulus inf >= 1$")):
            prior_from_outer(sys_)

    def test_building_a_prior_solves_no_matrix_equation(self, monkeypatch):
        # an outer sigma has psi > 0, so no prior needs the Stein solve and
        # the positivity pencil of an exact circle test
        def forbidden(*args, **kwargs):
            raise AssertionError("a prior ran a positivity test")

        for name in ("_circle_positivity", "_stein_solver"):
            monkeypatch.setattr(matrixeq, name, forbidden)
        # so that the polynomial priors below are built, not looked up
        statespace._polynomial_prior.cache_clear()
        rational = StateSpaceSystem([[0.5]], [[1.0]], [[0.3]], [[1.0]])
        for build in (lambda: constant_prior(2.0),
                      lambda: prior_from_polynomial([1.0, -1.0, 0.89]),
                      lambda: prior_from_polynomial([1.0, -0.5j]),
                      lambda: prior_from_outer(rational)):
            assert build().psi_values(np.array([0.0])) > 0.0
        with pytest.raises(MembershipError, match="b is not minimum phase"):
            prior_from_polynomial([1.0, -1.0])
        with pytest.raises(MembershipError, match="sigma is not outer"):
            prior_from_outer(StateSpaceSystem([[0.5]], [[1.0]], [[-0.5]],
                                              [[1.0]]))

    @pytest.mark.parametrize("b, stem", [
        ([0.0, 1.0], "b is not minimum phase: its feedthrough vanishes"),
        ([1.0, -1.0], "b is not minimum phase: a zero of modulus 1 "),
        ([1.0, 0.0, 4.0], "b is not minimum phase: a zero of modulus ")])
    def test_one_outer_check_for_every_kind(self, b, stem):
        # the FIR's zeros are the roots of b, found by PriorSpectrum's one
        # check; built directly, the same sigma is a non-outer rational prior
        with pytest.raises(MembershipError, match=f"^{stem}"):
            prior_from_polynomial(b)
        with pytest.raises(MembershipError, match="^sigma is not outer: "):
            PriorSpectrum(_fir_system(np.array(b)))

    @pytest.mark.parametrize("sigma, even", [
        (_fir_system(np.array([1.0, -1.0, 0.89])), True),
        # one common phase
        (_fir_system(1j * np.array([1.0, -1.0, 0.89])), True),
        (_fir_system(np.exp(0.7j) * np.array([1.0, 0.5])), True),
        # 1 + 0.5i z^{-1}: psi = 1.25 + sin(theta)
        (_fir_system(np.array([1.0, 0.5j])), False),
        # a pole at 0.5i: h = 1, 0.3, 0.15i, ...
        (StateSpaceSystem([[0.5j]], [[1.0]], [[0.3]], [[1.0]]), False),
        # the conjugate pole pair of a real system is even
        (StateSpaceSystem(np.diag([0.5j, -0.5j]), [[1.0], [1.0]],
                          [[0.2, 0.2]], [[1.0]]), True)])
    def test_evenness_of_psi(self, sigma, even):
        prior = prior_from_outer(sigma)
        assert prior._even is even
        # the decision agrees with psi itself
        theta = np.linspace(0.1, 3.0, 7)
        gap = np.max(np.abs(prior.psi_values(theta)
                            - prior.psi_values(-theta)))
        assert bool(gap <= 1e-13) is even

    def test_evenness_survives_a_complex_similarity(self, rng):
        ref = prior_from_polynomial([1.0, -1.0, 0.89]).sigma
        T = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Ti = np.linalg.inv(T)
        phase = np.exp(-1.1j)
        prior = prior_from_outer(StateSpaceSystem(
            T @ ref.A @ Ti, T @ ref.B, phase * ref.C @ Ti, phase * ref.D))
        assert prior._even

    def test_a_real_bank_rejects_an_odd_prior(self):
        odd = prior_from_polynomial([1.0, 0.5j])
        with pytest.raises(ValueError, match="^prior psi is not even"):
            _as_prior(odd, "real")
        assert _as_prior(odd, "complex") is odd

    def test_outer_check_does_not_depend_on_scale(self):
        # b = 1e-13 (1 + 0.1 z^{-1}) is outer at any scale, and so is a
        # tiny constant; a feedthrough that is small beside C is a zero at
        # infinity
        for prior in (constant_prior(1e-30),
                      prior_from_polynomial([1e-13, 1e-14])):
            assert prior.psi_values(np.array([0.0])) > 0.0
        with pytest.raises(MembershipError, match="feedthrough vanishes"):
            prior_from_polynomial([1e-13, 1.0])


class TestSerialization:
    def test_real_matrix_round_trip(self, rng):
        M = rng.standard_normal((3, 5))
        data = matrix_to_json(M)
        assert isinstance(data[0][0], float)
        assert_allclose(matrix_from_json(data), M, rtol=0, atol=0)

    def test_complex_matrix_round_trip(self, rng):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        data = matrix_to_json(M)
        assert data[0][0] == [M[0, 0].real, M[0, 0].imag]
        assert_allclose(matrix_from_json(data), M, rtol=0, atol=0)

    def test_bad_payload_raises(self):
        with pytest.raises(ValueError):
            matrix_from_json([])
        with pytest.raises(ValueError):
            matrix_from_json("nope")


class TestFieldCoercion:
    def test_real_field_discards_tiny_imag(self):
        M = np.eye(2) + 1e-15j * np.ones((2, 2))
        out = coerce_field(M, "real")
        assert not np.iscomplexobj(out)

    def test_real_field_rejects_large_imag(self):
        M = np.eye(2) + 1e-6j * np.ones((2, 2))
        with pytest.raises(ValueError, match="imaginary"):
            coerce_field(M, "real")

    def test_stack_is_checked_slice_by_slice(self):
        # 1e-9 is roundoff next to slice 0's entries of 1e6, not next to
        # slice 1's entries of 1: each slice is held to its own scale
        M = np.stack([1e6 * np.eye(2), np.eye(2)]) + 1e-9j
        out = coerce_field(M[:1], "real")
        assert out.shape == (1, 2, 2) and not np.iscomplexobj(out)
        with pytest.raises(ValueError, match=r"1\.000e-09 exceeds .* 2\.000e"):
            coerce_field(M, "real")

    def test_complex_field_passes_through(self):
        M = np.eye(2) + 1j
        out = coerce_field(M, "complex")
        assert np.iscomplexobj(out)


def test_reference_parameter_matches_module_constant(fb):
    assert is_in_Cplus(fb, C_REF).member
