"""Shared fixtures: the lag-window filter bank, a reference prior and
parameter, and samplers for admissible random inputs."""

import numpy as np
import pytest

from spectral_homotopy import (CoordinateChart, FactorParameter, FilterBank,
                               StateSpaceSystem, constant_prior, make_chart,
                               make_covariance_extension_filter,
                               maxent_initialization, moment_g_statespace,
                               prior_from_outer, prior_from_polynomial,
                               solve_dlyap)
from spectral_homotopy.statespace import _channel_blowup

# reference point used throughout: a parameter whose two coordinate systems
# have sharply different conditioning
C_REF = np.array([[0.5, 0.65, 1.0, 0.0],
                  [-2.2615, -1.0, 2.0, 1.0]])
B_REF = [1.0, -1.0, 0.89]


@pytest.fixture(scope="session")
def fb():
    return make_covariance_extension_filter(2, 1)


@pytest.fixture(scope="session")
def chart(fb):
    return make_chart(fb)


@pytest.fixture(scope="session")
def prior_ref():
    return prior_from_polynomial(B_REF)


@pytest.fixture
def c_ref():
    return C_REF.copy()


@pytest.fixture
def param_ref(fb):
    return FactorParameter(fb, C_REF)


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)


@pytest.fixture
def random_sigma(fb, chart):
    """Sampler for feasible covariances: project a random symmetric matrix
    onto the attainable set, then shift it well into the positive cone
    (the identity is itself attainable for this filter bank)."""

    def sample(rng):
        X = rng.standard_normal((fb.n, fb.n))
        Xp = chart.project_range_gamma(0.5 * (X + X.T))
        lam = float(np.min(np.linalg.eigvalsh(Xp)))
        return Xp + (abs(lam) + 0.5 + rng.random()) * np.eye(fb.n)

    return sample


@pytest.fixture
def random_param(fb, random_sigma):
    # the flat-prior solution of a random feasible covariance is a cheap
    # source of interior points of the stable factor set
    def sample(rng):
        return maxent_initialization(fb, random_sigma(rng))

    return sample


@pytest.fixture
def random_prior():
    def sample(rng):
        while True:
            b = np.concatenate([[1.0], 0.6 * rng.standard_normal(2)])
            try:
                return prior_from_polynomial(b)
            except Exception:
                continue

    return sample


@pytest.fixture
def random_pair(random_param, random_prior):
    def sample(rng):
        return random_prior(rng), random_param(rng)

    return sample


# covariance-extension banks (m, p) with n = m (p + 1) <= 8, a general bank
# with nonzero real poles, a THREE bank with complex poles, and a general
# two-input bank
ROUND_TRIP_BANKS = [(m, p) for m in (1, 2, 3) for p in range(4)
                    if m * (p + 1) <= 8] + ["diag", "three", "pair"]


def _three_bank(field):
    """THREE-type bank (Byrnes, Georgiou & Lindquist 2000): the six poles
    0.9 e^{2 pi i k / 6} and B = ones.  The complex bank is diagonal; the
    real one holds the poles 0.9 and -0.9 on its diagonal and each conjugate
    pair as a 2 x 2 rotation block."""
    if field == "complex":
        A = np.diag(0.9 * np.exp(2j * np.pi * np.arange(6) / 6))
    else:
        A = np.diag([0.9, -0.9, 0.0, 0.0, 0.0, 0.0])
        for i, angle in ((2, np.pi / 3), (4, 2 * np.pi / 3)):
            c, s = 0.9 * np.cos(angle), 0.9 * np.sin(angle)
            A[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
    return FilterBank(A, np.ones((6, 1)), field=field)


def _pair_bank(field):
    """A general bank with m = 2 inputs and n = 5 states: the poles
    0.5 +- 0.4i (a 2 x 2 rotation block), 0.8, -0.6 and 0.3, and a dense B
    whose columns mix every mode."""
    A = np.diag([0.0, 0.0, 0.8, -0.6, 0.3])
    A[:2, :2] = [[0.5, -0.4], [0.4, 0.5]]
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0],
                  [0.5, 2.0]])
    return FilterBank(A, B, field=field)


def make_bank(bank, field):
    if bank == "diag":
        return FilterBank(np.diag([0.5, -0.3, 0.7, 0.2]), np.ones((4, 1)),
                          field=field)
    if bank == "three":
        return _three_bank(field)
    if bank == "pair":
        return _pair_bank(field)
    return make_covariance_extension_filter(*bank, field=field)


def draw_normal(rng, shape, field):
    x = rng.standard_normal(shape)
    if field == "complex":
        x = x + 1j * rng.standard_normal(shape)
    return x


def draw_prior(rng, kind, field):
    if kind == "constant":
        return constant_prior(0.5 + rng.random())
    if kind == "rational":
        # one pole and one zero inside the disc
        a, zero = rng.uniform(-0.8, 0.8, 2)
        return prior_from_outer(StateSpaceSystem(
            np.array([[a]]), np.array([[1.0]]), np.array([[a - zero]]),
            np.array([[1.0]])))
    roots = rng.uniform(0.0, 0.8, 2) * np.exp(1j * rng.uniform(0, np.pi, 2))
    if field == "real":
        return prior_from_polynomial(np.poly([roots[0], roots[0].conj()]).real)
    return prior_from_polynomial(np.poly(roots))


def draw_param(fb, rng):
    # maximum-entropy parameter of an attainable covariance: the white-noise
    # state covariance X0 plus a random range element, scaled so that the
    # sum keeps a share of X0's smallest eigenvalue
    X0 = solve_dlyap(fb.A, fb.B @ fb.B.conj().T)
    S = fb.B @ draw_normal(rng, (fb.m, fb.n), fb.field)
    X1 = solve_dlyap(fb.A, S + S.conj().T)
    scale = rng.uniform(0.1, 0.95) * np.linalg.eigvalsh(X0)[0] \
        / np.linalg.norm(X1, 2)
    return maxent_initialization(fb, X0 + scale * X1)


def draw_random_bank(seed):
    """The random problem of ``seed``: m in 1..3 inputs and n in m+1..8
    states, either field, a Gaussian A scaled to a spectral radius in
    [0.3, 0.95], a Gaussian B and a prior of a drawn kind.  Returns (bank,
    prior, rng), the generator left ready for draw_param."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m + 1, 9))
    field = ("real", "complex")[rng.integers(2)]
    A = draw_normal(rng, (n, n), field)
    A = A * rng.uniform(0.3, 0.95) / np.max(np.abs(np.linalg.eigvals(A)))
    B = draw_normal(rng, (n, m), field)
    kind = ("constant", "polynomial", "rational")[rng.integers(3)]
    return FilterBank(A, B, field=field), draw_prior(rng, kind, field), rng


def random_additive_quadruple(rng, n=3, p=2, complex_data=False):
    """Random (F, G, H, J) with Z + Z* = S S* on the circle by construction,
    together with the generating stable system S = (A, B, C, D)."""

    def normal(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_data else x

    A = normal((n, n))
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    A *= (0.3 + 0.6 * rng.random()) / max(rho, 1e-9)
    B = normal((n, p))
    C = normal((p, n))
    D = normal((p, p)) + 2.0 * np.eye(p)
    Pc = solve_dlyap(A, B @ B.conj().T)
    G = A @ Pc @ C.conj().T + B @ D.conj().T
    J = 0.5 * (C @ Pc @ C.conj().T + D @ D.conj().T)
    return (A, G, C, J), (A, B, C, D)


def series_product(left, right):
    """Realization of the matrix product ``left(z) @ right(z)``.

    The right factor acts on the input first.  State dimension is the sum of
    the factors' state dimensions.
    """
    if left.n_inputs != right.n_outputs:
        raise ValueError(
            f"inner dimensions differ: left has {left.n_inputs} inputs, "
            f"right has {right.n_outputs} outputs"
        )
    n1, n2 = left.n_states, right.n_states
    dtype = np.result_type(left.A.dtype, right.A.dtype,
                           left.D.dtype, right.D.dtype, float)
    A = np.zeros((n1 + n2, n1 + n2), dtype=dtype)
    A[:n1, :n1] = left.A
    A[:n1, n1:] = left.B @ right.C
    A[n1:, n1:] = right.A
    B = np.vstack([left.B @ right.D, right.B]).astype(dtype)
    C = np.hstack([left.C, left.D @ right.C]).astype(dtype)
    D = (left.D @ right.D).astype(dtype)
    return StateSpaceSystem(A, B, C, D)


def cascade(outer, inner):
    """Realization of ``outer(z) * inner(z)`` for a scalar outer factor.

    The scalar factor is applied per input channel of ``inner``, so the state
    dimension is ``inner.n_states + outer.n_states * inner.n_inputs``.  The
    tests' oracle for the cascade that moment.CascadePoint assembles in
    place.
    """
    if outer.n_inputs != 1 or outer.n_outputs != 1:
        raise ValueError("outer factor must be scalar (1x1)")
    if outer.n_states == 0:
        d = outer.D.reshape(())
        return StateSpaceSystem(inner.A, inner.B * d, inner.C, inner.D * d)
    return series_product(inner, _channel_blowup(outer, inner.n_inputs))


def factor_inner_realization(filterbank, C):
    """Stable realization (Pi, B (CB)^{-1}, I, 0) of G(z) (z C G(z))^{-1}.

    Accepts a FactorParameter or a raw matrix in the stable factor set.
    """
    param = C if isinstance(C, FactorParameter) else FactorParameter(filterbank, C)
    n = filterbank.n
    return StateSpaceSystem(param.Pi, param.Bt, np.eye(n),
                            np.zeros((n, filterbank.m)))


def fd_direction(chart, rng):
    # directions for finite-difference probes must stay inside the factor
    # slice, otherwise the perturbed point leaves the admissible set
    return chart.factor_from_coords(rng.standard_normal(chart.dim))


def rotated_chart(chart, rng):
    # orthonormal change of both coordinate systems
    def rotate(basis):
        Q = np.linalg.qr(rng.standard_normal((len(basis), len(basis))))[0]
        return tuple(
            sum(Q[j, i] * basis[j] for j in range(len(basis)))
            for i in range(len(basis)))

    return CoordinateChart(chart.filterbank, rotate(chart.range_basis),
                           rotate(chart.factor_basis))


def relative_error(got, want):
    want = np.asarray(want)
    scale = float(np.linalg.norm(want))
    return float(np.linalg.norm(np.asarray(got) - want)) / max(scale, 1e-300)


@pytest.fixture
def sigma_ref(fb, prior_ref, param_ref):
    return moment_g_statespace(fb, prior_ref, param_ref)
