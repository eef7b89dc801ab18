"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (workload, seed, operation index): each
operation draws from its own ``SeedSequence([seed, index])`` stream, so the
inputs of operation k do not depend on how many operations ran before it.
Covariances are always manufactured as ``Sigma = g(psi, C_true)`` from a
known ``C_true`` in the stable factor set, so every problem is attainable
and its answer is known.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from spectral_homotopy import (FactorParameter, is_in_Cplus, make_chart,
                               make_covariance_extension_filter,
                               matrix_to_json, moment_g_statespace,
                               prior_from_polynomial)

# the paper's reference problem
C_REF = np.array([[0.5, 0.65, 1.0, 0.0],
                  [-2.2615, -1.0, 2.0, 1.0]])
B_REF = (1.0, -1.0, 0.89)
COND_G_REF = 2.4674e5
COND_F_REF = 3.8187e8
CONDNUM_DTHETA = 1e-4

WORKLOADS = ("covext-ref", "covext-wide", "covext-large", "complex",
             "condnum")
# workloads on the paper's bank and prior, whose operation 0 is at C_REF
REFERENCE_BANK = ("covext-ref", "covext-wide", "condnum")


@dataclass(frozen=True)
class SolveInput:
    """One continuation problem with its known answer."""

    label: str
    prior: object
    prior_b: np.ndarray
    C_true: np.ndarray
    Sigma: np.ndarray


@dataclass(frozen=True)
class CondnumInput:
    """One condition-number query: the parameter and the CLI config."""

    label: str
    C: np.ndarray
    config: dict


def _rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def closed_loop_radius(fb, C):
    return float(is_in_Cplus(fb, C).spectral_radius)


def _lag_blocks(fb, C):
    """C_0 = CB and the lag blocks C_1..C_p of z C G = C_0 + C_1 z^-1 + ...

    G stacks the deepest lag first, so C_k sits k blocks left of C_0.
    """
    m = fb.m
    p = fb.n // m - 1
    return [C[:, (p - k) * m:(p - k + 1) * m] for k in range(p + 1)]


def set_radius(fb, C, radius):
    """C with its closed-loop spectral radius moved to ``radius``.

    For the covariance-extension bank the closed-loop poles are the zeros of
    the matrix polynomial C_0 + C_1 z^-1 + ... + C_p z^-p; scaling C_k by s^k
    scales every zero by s and leaves C_0 = CB, hence the slice, unchanged.
    """
    s = radius / closed_loop_radius(fb, C)
    blocks = [blk * s ** k for k, blk in enumerate(_lag_blocks(fb, C))]
    return np.hstack(blocks[::-1])


def draw_factor(fb, rng, radius, complex_data=False):
    """A random point of the stable factor set with the given closed-loop radius.

    C_0 is lower triangular with a positive diagonal, as the set requires.
    """
    m = fb.m
    p = fb.n // m - 1

    def normal(shape):
        x = rng.standard_normal(shape)
        if complex_data:
            x = x + 1j * rng.standard_normal(shape)
        return x

    while True:
        C0 = np.tril(normal((m, m)), -1) + np.diag(1.0 + rng.random(m))
        C = np.hstack([normal((m, m)) for _ in range(p)] + [C0])
        rho = closed_loop_radius(fb, C)
        if np.isfinite(rho) and rho > 1e-3:
            C = set_radius(fb, C, radius)
            if is_in_Cplus(fb, C):
                return C


def perturb_factor(fb, chart, C, rng, rel, radius):
    """``C`` moved by ``rel * ||C||`` along a random direction of the factor
    slice, then scaled to the closed-loop ``radius``.

    The radius sets how close the problem sits to the boundary of the factor
    set, which is what drives the cost of a solve; fixing it keeps a window
    as hard as its base.
    """
    V = chart.factor_from_coords(rng.standard_normal(chart.dim))
    V = V * (rel * np.linalg.norm(C) / np.linalg.norm(V))
    while not is_in_Cplus(fb, C + V):
        V = V / 2
    return set_radius(fb, C + V, radius)


def prior_b(radius, angle):
    """Degree-2 minimum-phase polynomial with roots radius * e^{+-i angle}."""
    return np.array([1.0, -2.0 * radius * np.cos(angle), radius * radius])


# A workload is a base problem plus seeded data windows around it: each
# operation perturbs the base factor (and, where the prior is drawn, the
# prior's roots).  Bases are fixed, so the cost of an operation does not
# swing with the seed.
BASE_RADIUS = {"covext-large": 0.75, "complex": 0.85}
BASE_PRIOR = (0.7, 0.45 * np.pi)
PRIOR_JITTER = (0.02, 0.02 * np.pi)
# covext-ref's 1% windows all solve in 10 steps and 30 Newton iterations;
# covext-wide's 5% windows reach start Jacobians near GRAM_COND_LIMIT, and
# about one in a hundred stalls at t = 0 (see README.md)
C_JITTER = {"covext-ref": 0.01, "covext-wide": 0.05, "covext-large": 0.02,
            "complex": 0.02, "condnum": 0.05}
# closed-loop radius of a window: C_REF has 0.985
RADIUS_RANGE = {"covext-ref": (0.95, 0.96), "covext-wide": (0.95, 0.96),
                "covext-large": (0.74, 0.76), "complex": (0.84, 0.86),
                "condnum": (0.95, 0.96)}


class Workload:
    """Shared set-up (bank, chart, base problem) and the per-operation inputs."""

    def __init__(self, name, seed):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = int(seed)
        if name == "covext-large":
            self.fb = make_covariance_extension_filter(3, 2)
        elif name == "complex":
            self.fb = make_covariance_extension_filter(2, 1, field="complex")
        else:
            self.fb = make_covariance_extension_filter(2, 1)
        self.chart = make_chart(self.fb)
        self.prior_ref = prior_from_polynomial(np.array(B_REF))
        if name in REFERENCE_BANK:
            self.C_base = C_REF
        else:
            base_rng = np.random.default_rng(np.random.SeedSequence([0]))
            self.C_base = draw_factor(self.fb, base_rng, BASE_RADIUS[name],
                                      complex_data=name == "complex")

    def make(self, index):
        """Inputs of operation ``index``; operation 0 of the workloads on
        the reference bank is the paper's reference point itself."""
        rng = _rng(self.seed, index)
        if self.name in REFERENCE_BANK and index == 0:
            C, label = C_REF.copy(), "reference"
        else:
            C = perturb_factor(self.fb, self.chart, self.C_base, rng,
                               C_JITTER[self.name],
                               rng.uniform(*RADIUS_RANGE[self.name]))
            label = "window"
        if self.name == "condnum":
            config = {
                "filter": {"preset": "covext", "m": 2, "p": 1},
                "prior": {"kind": "polynomial", "b": list(B_REF)},
                "C": matrix_to_json(C),
                "quadrature": {"dtheta": CONDNUM_DTHETA},
            }
            return CondnumInput(label=label, C=C, config=config)
        if self.name in REFERENCE_BANK:
            b, prior = np.array(B_REF), self.prior_ref
        else:
            r = BASE_PRIOR[0] + PRIOR_JITTER[0] * rng.uniform(-1, 1)
            phi = BASE_PRIOR[1] + PRIOR_JITTER[1] * rng.uniform(-1, 1)
            b = prior_b(r, phi)
            prior = prior_from_polynomial(b)
        Sigma = moment_g_statespace(self.fb, prior, FactorParameter(self.fb, C))
        return SolveInput(label=label, prior=prior, prior_b=b, C_true=C,
                          Sigma=Sigma)


def write_config(config, path):
    with open(path, "w") as fh:
        json.dump(config, fh)
