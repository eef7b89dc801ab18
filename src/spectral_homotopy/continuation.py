"""Homotopy continuation in the prior.

The flat-prior problem g(1, C) = Sigma has a closed-form solution (the
maximum-entropy parameter).  For a general prior psi the path of densities
(1 - t) + t psi, t in [0, 1], connects the two problems; differentiating
g(p(t), C(t)) = Sigma in t gives the path ODE

    g'(p(t), C; C') = -( g(psi, C) - g(1, C) ),

which is followed by a cubic Hermite predictor (Euler for the first step,
which has no earlier sample) and a Newton corrector per step.  Only the
endpoint t = 1 is converged to ``newton_tol``: an intermediate point is
accepted once its residual lies inside the tube
||Sigma - g|| <= max(newton_tol, PATH_TOL ||Sigma||), since it only has to
keep the next prediction inside Newton's basin, and the next corrector
pulls the path back anyway (Allgower & Georg, Numerical Continuation
Methods).  PATH_TOL = 3e-4 is the predictor's own error: at dt = 0.1 it
lands 1e-5 to 3e-4 ||Sigma|| off the reference path, so a tighter tube
would pay an iterate to bring a point closer than the next prediction
stays, and a prediction inside the tube is accepted with no iterate.  The
tube is relative, so it does not depend on the scale of Sigma.  The
predictor extrapolates, in factor coordinates, the cubic through the last
two accepted samples and their tangents, and adds the result to the last
C as an increment: Newton directions never correct the part of C outside
the factor slice, so a prediction that combined the samples' matrices
would propagate that roundoff with a factor above one per step.  The
tangents are the ones the steps already solve, so the predictor costs no
solve.
p(t) is never factored: g is affine in it, so one cascade point at t
(moment.CascadePoint) gives g, its Jacobian and the drift.  The tangent
and the Newton step share one Jacobian (the Euler-Newton method of
Allgower & Georg): at t < 1 each corrector iterate solves [Sigma - g,
-drift] against its one Jacobian, and the tangent of the last iterate,
one Newton step away from the accepted point, predicts the next step.
That O(||Newton step||) offset is below the predictor's own error.  A
corrector that accepts its prediction with no iterate solves the tangent
at the accepted point, so it returns a tangent at every t < 1; only the
start point (whose P_t = P_1 also checks the start's defining equation)
solves its tangent in run_continuation.  A failure there ends the run at
once, since no smaller step moves the t = 0 point.  Every later failure,
of a corrector iterate, a membership check or a tangent solve, halves the
step (each step retries from the configured dt, so one hard spot does not
shrink the rest of the path), and a SolverError reports the failure
history, ending with the last failure's reason, when the floor MIN_DT is
reached.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, MembershipError, SolverError
from .factorization import _factor_parameter
from .matrixeq import reverse_cholesky
from .moment import CascadePoint, make_chart
from .statespace import (FactorParameter, _check_finite, _hermitian_defect,
                         _hermitize, matrix_to_json)

__all__ = [
    "HomotopyConfig",
    "PathSample",
    "SolutionPath",
    "maxent_initialization",
    "corrector_newton",
    "run_continuation",
    "write_path_csv",
    "write_path_json",
]

SNAP_TOL = 1e-12
FEASIBILITY_TOL = 1e-8
# intermediate path points are accepted at this residual relative to
# ||Sigma||: the predictor's own error at dt = 0.1 on the reference path
PATH_TOL = 3e-4
# the smallest continuation step, and the Newton iterations per corrector
MIN_DT = 1e-4
MAX_NEWTON = 20


@dataclass(frozen=True)
class HomotopyConfig:
    """Step-size and tolerance settings for the continuation run.

    ``dt`` is the step each continuation step first tries; it must lie in
    [MIN_DT, 1], the smallest step a halving may reach.  ``newton_tol`` is
    the absolute residual ||Sigma - g|| the corrector reaches at the
    endpoint t = 1; intermediate points stop inside the looser tube
    max(newton_tol, PATH_TOL ||Sigma||), PATH_TOL = 3e-4.  It must be
    finite and positive.
    Both must be real numbers (numpy scalars included, bools not) and are
    kept as floats; any other value, or one out of range, raises
    ConfigError naming the field.  A corrector takes at most MAX_NEWTON
    iterations.
    """

    dt: float = 0.1
    newton_tol: float = 1e-10

    def __post_init__(self):
        for name in ("dt", "newton_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(
                    f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not MIN_DT <= self.dt <= 1.0:
            raise ConfigError(
                f"dt must lie in [{MIN_DT:g}, 1], got {self.dt}")
        if not 0.0 < self.newton_tol < np.inf:
            raise ConfigError(
                f"newton_tol must be finite and positive, got "
                f"{self.newton_tol}")


@dataclass(frozen=True, eq=False)
class PathSample:
    """One accepted continuation step (or the start, t = 0).

    ``tangent_norm`` is the Frobenius norm of the tangent dC/dt that
    predicts the next step, and ``gram_cond`` the Gram condition
    cond(J)^2 of the Jacobian J it was solved with, so the two always
    describe one Jacobian:
    - at t = 0, the start's tangent solve at the sample's own C, made by
      run_continuation;
    - at a t < 1 whose corrector took no iteration, the corrector's tangent
      solve at the sample's own C;
    - at any other t < 1, the corrector's last iterate, one Newton step
      before the sample's C, whose Jacobian gave that step and the tangent;
    - at t = 1, no tangent is solved (``tangent_norm`` 0.0) and
      ``gram_cond`` is the last iterate's Jacobian (0.0 after no iteration).
    """

    t: float
    C: np.ndarray
    y: np.ndarray
    residual: float
    newton_iters: int
    gram_cond: float
    tangent_norm: float


@dataclass(frozen=True, eq=False)
class SolutionPath:
    """Full record of a continuation run."""

    filterbank: object
    config: HomotopyConfig
    Sigma: np.ndarray
    samples: tuple = field(default_factory=tuple)

    @property
    def chart(self):
        """The bank's chart, make_chart(filterbank), which fixes the meaning
        of the samples' coordinates ``y``; it is the object the bank keeps,
        so reading it builds no basis after the run."""
        return make_chart(self.filterbank)

    @property
    def final(self):
        return self.samples[-1]

    def final_parameter(self):
        return FactorParameter(self.filterbank, self.final.C)


def _check_covariance(chart, Sigma):
    """Admissibility of Sigma as a state covariance of ``chart``'s bank.

    Returns (Sigma, findings, eig_min, rr): the Hermitian part of Sigma, the
    list of what disqualifies it (empty when it is admissible), its smallest
    eigenvalue and its relative distance from the range of the covariance
    operator.  Sigma must be Hermitian to STRICT_TOL, positive definite and
    attainable: rr at most FEASIBILITY_TOL.  A wrong shape or a non-finite
    entry raises ValueError.
    """
    Sigma = np.atleast_2d(np.asarray(Sigma))
    n = chart.filterbank.n
    if Sigma.shape != (n, n):
        raise ValueError(f"Sigma must be {n}x{n}, got {Sigma.shape}")
    _check_finite(Sigma, "Sigma")
    findings = []
    defect = _hermitian_defect(Sigma)
    if defect is not None:
        findings.append(f"not Hermitian (defect {defect:.3e})")
    Sigma = _hermitize(Sigma)
    eig_min = float(np.min(np.linalg.eigvalsh(Sigma)))
    if not eig_min > 0.0:
        findings.append(
            f"not positive definite (min eigenvalue {eig_min:.6e})")
    rr = chart.range_residual(Sigma)
    if rr > FEASIBILITY_TOL:
        findings.append(f"not attainable as a state covariance (relative "
                        f"distance {rr:.3e} from the range of the covariance "
                        f"operator)")
    return Sigma, findings, eig_min, rr


def _start_point(chart, prior, Sigma):
    """The cascade point at t = 0 on the maximum-entropy parameter.

    With B* Sigma^{-1} B = L* L (L lower triangular, positive diagonal), the
    parameter is C = L^{-*} B* Sigma^{-1}, built as h_map builds its C from
    the Riccati solution (factorization._factor_parameter, which makes CB
    exactly L at any scale of Sigma).  At t = 0 the point's P_t is P_1, so
    its value is g(1, C), which must meet Sigma to 1e-9 ||Sigma|| (else
    SolverError naming the gap and cond(Sigma), whose roundoff the closed
    form carries).  A Stein solve of the point that fails its residual gate
    raises SolverError too, naming the start and cond(Sigma), chained from
    the gate's error.  Sigma must be admissible (else MembershipError, see
    maxent_initialization).  Returns (point, Sigma, gap): Sigma Hermitized
    and gap = ||g(1, C) - Sigma||.
    """
    filterbank = chart.filterbank
    Sigma, findings, _, _ = _check_covariance(chart, Sigma)
    if findings:
        raise MembershipError("Sigma is " + "; ".join(findings))
    Si = np.linalg.inv(Sigma)
    B = filterbank.B
    # the roundoff asymmetry of B* Si B grows with cond(Sigma), and the
    # Cholesky factor checks symmetry to STRICT_TOL
    param = _factor_parameter(
        filterbank, Si, reverse_cholesky(_hermitize(B.conj().T @ Si @ B)))
    try:
        point = CascadePoint(filterbank, prior, param, 0.0)
    except SolverError as exc:
        raise SolverError(
            f"maximum-entropy start failed: {exc} (cond(Sigma) = "
            f"{np.linalg.cond(Sigma):.3e})") from exc
    gap = float(np.linalg.norm(point.value() - Sigma))
    if gap > 1e-9 * float(np.linalg.norm(Sigma)):
        raise SolverError(
            f"maximum-entropy parameter failed its defining equation "
            f"(||g(1, C) - Sigma|| = {gap:.3e}, cond(Sigma) = "
            f"{np.linalg.cond(Sigma):.3e})")
    return point, Sigma, gap


def maxent_initialization(filterbank, Sigma):
    """Closed-form solution of g(1, C) = Sigma.

    The parameter is C = L^{-*} B* Sigma^{-1} with B* Sigma^{-1} B = L* L
    (see _start_point, which also checks g(1, C) = Sigma to 1e-9 ||Sigma||,
    else SolverError).  Sigma must be n x n and finite (else ValueError),
    and Hermitian, positive definite and attainable: its distance from the
    range of the covariance operator must not exceed FEASIBILITY_TOL
    relative to its norm (else MembershipError naming every violation).
    """
    return _start_point(make_chart(filterbank), None, Sigma)[0].param


def corrector_newton(chart, prior, t, param, Sigma, config):
    """Newton iteration on g(p(t), C) = Sigma, p(t) = (1 - t) + t psi, from
    the predicted parameter.

    Every step is a full Newton step (the verified direction solve already
    guarantees descent to first order).  A candidate outside the factor set
    raises MembershipError, on which run_continuation retries the
    continuation step at half the step size.  The residual is the plain
    Frobenius norm ||Sigma - g||.  The endpoint t = 1 stops at
    ``config.newton_tol``; an intermediate t stops inside the relative tube
    max(newton_tol, PATH_TOL ||Sigma||), PATH_TOL = 3e-4, whose error the
    next step's corrector removes: a prediction already inside it is
    accepted with 0 iterations.  At each iterate, g and the direction solve
    share one cascade point and its Stein factorization (the squared powers
    of A_T).  For t < 1 that direction solve takes two right-hand sides,
    [Sigma - g, -drift], against the iterate's one Jacobian (Euler-Newton,
    Allgower & Georg): the first gives the Newton step, the second the path
    tangent at the iterate, so the next predictor needs no Jacobian of its
    own.  A prediction accepted at t < 1 with 0 iterations has no iterate's
    tangent, and its tangent is solved at the accepted point alone.  At
    t = 1 no tangent is needed and the Newton right-hand side is solved
    alone.

    Returns (point, residual, iterations, gram_cond, tangent): ``point`` is
    the cascade point at the accepted parameter ``point.param``;
    ``tangent`` is the path tangent that predicts the next step, None only
    at t = 1: after >= 1 iterations the last iterate's, one Newton step
    away from the accepted parameter, after 0 iterations the one solved at
    ``point``; ``gram_cond`` is the Gram condition of the Jacobian that
    tangent came from (at t = 1, of the last iterate's Jacobian, 0.0 after
    no iteration).  Raises SolverError when the budget is exhausted or a
    direction or tangent solve fails.
    """
    fb = chart.filterbank
    tol = config.newton_tol
    if t < 1.0:
        tol = max(tol, PATH_TOL * float(np.linalg.norm(Sigma)))
    gram_cond, tangent = 0.0, None
    for it in range(MAX_NEWTON + 1):
        point = CascadePoint(fb, prior, param, t)
        resid_mat = Sigma - point.value()
        rnorm = float(np.linalg.norm(resid_mat))
        if rnorm <= tol:
            if t < 1.0 and tangent is None:
                tangent, info = point.solve(chart, -point.drift())
                gram_cond = info.gram_cond
            return point, rnorm, it, gram_cond, tangent
        if it == MAX_NEWTON:
            break
        if t < 1.0:
            (V, tangent), info = point.solve(
                chart, np.array([resid_mat, -point.drift()]))
        else:
            V, info = point.solve(chart, resid_mat)
        gram_cond = info.gram_cond
        param = FactorParameter(fb, param.C + V)
    raise SolverError(
        f"Newton did not reach tolerance {tol:.1e} at t = {t:.6g} in "
        f"{MAX_NEWTON} iterations (last residual {rnorm:.3e})")


def _hermite_increment(h, dt, y0, a0, y1, a1):
    """y(t_1 + dt) - y_1 for the cubic Hermite interpolant y through
    (t_1 - h, y0) and (t_1, y1) with derivatives a0 and a1 there.

    The interpolant in the variable s = (t - t_0) / h is evaluated at
    s = 1 + dt / h; a cubic path is reproduced exactly.
    """
    s = 1.0 + dt / h
    h00 = 2.0 * s**3 - 3.0 * s**2 + 1.0
    h10 = s**3 - 2.0 * s**2 + s
    h11 = s**3 - s**2
    return h00 * (y0 - y1) + h * (h10 * a0 + h11 * a1)


def _start(chart, prior, Sigma, config):
    """The start of run_continuation: _start_point and the tangent
    g'(p(0), C; V) = -(g(psi, C) - g(1, C)) solved there.

    Returns (point, Sigma, gap, tangent, info), info the tangent solve's
    JacobianSolveInfo.  A failed tangent solve raises SolverError at once
    (``continuation stalled at t = 0: tangent solve failed``), its history
    the one failure at t = 0 and config.dt; so does every error of
    _start_point.
    """
    point, Sigma, gap = _start_point(chart, prior, Sigma)
    try:
        tangent, info = point.solve(chart, -point.drift())
    except SolverError as exc:
        raise SolverError(
            f"continuation stalled at t = 0: tangent solve failed ({exc})",
            history=[(0.0, config.dt, str(exc))]) from exc
    return point, Sigma, gap, tangent, info


def run_continuation(filterbank, prior, Sigma, config=None):
    """Follow the prior homotopy from the maximum-entropy start to t = 1.

    Parameters
    ----------
    filterbank : FilterBank
    prior : PriorSpectrum
    Sigma : (n, n) Hermitian positive definite feasible covariance
    config : HomotopyConfig, defaults to HomotopyConfig()

    Returns
    -------
    SolutionPath
        Samples at t = 0 and at every accepted step up to and including
        t = 1.  With the default dt = 0.1 the path has exactly ten steps.
        On the reference problem the run takes 10 Newton iterates and
        factors 12 Jacobians: one per iterate, one for the start's tangent
        and one for the tangent the corrector solves at t = 0.3, whose
        prediction lay inside the tube and took no iterate.  Its ``chart``,
        ``make_chart(filterbank)``, fixes the meaning of the samples'
        coordinates ``y``; it is built on the bank's first run (or first
        make_chart call) and kept on the bank, so later runs on the same
        bank build no basis.

    The tangent at the start is solved first (_start, which the CLI's
    ``check`` runs too), and its failure raises SolverError at once
    (``continuation stalled at t = 0: tangent solve failed``), since no
    smaller step moves the t = 0 point.  Every later tangent comes from
    corrector_newton, and any failure of a step halves it, down to MIN_DT.
    """
    config = config or HomotopyConfig()
    chart = make_chart(filterbank)
    # the start's residual is the gap its gate checked
    point, Sigma, rnorm, tangent, info = _start(chart, prior, Sigma, config)

    t, iters, gram_cond = 0.0, 0, info.gram_cond
    history, samples = [], []
    # (t, y, a) of the previous accepted sample and its tangent
    previous = None
    while True:
        C = point.param.C
        y = chart.factor_coords(C)
        samples.append(PathSample(
            t=t, C=C, y=y, residual=rnorm, newton_iters=iters,
            gram_cond=gram_cond, tangent_norm=(
                0.0 if tangent is None else float(np.linalg.norm(tangent)))))
        if t >= 1.0:
            break
        a = chart.factor_coords(tangent)
        dt_try = float(config.dt)
        # the one failure policy after the start: halve the step and retry
        while True:
            t_next = t + dt_try
            if t_next > 1.0 - SNAP_TOL:
                t_next = 1.0
            dt_eff = t_next - t
            if previous is None:  # Euler: no earlier sample yet
                step = dt_eff * a
            else:
                t0, y0, a0 = previous
                step = _hermite_increment(t - t0, dt_eff, y0, a0, y, a)
            C_pred = C + chart.factor_from_coords(step)
            try:
                pred = FactorParameter(filterbank, C_pred)
                point, rnorm, iters, gram_cond, tangent = corrector_newton(
                    chart, prior, t_next, pred, Sigma, config)
                break
            except (SolverError, MembershipError) as exc:
                history.append((t, dt_try, str(exc)))
                dt_try *= 0.5
                if dt_try < MIN_DT:
                    raise SolverError(
                        f"continuation stalled at t = {t:.6g}: step size fell "
                        f"below the smallest step {MIN_DT:.1e} (last failure: "
                        f"{exc})", history=history) from exc
        previous = (t, y, a)
        t = t_next
    return SolutionPath(filterbank=filterbank, config=config, Sigma=Sigma,
                        samples=tuple(samples))


def _fmt(v):
    return f"{float(v):.17g}"


def _write_text(dest, text):
    """Write ``text`` to ``dest``, an open text file or a path."""
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)


def write_path_csv(path, dest):
    """Write a SolutionPath as CSV: t, y_1..y_M, residual, newton_iters,
    gram_cond; floats carry 17 significant digits.  ``gram_cond`` is the
    Gram condition of the Jacobian that gave the sample's tangent (at
    t = 1, its last Newton step; see PathSample)."""
    M = path.samples[0].y.size
    header = ["t"] + [f"y_{k}" for k in range(1, M + 1)] \
        + ["residual", "newton_iters", "gram_cond"]
    lines = [",".join(header)]
    for s in path.samples:
        row = [_fmt(s.t)] + [_fmt(v) for v in s.y] \
            + [_fmt(s.residual), str(int(s.newton_iters)), _fmt(s.gram_cond)]
        lines.append(",".join(row))
    _write_text(dest, "\n".join(lines) + "\n")


def write_path_json(path, dest):
    """JSON sidecar: run metadata plus the factor parameter at every sample."""
    doc = {
        "m": path.filterbank.m,
        "n": path.filterbank.n,
        "field": path.filterbank.field,
        "config": asdict(path.config),
        "Sigma": matrix_to_json(path.Sigma),
        "samples": [
            {
                "t": s.t,
                "C": matrix_to_json(s.C),
                "y": [float(v) for v in s.y],
                "residual": s.residual,
                "newton_iters": int(s.newton_iters),
                "gram_cond": s.gram_cond,
                "tangent_norm": s.tangent_norm,
            }
            for s in path.samples
        ],
    }
    _write_text(dest, json.dumps(doc, indent=2))
