"""Command-line interface.

Verbs:

- ``solve``: follow the prior homotopy and write the path artifacts (CSV,
  JSON sidecar, final parameters, run report).
- ``condnum``: condition numbers of the two parametrizations at a given C,
  both exact: cond_g from the Gramian Jacobian of g at C, cond_f from the
  Jacobian of f at Lambda = h^{-1}(C) by the chain rule (see
  moment.condition_numbers).  ``solve`` reports the same pair at its end.
- ``check``: membership and feasibility report for the config inputs;
  report-only, exits 0 whenever the config itself parses.  Lambda
  membership is exact, and a VIOLATION names where G* Lambda G fails, in
  the words h_map raises for the same Lambda.  With a feasible ``sigma``
  and a valid ``prior`` it also runs the start of ``solve`` (the
  maximum-entropy point and its tangent solve) and prints ``start: ok``
  with the Gram condition and cond(Sigma), or ``start: VIOLATION`` with
  the message ``solve`` would exit 3 with.
- ``maxent``: closed-form flat-prior solution for Sigma.  ``solve``,
  ``check`` and ``maxent`` share one start, continuation._start; under
  the flat prior its tangent is zero, so ``maxent`` exits 3 on the
  start's defining-equation and Stein gates, as ``solve`` does, but never
  on a tangent solve.
- ``selftest``: reduced-size consistency suites, on the real and on the
  complex covext(2, 1) bank.

One domain policy for every section: parsing checks structure, and the
verb that reads a section checks its domain.  ``solve`` reads ``prior``
and ``sigma``, ``condnum`` ``prior`` and ``C``, ``maxent`` ``sigma``, whose
``from`` reads its own prior, else ``prior``, else the flat one.  A prior's
domain violation is recorded at parse time and raised by a verb that reads
that prior, as a configuration error naming ``prior`` or
``sigma.from.prior``; ``check`` prints it as a VIOLATION line.

``--config`` and ``--out`` are the only flags: they name paths, and every
solver setting is read from the config (``continuation``'s ``dt`` and
``newton_tol``), which ``path.json`` records.  ``--out`` (solve, condnum,
maxent) is the one route to the output directory: ``solve`` writes into
the current directory without it, and ``condnum`` and ``maxent`` then
write no file; ``check`` takes only ``--config``.  No verb builds a
quadrature grid except ``selftest``, whose oracle suite checks the exact g
against one; the section ``quadrature`` (``dtheta``) is parsed so that
existing configs keep working, but nothing reads it.

Exit codes: 0 success, 1 selftest failure, 2 configuration error (a
config that cannot be read or an artifact that cannot be written among
them), 3 any other error of the package (reported as ``solver error:``).

``main`` may be called in-process any number of times: it builds the
argument parser on its first call and reuses it, and a usage error still
raises ``SystemExit(2)``.  What depends on the bank or the prior alone is
shared the same way: a ``covext`` preset is one bank per (m, p, field),
its chart is built once and kept on it, and a polynomial prior is one
prior per coefficient vector, with its per-channel copies (see
make_covariance_extension_filter, make_chart and prior_from_polynomial).
A repeated ``condnum`` on one config builds none of them again; the
config file is read and checked on every call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import factorization
from .continuation import (HomotopyConfig, _check_covariance, _start,
                           maxent_initialization, run_continuation,
                           write_path_csv, write_path_json)
from .errors import ConfigError, MembershipError, SpectralHomotopyError
from .matrixeq import is_in_Lplus
from .moment import (CascadePoint, GridPoint, condition_numbers, make_chart,
                     moment_g_statespace)
from .statespace import (FactorParameter, FilterBank, StateSpaceSystem,
                         _as_matrix, _as_prior, constant_prior,
                         is_in_Cplus, make_covariance_extension_filter,
                         matrix_from_json, matrix_to_json, prior_from_outer,
                         prior_from_polynomial)

__all__ = ["RunConfig", "parse_config", "main"]


# ---------------------------------------------------------------------------
# config parsing


def _as_section(doc, path, allowed):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: "
                              + ", ".join(sorted(allowed)) + ")")
    return doc


def _require(doc, key, path):
    if key not in doc:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return doc[key]


def _parse_matrix(data, path):
    try:
        return matrix_from_json(data)
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_number(value, path, kind=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return kind(value)


def _parse_scalar_list(data, path):
    """List of plain numbers or [re, im] pairs -> 1-d array, decoded as the
    one row of a matrix."""
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: expected a non-empty list")
    return _parse_matrix([data], path)[0]


def _parse_filter(spec, path="filter"):
    spec = _as_section(spec, path, {"preset", "m", "p", "A", "B", "field"})
    try:
        if "preset" in spec:
            preset = spec["preset"]
            if preset != "covext":
                raise ConfigError(f"{path}.preset: unknown preset "
                                  f"{preset!r} (available: covext)")
            m = _parse_number(_require(spec, "m", path), f"{path}.m", int)
            p = _parse_number(_require(spec, "p", path), f"{path}.p", int)
            return make_covariance_extension_filter(
                m, p, field=spec.get("field", "real"))
        A = _parse_matrix(_require(spec, "A", path), f"{path}.A")
        B = _parse_matrix(_require(spec, "B", path), f"{path}.B")
        complex_ = np.iscomplexobj(A) or np.iscomplexobj(B)
        return FilterBank(A, B, field=spec.get(
            "field", "complex" if complex_ else "real"))
    except (ValueError, MembershipError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_prior(spec, field, path="prior"):
    """The prior at ``path``, the one reader of ``prior`` and
    ``sigma.from.prior``, for a bank of ``field``.  A structural fault
    raises ConfigError; a domain violation (a MembershipError, or a psi
    that is not even on a real bank) is returned as the ConfigError "<path>: ..." that a
    verb reading this prior raises (see _checked)."""
    spec = _as_section(spec, path, {"kind", "value", "b", "sigma"})
    kind = _require(spec, "kind", path)
    if kind not in ("constant", "polynomial", "rational"):
        raise ConfigError(f"{path}.kind: unknown kind {kind!r} "
                          "(constant | polynomial | rational)")
    try:
        if kind == "constant":
            value = _parse_number(_require(spec, "value", path),
                                  f"{path}.value")
            prior = constant_prior(value)
        elif kind == "polynomial":
            b = _parse_scalar_list(_require(spec, "b", path), f"{path}.b")
            prior = prior_from_polynomial(b)
        else:
            sub = _as_section(_require(spec, "sigma", path), f"{path}.sigma",
                              {"A", "B", "C", "D"})
            prior = prior_from_outer(StateSpaceSystem(*(
                _parse_matrix(_require(sub, key, f"{path}.sigma"),
                              f"{path}.sigma.{key}") for key in "ABCD")))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except MembershipError as exc:
        violation = exc
    else:
        try:
            return _as_prior(prior, field)
        except ValueError as exc:
            violation = exc
    error = ConfigError(f"{path}: {violation}")
    error.__cause__ = violation
    return error


@dataclasses.dataclass(eq=False)
class RunConfig:
    """Parsed configuration; fields are None when the section was absent.

    ``sigma`` is the matrix of sigma.matrix, or (prior or None, C) of
    sigma.from; a prior may be a recorded violation (see _parse_prior).
    """

    filterbank: FilterBank
    prior: object = None
    sigma: object = None
    C: np.ndarray = None
    Lambda: np.ndarray = None
    continuation: HomotopyConfig = dataclasses.field(
        default_factory=HomotopyConfig)


TOP_KEYS = {"filter", "prior", "sigma", "C", "Lambda", "continuation",
            "quadrature"}


def parse_config(doc):
    """Validate the structure of a config document into a RunConfig.

    Error messages carry the JSON path of the offending field.  Domains are
    left to the verbs (see the module docstring); the filter, which every
    verb reads, is checked in full here.
    """
    doc = _as_section(doc, "config", TOP_KEYS)
    fb = _parse_filter(_require(doc, "filter", "config"))
    cfg = RunConfig(filterbank=fb)

    if "prior" in doc:
        cfg.prior = _parse_prior(doc["prior"], fb.field)

    if "sigma" in doc:
        spec = _as_section(doc["sigma"], "sigma", {"matrix", "from"})
        if "matrix" in spec:
            cfg.sigma = _parse_matrix(spec["matrix"], "sigma.matrix")
        elif "from" in spec:
            sub = _as_section(spec["from"], "sigma.from", {"prior", "C"})
            cfg.sigma = (_parse_prior(sub["prior"], fb.field,
                                      "sigma.from.prior")
                         if "prior" in sub else None,
                         _parse_matrix(_require(sub, "C", "sigma.from"),
                                       "sigma.from.C"))
        else:
            raise ConfigError("sigma: needs either 'matrix' or 'from'")

    if "C" in doc:
        cfg.C = _parse_matrix(doc["C"], "C")
    if "Lambda" in doc:
        cfg.Lambda = _parse_matrix(doc["Lambda"], "Lambda")

    if "continuation" in doc:
        spec = _as_section(doc["continuation"], "continuation",
                           {"dt", "newton_tol"})
        kwargs = {key: _parse_number(spec[key], f"continuation.{key}")
                  for key in spec}
        try:
            cfg.continuation = HomotopyConfig(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"continuation: {exc}") from exc

    if "quadrature" in doc:
        spec = _as_section(doc["quadrature"], "quadrature", {"dtheta"})
        if "dtheta" in spec:
            dtheta = _parse_number(spec["dtheta"], "quadrature.dtheta")
            if not dtheta > 0.0:
                raise ConfigError("quadrature.dtheta: must be positive")

    return cfg


def _load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    return parse_config(doc)


# ---------------------------------------------------------------------------
# verbs: each checks the domain of the sections it reads


def _checked(value):
    """A parsed section, raising the domain violation recorded for it."""
    if isinstance(value, ConfigError):
        raise value
    return value


def _section(cfg, key, verb):
    """Section ``key``, which ``verb`` requires, domain-checked by _checked."""
    if getattr(cfg, key) is None:
        raise ConfigError(f"{key}: section is required for {verb}")
    return _checked(getattr(cfg, key))


def _param(cfg, C, path):
    """Matrix at ``path`` as a FactorParameter; ValueError -> ConfigError."""
    try:
        return FactorParameter(cfg.filterbank, C)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _resolve_sigma(cfg, verb):
    """Sigma for ``verb``: sigma.matrix, which must be n x n and finite, or
    g(psi, C) of sigma.from, psi its own prior, else ``prior``, else the
    flat one."""
    sigma = _section(cfg, "sigma", verb)
    if isinstance(sigma, tuple):
        gen_prior, genC = sigma
        prior = _checked(cfg.prior if gen_prior is None else gen_prior)
        return moment_g_statespace(cfg.filterbank, prior,
                                   _param(cfg, genC, "sigma.from.C"))
    n = cfg.filterbank.n
    try:
        return _as_matrix(sigma, "Sigma", (n, n))
    except ValueError as exc:
        raise ConfigError(f"sigma.matrix: {exc}") from exc


def _write(out, name, content):
    """Write the artifact ``name`` (a JSON document, or a function of the open
    file) into the directory ``out`` (None: the current one) and print
    ``wrote <path>``; a directory or file that cannot be made or written
    raises ConfigError, as a config that cannot be read does."""
    out = out or "."
    dest = os.path.join(out, name)
    try:
        os.makedirs(out, exist_ok=True)
        with open(dest, "w") as fh:
            if callable(content):
                content(fh)
            else:
                json.dump(content, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {dest!r}: {exc}") from exc
    print(f"wrote {dest}")


def cmd_solve(args):
    cfg = _load_config(args.config)
    prior = _section(cfg, "prior", "solve")
    t0 = time.perf_counter()
    Sigma = _resolve_sigma(cfg, "solve")
    fb = cfg.filterbank
    path = run_continuation(fb, prior, Sigma, config=cfg.continuation)
    t_solve = time.perf_counter() - t0

    # the corrector's last residual is g(psi, C) - Sigma at the final C
    final = path.final_parameter()
    resid = path.final.residual
    t1 = time.perf_counter()
    cond_g, cond_f = condition_numbers(path.chart, prior, final)
    t_cond = time.perf_counter() - t1
    report = {
        "steps": len(path.samples) - 1,
        "final_t": path.final.t,
        "final_residual": resid,
        "max_sample_residual": max(s.residual for s in path.samples),
        "newton_iters_total": int(sum(s.newton_iters for s in path.samples)),
        "cond_g": cond_g,
        "cond_f": cond_f,
        "cond_ratio": cond_f / cond_g,
        "timings_s": {"continuation": t_solve, "condition_numbers": t_cond,
                      "total": time.perf_counter() - t0},
    }
    print(f"solve: {report['steps']} steps, final residual {resid:.3e}, "
          f"cond_g {cond_g:.4e}, cond_f {cond_f:.4e}")
    out = args.out
    _write(out, "path.csv", lambda fh: write_path_csv(path, fh))
    _write(out, "path.json", lambda fh: write_path_json(path, fh))
    _write(out, "final_C.json", {"m": fb.m, "n": fb.n, "field": fb.field,
                                 "C": matrix_to_json(final.C)})
    Lam = factorization.h_inverse(path.chart, final)
    _write(out, "final_Lambda.json", {"n": fb.n, "field": fb.field,
                                      "Lambda": matrix_to_json(Lam)})
    _write(out, "report.json", report)
    return 0


def cmd_condnum(args):
    cfg = _load_config(args.config)
    prior = _section(cfg, "prior", "condnum")
    param = _param(cfg, _section(cfg, "C", "condnum"), "C")
    chart = make_chart(cfg.filterbank)
    t0 = time.perf_counter()
    cond_g, cond_f = condition_numbers(chart, prior, param)
    elapsed = time.perf_counter() - t0
    print(f"cond_g = {cond_g:.6e}")
    print(f"cond_f = {cond_f:.6e}")
    print(f"ratio  = {cond_f / cond_g:.6e}")
    if args.out is not None:
        _write(args.out, "condnum.json", {"cond_g": cond_g,
                                          "cond_f": cond_f,
                                          "ratio": cond_f / cond_g,
                                          "time_s": elapsed})
    return 0


def cmd_check(args):
    cfg = _load_config(args.config)
    fb = cfg.filterbank
    print(f"filter: n={fb.n} m={fb.m} field={fb.field} "
          f"spectral radius {fb._radius:.6g}")

    if isinstance(cfg.prior, ConfigError):
        print(f"prior: VIOLATION {cfg.prior.__cause__}")
    elif cfg.prior is not None:
        print(f"prior: ok ({cfg.prior.kind}, minimum phase)")

    if cfg.C is not None:
        try:
            diag = is_in_Cplus(fb, cfg.C)
        except ValueError as exc:
            print(f"C: VIOLATION {exc}")
        else:
            if diag:
                print(f"C: in-set (closed-loop spectral radius "
                      f"{diag.spectral_radius:.6g})")
            else:
                print(f"C: VIOLATION {'; '.join(diag.failures)} (closed-loop "
                      f"spectral radius {diag.spectral_radius:.6g})")

    if cfg.Lambda is not None:
        try:
            diag = is_in_Lplus(fb, cfg.Lambda)
        except ValueError as exc:
            print(f"Lambda: VIOLATION {exc}")
        else:
            print("Lambda: positive on the circle" if diag else
                  "Lambda: VIOLATION G* Lambda G is not positive on the "
                  f"unit circle: {diag.reason}")

    if cfg.sigma is not None:
        try:
            Sigma = _resolve_sigma(cfg, "check")
            _, problems, eig_min, rr = _check_covariance(make_chart(fb), Sigma)
        except (ConfigError, MembershipError) as exc:
            problems = [str(exc)]
        if problems:
            print("sigma: VIOLATION " + "; ".join(problems))
        else:
            print(f"sigma: feasible (min eigenvalue {eig_min:.6g}, "
                  f"range residual {rr:.3e})")
            if cfg.prior is not None and not isinstance(cfg.prior,
                                                        ConfigError):
                # whether solve can start: its own start, and on failure
                # the message solve exits 3 with
                try:
                    _, Sigma, _, _, info = _start(make_chart(fb), cfg.prior,
                                                  Sigma, cfg.continuation)
                except SpectralHomotopyError as exc:
                    print(f"start: VIOLATION {exc}")
                else:
                    print(f"start: ok (Gram condition {info.gram_cond:.3e}, "
                          f"cond(Sigma) {np.linalg.cond(Sigma):.3e})")
    return 0


def cmd_maxent(args):
    cfg = _load_config(args.config)
    fb = cfg.filterbank
    Sigma = _resolve_sigma(cfg, "maxent")
    # the start's gate computes the defining residual ||g(1, C) - Sigma||
    point, _, gap, _, _ = _start(make_chart(fb), None, Sigma)
    rel = gap / float(np.linalg.norm(Sigma))
    print(f"maxent: defining residual {gap:.3e} ({rel:.3e} relative)")
    if args.out is not None:
        _write(args.out, "maxent_C.json", {
            "m": fb.m, "n": fb.n, "field": fb.field,
            "C": matrix_to_json(point.param.C), "residual": gap})
    return 0


# ---------------------------------------------------------------------------
# selftest

def _selftest_setup(field):
    fb = make_covariance_extension_filter(2, 1, field=field)
    chart = make_chart(fb)
    rng = np.random.default_rng(20240817)

    def random_sigma():
        X = rng.standard_normal((fb.n, fb.n))
        if field == "complex":
            X = X + 1j * rng.standard_normal((fb.n, fb.n))
        Xp = chart.project_range_gamma(0.5 * (X + X.conj().T))
        lam = float(np.min(np.linalg.eigvalsh(Xp)))
        return Xp + (abs(lam) + 0.5 + rng.random()) * np.eye(fb.n)

    return fb, chart, rng, random_sigma


def _suite_oracle(fb, chart, rng, random_sigma):
    worst = 0.0
    prior = prior_from_polynomial([1.0, -1.0, 0.89])
    for _ in range(5):
        param = maxent_initialization(fb, random_sigma())
        gs = moment_g_statespace(fb, prior, param)
        gq = GridPoint(fb, prior, param, dtheta=2 * np.pi / 2048).value()
        worst = max(worst, float(np.linalg.norm(gs - gq)
                                 / np.linalg.norm(gs)))
    return worst, 1e-7


def _suite_roundtrip(fb, chart, rng, random_sigma):
    # the maps are looked up on their module at call time, so a perturbed
    # h_map patched in there shows that a wrong answer fails the suite
    worst = 0.0
    for _ in range(5):
        p0 = maxent_initialization(fb, random_sigma())
        Lam = factorization.h_inverse(chart, p0)
        p1 = factorization.h_map(fb, Lam)
        worst = max(worst, float(np.linalg.norm(p1.C - p0.C)
                                 / np.linalg.norm(p0.C)))
    return worst, 1e-8


def _suite_fd(fb, chart, rng, random_sigma):
    prior = prior_from_polynomial([1.0, -1.0, 0.89])
    param = maxent_initialization(fb, random_sigma())
    point = CascadePoint(fb, prior, param)
    h = 1e-6
    worst = 0.0
    for _ in range(3):
        V = chart.factor_from_coords(rng.standard_normal(chart.dim))
        d = point.derivatives(V)
        gp = moment_g_statespace(
            fb, prior, FactorParameter(fb, param.C + h * V))
        gm = moment_g_statespace(
            fb, prior, FactorParameter(fb, param.C - h * V))
        fd = (gp - gm) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(d - fd)
                                 / np.linalg.norm(d)))
    return worst, 1e-5


def cmd_selftest(args):
    suites = [("oracle-equivalence", _suite_oracle),
              ("round-trip", _suite_roundtrip),
              ("finite-difference", _suite_fd)]
    ok = True
    t0 = time.perf_counter()
    for field in ("real", "complex"):
        setup = _selftest_setup(field)
        for name, suite in suites:
            label = f"{name} [{field}]"
            try:
                worst, tol = suite(*setup)
            except Exception as exc:   # a crash is a failure, keep going
                print(f"{label}: FAIL ({type(exc).__name__}: {exc})")
                ok = False
                continue
            status = "PASS" if worst <= tol else "FAIL"
            ok = ok and worst <= tol
            print(f"{label}: {status} (worst {worst:.3e}, tol {tol:.0e})")
    print(f"selftest: {'PASS' if ok else 'FAIL'} "
          f"({time.perf_counter() - t0:.1f} s)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared after it.

    argparse keeps no state between ``parse_args`` calls, so one parser
    serves every in-process ``main`` call.  Each verb's ``func`` default is
    the ``cmd_*`` function bound here, on the first call; a ``cmd_*``
    replaced on the module later is not seen (clear the cache first).
    """
    parser = argparse.ArgumentParser(
        prog="spectral-homotopy",
        description="Parametric spectral estimation from state covariances")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, helptext, out=False, needs_config=True):
        p = sub.add_parser(name, help=helptext)
        if needs_config:
            p.add_argument("--config", required=True,
                           help="path to a JSON config file")
        if out:
            p.add_argument("--out", help="output directory")
        p.set_defaults(func=func)

    add("solve", cmd_solve, "follow the prior homotopy, write artifacts",
        out=True)
    add("condnum", cmd_condnum, "condition numbers at a given parameter",
        out=True)
    add("check", cmd_check, "membership and feasibility report")
    add("maxent", cmd_maxent, "closed-form flat-prior solution", out=True)
    add("selftest", cmd_selftest, "reduced-size consistency suites",
        needs_config=False)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpectralHomotopyError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
