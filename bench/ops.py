"""One benchmark operation per workload, and the correctness gate.

Library functions are looked up on their modules at call time, so a tracer
installed around an operation sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import spectral_homotopy as sh
from spectral_homotopy import cli, moment

from workloads import (COND_F_REF, COND_G_REF, CONDNUM_DTHETA, CondnumInput,
                       write_config)

# criterion 2's bounds, the error in C taken relative
RESIDUAL_TOL = 1e-10
C_REL_TOL = 1e-6
# criterion 1's targets are given to five digits
COND_REF_TOL = 0.01
# A window's condnum is checked against an independent evaluation: the exact
# Gramian Jacobian for cond_g, a ten times coarser grid for cond_f.  Two
# routes can agree on a condition number only up to roundoff times the
# condition number itself (cond_f reaches 1e10 at some windows), so the
# tolerance is a relative floor plus that amplification.
COND_CHECK_TOL = 1e-6
COND_ROUNDOFF = 1e-13
CHECK_DTHETA = 10 * CONDNUM_DTHETA


@dataclass
class OpResult:
    index: int
    label: str
    seconds: float
    ok: bool              # ran without raising and passed the gate
    raised: bool
    detail: str
    steps: int = 0
    newton_iters: int = 0


def gate_solve(fb, inp, C):
    """(ok, detail) for a solve that returned the factor ``C``."""
    param = sh.FactorParameter(fb, C)
    resid = float(np.linalg.norm(
        sh.moment_g_statespace(fb, inp.prior, param) - inp.Sigma))
    c_err = float(np.linalg.norm(np.asarray(C) - inp.C_true)
                  / np.linalg.norm(inp.C_true))
    ok = resid <= RESIDUAL_TOL and c_err <= C_REL_TOL
    return ok, f"residual {resid:.2e} [<=1e-10], C error {c_err:.2e} [<=1e-6]"


@contextlib.contextmanager
def _recorded(tracer, index):
    """Let ``tracer`` (if any) record spans under operation ``index``."""
    if tracer is not None:
        tracer.op = index
    try:
        yield
    finally:
        if tracer is not None:
            tracer.op = None


def run_solve(wl, index, inp, tracer=None):
    """One ``run_continuation`` call from ``Sigma`` to t = 1, then the gate."""
    start = time.perf_counter()
    try:
        with _recorded(tracer, index):
            path = sh.run_continuation(wl.fb, inp.prior, inp.Sigma)
    except Exception as exc:   # a failed operation is timed up to the raise
        seconds = time.perf_counter() - start
        return OpResult(index, inp.label, seconds, False, True,
                        f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    ok, detail = gate_solve(wl.fb, inp, path.final.C)
    return OpResult(index, inp.label, seconds, ok, False, detail,
                    steps=len(path.samples) - 1,
                    newton_iters=sum(s.newton_iters for s in path.samples))


def gate_condnum(wl, inp, report):
    """(ok, detail) for the CLI's condnum.json ``report``."""
    cond_g, cond_f = report["cond_g"], report["cond_f"]
    if inp.label == "reference":
        err_g = abs(cond_g - COND_G_REF) / COND_G_REF
        err_f = abs(cond_f - COND_F_REF) / COND_F_REF
        ok = err_g <= COND_REF_TOL and err_f <= COND_REF_TOL
        return ok, (f"cond_g {cond_g:.5e} off {err_g:.2%}, cond_f "
                    f"{cond_f:.5e} off {err_f:.2%} [<=1% of criterion 1]")
    param = sh.FactorParameter(wl.fb, inp.C)
    prior = wl.prior_ref
    want_g = moment.jacobian_condition_number(
        wl.chart, prior, param, which="g", route="statespace")
    Lam = sh.h_inverse(wl.chart, param)
    want_f = moment.jacobian_condition_number(
        wl.chart, prior, Lam, which="f", route="quadrature",
        dtheta=CHECK_DTHETA)
    tol_g = COND_CHECK_TOL + COND_ROUNDOFF * want_g
    tol_f = COND_CHECK_TOL + COND_ROUNDOFF * want_f
    err_g = abs(cond_g - want_g) / want_g
    err_f = abs(cond_f - want_f) / want_f
    ok = err_g <= tol_g and err_f <= tol_f
    return ok, (f"cond_g {cond_g:.5e} vs exact route off {err_g:.1e} "
                f"[<={tol_g:.1e}], cond_f {cond_f:.5e} vs coarse grid off "
                f"{err_f:.1e} [<={tol_f:.1e}]")


def prepare(wl, index, workdir):
    """Inputs of operation ``index``; for condnum also its config file."""
    inp = wl.make(index)
    if isinstance(inp, CondnumInput):
        opdir = os.path.join(workdir, f"condnum-{index}")
        shutil.rmtree(opdir, ignore_errors=True)
        os.makedirs(opdir)
        write_config(inp.config, os.path.join(opdir, "config.json"))
    return inp


def run_condnum(wl, index, inp: CondnumInput, workdir, tracer=None):
    """One in-process ``spectral-homotopy condnum`` call, then the gate."""
    opdir = os.path.join(workdir, f"condnum-{index}")
    argv = ["condnum", "--config", os.path.join(opdir, "config.json"),
            "--out", opdir]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink), _recorded(tracer, index):
            code = cli.main(argv)
    except Exception as exc:
        seconds = time.perf_counter() - start
        return OpResult(index, inp.label, seconds, False, True,
                        f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if code != 0:
        return OpResult(index, inp.label, seconds, False, True,
                        f"exit code {code}: {sink.getvalue().strip()}")
    with open(os.path.join(opdir, "condnum.json")) as fh:
        report = json.load(fh)
    shutil.rmtree(opdir, ignore_errors=True)
    ok, detail = gate_condnum(wl, inp, report)
    return OpResult(index, inp.label, seconds, ok, False, detail)


def run_op(wl, index, inp, workdir, tracer=None):
    if wl.name == "condnum":
        return run_condnum(wl, index, inp, workdir, tracer)
    return run_solve(wl, index, inp, tracer)
