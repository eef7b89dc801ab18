"""Command-line interface: verbs, exit codes, artifacts, config handling."""

import argparse
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectral_homotopy
from spectral_homotopy import (FactorParameter, MembershipError, cli, errors,
                               factorization, jacobian_condition_number,
                               make_covariance_extension_filter,
                               matrix_to_json, moment, run_continuation,
                               statespace)
from spectral_homotopy.cli import main

from conftest import B_REF, C_REF, draw_param, draw_random_bank
from test_matrixeq import _counterexample_weight


def write_config(tmp_path, doc, name="config.json"):
    dest = tmp_path / name
    dest.write_text(json.dumps(doc))
    return str(dest)


def base_config(**extra):
    doc = {
        "filter": {"preset": "covext", "m": 2, "p": 1},
        "prior": {"kind": "polynomial", "b": list(B_REF)},
    }
    doc.update(extra)
    return doc


SIGMA_FROM_REF = {"from": {"C": C_REF.tolist()}}


def _fresh_env():
    src = str(Path(spectral_homotopy.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src if not path else src + os.pathsep + path)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    return subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=300)


class TestConfigErrors:
    def test_missing_file(self, capsys):
        assert main(["check", "--config", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        dest = tmp_path / "broken.json"
        dest.write_text("{not json")
        assert main(["check", "--config", str(dest)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_unknown_key_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(stepsize=0.1))
        assert main(["solve", "--config", cfg]) == 2
        assert "config.stepsize" in capsys.readouterr().err

    def test_bad_nested_value_names_path(self, tmp_path, capsys):
        doc = base_config(continuation={"dt": "fast"})
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg]) == 2
        assert "continuation.dt" in capsys.readouterr().err

    def test_bad_matrix_names_path(self, tmp_path, capsys):
        doc = base_config(sigma={"matrix": "nope"})
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg]) == 2
        assert "sigma.matrix" in capsys.readouterr().err

    def test_non_minimum_phase_prior_rejected_for_solve(self, tmp_path,
                                                        capsys):
        doc = base_config(sigma=SIGMA_FROM_REF)
        doc["prior"] = {"kind": "polynomial", "b": [1.0, -2.0]}
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg]) == 2
        assert "minimum phase" in capsys.readouterr().err

    def test_grid_n_is_not_a_quadrature_key(self, tmp_path, capsys):
        # dtheta is the only grid knob
        doc = base_config(C=C_REF.tolist(), quadrature={"grid_n": 4096})
        cfg = write_config(tmp_path, doc)
        assert main(["condnum", "--config", cfg]) == 2
        assert "quadrature.grid_n" in capsys.readouterr().err

    @pytest.mark.parametrize("value, code", [(2, 0), (2.0, 0), (2.9, 2),
                                             (1.5, 2)])
    @pytest.mark.parametrize("path", ["filter.m", "filter.p"])
    def test_integer_fields_reject_fractions(self, path, value, code,
                                             tmp_path, capsys):
        # a fraction is an error naming the field, not a silent truncation
        doc = base_config()
        section, key = path.split(".")
        doc[section][key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg]) == code
        if code:
            assert f"{path}: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("section, spec, path", [
        ("continuation", {"min_dt": 1e-4}, "continuation.min_dt"),
        ("continuation", {"max_newton": 5}, "continuation.max_newton"),
        ("output", {"directory": "out"}, "config.output")])
    def test_removed_settings_are_unknown_keys(self, section, spec, path,
                                               tmp_path, capsys):
        # the smallest step and the Newton budget are constants, and --out
        # is the one route to the output directory
        doc = base_config(sigma=SIGMA_FROM_REF, **{section: spec})
        out = tmp_path / "run"
        assert main(["solve", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {path}: unknown key")
        assert not out.exists()

    def test_step_below_the_smallest_names_the_bounds(self, tmp_path,
                                                      capsys):
        doc = base_config(sigma=SIGMA_FROM_REF, continuation={"dt": 5e-5})
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: continuation: dt must lie in [0.0001, 1], "
            "got 5e-05\n")

    def test_infinite_tolerance_in_config_names_the_field(self, tmp_path,
                                                          capsys):
        # an infinite tolerance used to run, never correct, and stall at
        # the smallest step
        doc = base_config(sigma=SIGMA_FROM_REF,
                          continuation={"newton_tol": float("inf")})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert "continuation: newton_tol" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["solve", "--config", cfg]) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ([1.0], "config: expected an object, got list"),
        ({"filter": {"preset": "covext", "p": 1}},
         "filter.m: required key is missing"),
        (base_config(prior={"kind": "polynomial", "b": []}),
         "prior.b: expected a non-empty list"),
        ({"filter": {"preset": "lattice", "m": 2, "p": 1}},
         "filter.preset: unknown preset 'lattice' (available: covext)"),
        (base_config(prior={"kind": "spline"}),
         "prior.kind: unknown kind 'spline' "
         "(constant | polynomial | rational)"),
        (base_config(sigma={}), "sigma: needs either 'matrix' or 'from'")],
        ids=["not-an-object", "missing-m", "empty-b", "unknown-preset",
             "unknown-kind", "sigma-without-source"])
    def test_structural_faults_name_their_path(self, doc, message, tmp_path,
                                               capsys):
        assert main(["check", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestSolve:
    def test_writes_artifacts_and_recovers_generator(self, tmp_path, capsys):
        doc = base_config(sigma=SIGMA_FROM_REF,
                          continuation={"dt": 0.5, "newton_tol": 1e-10})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        for name in ("path.csv", "path.json", "final_C.json",
                     "final_Lambda.json", "report.json"):
            assert (out / name).exists()
        final = json.loads((out / "final_C.json").read_text())
        got = np.array(final["C"])
        assert np.linalg.norm(got - C_REF) < 1e-6
        report = json.loads((out / "report.json").read_text())
        assert report["final_residual"] <= 1e-9
        assert report["steps"] == 2
        assert report["cond_f"] / report["cond_g"] > 1e3
        assert "timings_s" in report

    def test_infeasible_covariance_exits_3(self, tmp_path, capsys):
        doc = base_config(
            sigma={"matrix": np.diag([1.0, 1.0, 2.0, 1.0]).tolist()})
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "attainable" in err or "feasib" in err

    def test_indefinite_covariance_exits_3(self, tmp_path, capsys):
        doc = base_config(
            sigma={"matrix": np.diag([1.0, 1.0, 1.0, -1.0]).tolist()})
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 3
        assert "positive definite" in capsys.readouterr().err

    def test_writes_both_path_files(self, tmp_path, capsys):
        doc = base_config(sigma=SIGMA_FROM_REF, continuation={"dt": 0.5})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "final_C.json", "final_Lambda.json", "path.csv", "path.json",
            "report.json"]
        doc = json.loads((out / "path.json").read_text())
        assert doc["config"] == {"dt": 0.5, "newton_tol": 1e-10}
        assert len((out / "path.csv").read_text().splitlines()) == 4

    def test_reference_solve_at_the_defaults(self, tmp_path, capsys):
        # 10 steps at the default dt, at most 10 Newton iterations
        # (intermediate points stop inside the relative residual tube), a
        # final residual within criterion 2's bound, and a path.csv of one
        # header line and 11 samples
        cfg = write_config(tmp_path, base_config(sigma=SIGMA_FROM_REF))
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["steps"] == 10
        assert report["newton_iters_total"] <= 10
        assert report["final_residual"] <= 1e-10
        assert len((out / "path.csv").read_text().splitlines()) == 12

    def test_endpoint_does_not_depend_on_the_step(self, tmp_path, capsys):
        # criterion 8 through the CLI: at dt = 0.05 each step predicts with
        # a tangent from its corrector's last Jacobian at another spacing,
        # and the path ends within 1e-6 of the dt = 0.1 endpoint
        finals = []
        for dt in (0.1, 0.05):
            doc = base_config(sigma=SIGMA_FROM_REF, continuation={"dt": dt})
            out = tmp_path / f"dt{dt}"
            assert main(["solve", "--config",
                         write_config(tmp_path, doc, f"dt{dt}.json"),
                         "--out", str(out)]) == 0
            finals.append(np.array(
                json.loads((out / "final_C.json").read_text())["C"]))
        a, b = finals
        assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a)

    def test_ill_conditioned_random_bank_ends_typed(self, tmp_path, capsys):
        # the seed-40 draw of conftest.draw_random_bank (m = 2, n = 7, real
        # bank, rational prior, cond(Sigma) ~ 9e5) as explicit A, B and
        # sigma.matrix: a solution or a typed error, never a traceback
        fb, prior, rng = draw_random_bank(40)
        Sigma = moment.moment_g_statespace(fb, prior, draw_param(fb, rng))
        outer = prior.sigma
        doc = {"filter": {"A": matrix_to_json(fb.A),
                          "B": matrix_to_json(fb.B)},
               "prior": {"kind": "rational", "sigma": {
                   key: matrix_to_json(getattr(outer, key))
                   for key in "ABCD"}},
               "sigma": {"matrix": matrix_to_json(Sigma)}}
        out = tmp_path / "run"
        code = main(["solve", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
        assert code in (0, 2, 3)

    def test_csv_runs_are_byte_identical(self, tmp_path, capsys):
        doc = base_config(sigma=SIGMA_FROM_REF, continuation={"dt": 0.5})
        cfg = write_config(tmp_path, doc)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            blobs.append((out / "path.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestCondnum:
    def test_reference_values(self, tmp_path, capsys):
        doc = base_config(C=C_REF.tolist(), quadrature={"dtheta": 1e-3})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["condnum", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "condnum.json").read_text())
        assert abs(report["cond_g"] - 2.4674e5) / 2.4674e5 <= 0.01
        assert abs(report["cond_f"] - 3.8187e8) / 3.8187e8 <= 0.01
        assert report["ratio"] > 1e3

    @pytest.mark.parametrize("error, code, prefix", [
        (errors.ConfigError, 2, "config error"),
        (errors.SpectralHomotopyError, 3, "solver error"),
        (errors.EvaluationError, 3, "solver error"),
        (errors.MembershipError, 3, "solver error"),
        (errors.FactorizationError, 3, "solver error"),
        (errors.SolverError, 3, "solver error"),
        (type("OwnError", (errors.SpectralHomotopyError,), {}), 3,
         "solver error"),
    ])
    def test_one_exit_code_per_error_class(self, error, code, prefix,
                                           tmp_path, capsys, monkeypatch):
        # ConfigError exits 2 and every other error of the package 3, a
        # subclass that cli never names included
        def failing(*args):
            raise error("raised in the verb")

        monkeypatch.setattr(cli, "condition_numbers", failing)
        cfg = write_config(tmp_path, base_config(C=C_REF.tolist()))
        assert main(["condnum", "--config", cfg]) == code
        assert capsys.readouterr().err == f"{prefix}: raised in the verb\n"

    def test_cond_g_is_the_exact_route(self, chart, prior_ref, param_ref,
                                       tmp_path, capsys, monkeypatch):
        # both condition numbers are exact, so no grid is built; on this
        # config's grid a quadrature cond_g would be off by 2e-5
        def no_grid(*args, **kwargs):
            raise AssertionError("quadrature grid built")

        monkeypatch.setattr(moment, "_kernel_grid", no_grid)
        doc = base_config(C=C_REF.tolist(), quadrature={"dtheta": 1e-2})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["condnum", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "condnum.json").read_text())
        want = jacobian_condition_number(chart, prior_ref, param_ref,
                                         which="g", route="statespace")
        assert abs(report["cond_g"] - want) / want <= 1e-12
        assert "quadrature_grid_n" not in report

    def test_solve_builds_no_grid(self, tmp_path, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("quadrature grid built")

        monkeypatch.setattr(moment, "_kernel_grid", no_grid)
        doc = base_config(sigma=SIGMA_FROM_REF, continuation={"dt": 0.5})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "quadrature_grid_n" not in report
        assert report["cond_f"] / report["cond_g"] > 1e3

    def test_quadrature_section_is_read_by_nothing(self, tmp_path, capsys):
        # existing configs with quadrature.dtheta still run, and the
        # spacing changes no number
        reports = []
        for name, extra in (("plain", {}),
                            ("spaced", {"quadrature": {"dtheta": 1e-2}})):
            cfg = write_config(tmp_path, base_config(C=C_REF.tolist(),
                                                     **extra), f"{name}.json")
            out = tmp_path / name
            assert main(["condnum", "--config", cfg, "--out", str(out)]) == 0
            reports.append(json.loads((out / "condnum.json").read_text()))
        assert reports[0]["cond_f"] == reports[1]["cond_f"]
        assert reports[0]["cond_g"] == reports[1]["cond_g"]

    def test_bad_quadrature_spacing_is_still_a_config_error(self, tmp_path,
                                                           capsys):
        doc = base_config(C=C_REF.tolist(), quadrature={"dtheta": -1.0})
        cfg = write_config(tmp_path, doc)
        assert main(["condnum", "--config", cfg]) == 2
        assert "quadrature.dtheta" in capsys.readouterr().err

    def test_flat_parameter_is_better_conditioned(self, fb, tmp_path,
                                                  capsys):
        doc = base_config(C=fb.B.T.tolist(), quadrature={"dtheta": 1e-3})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "flat"
        assert main(["condnum", "--config", cfg, "--out", str(out)]) == 0
        flat = json.loads((out / "condnum.json").read_text())
        # the conditioning gap is a property of the point: at the benign
        # flat parameter the two routes nearly coincide
        assert flat["ratio"] < 100.0
        assert flat["cond_g"] < 1e3

    def test_requires_parameter(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["condnum", "--config", cfg]) == 2
        assert "C" in capsys.readouterr().err

    def test_a_repeated_call_builds_no_set_up(self, tmp_path, capsys,
                                              monkeypatch):
        # the preset's bank, its chart and the prior with its per-channel
        # copies are shared by in-process calls: the second call on one
        # config builds none of them and writes the same numbers.  The
        # prior is this test's own, so the first call builds its copies
        built = []
        for mod, name in ((moment, "build_range_gamma_basis"),
                          (moment, "build_factor_basis"),
                          (statespace, "_channel_blowup")):
            def counted(*args, _name=name, _build=getattr(mod, name)):
                built.append(_name)
                return _build(*args)

            monkeypatch.setattr(mod, name, counted)
        for cls in (statespace.FilterBank, statespace.PriorSpectrum):
            def counted_init(self, _name=cls.__name__,
                             _init=cls.__post_init__):
                built.append(_name)
                _init(self)

            monkeypatch.setattr(cls, "__post_init__", counted_init)
        doc = {"filter": {"preset": "covext", "m": 2, "p": 1},
               "prior": {"kind": "polynomial", "b": [1.0, -0.7, 0.37]},
               "C": C_REF.tolist()}
        cfg = write_config(tmp_path, doc)
        reports = []
        for k in range(2):
            built.clear()
            out = tmp_path / f"out{k}"
            assert main(["condnum", "--config", cfg, "--out", str(out)]) == 0
            reports.append(json.loads((out / "condnum.json").read_text()))
            if k == 0:
                assert built.count("PriorSpectrum") == 1
                assert built.count("_channel_blowup") == 1
        assert built == []
        for key in ("cond_g", "cond_f", "ratio"):
            assert reports[1][key] == reports[0][key]


class TestCheck:
    def test_reports_prior_violation_with_exit_zero(self, tmp_path, capsys):
        doc = base_config()
        doc["prior"] = {"kind": "polynomial", "b": [1.0, -2.0]}
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "minimum phase" in out

    def test_reports_membership_and_feasibility(self, tmp_path, capsys):
        doc = base_config(C=C_REF.tolist(),
                          sigma={"matrix": np.eye(4).tolist()})
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "C: in-set" in out
        assert "0.9849" in out or "0.98487" in out
        assert "sigma: feasible" in out

    def test_reports_bad_parameter(self, tmp_path, capsys):
        doc = base_config(
            C=[[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg]) == 0
        assert "C: VIOLATION" in capsys.readouterr().out

    def test_reports_unattainable_covariance(self, tmp_path, capsys):
        doc = base_config(
            sigma={"matrix": np.diag([1.0, 1.0, 2.0, 1.0]).tolist()})
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg]) == 0
        assert "sigma: VIOLATION" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, charts", [
        pytest.param({}, 0, id="filter-and-C"),
        pytest.param({"sigma": SIGMA_FROM_REF}, 1, id="with-sigma")])
    def test_builds_a_chart_only_for_sigma(self, extra, charts, tmp_path,
                                           capsys, monkeypatch):
        # only the sigma check reads the range basis; an explicit A and B
        # make a bank of this call's own, so no chart kept by an earlier
        # call serves it
        built = []
        build = moment.build_range_gamma_basis

        def counted(fb):
            built.append(fb)
            return build(fb)

        monkeypatch.setattr(moment, "build_range_gamma_basis", counted)
        bank = make_covariance_extension_filter(2, 1)
        doc = {"filter": {"A": bank.A.tolist(), "B": bank.B.tolist()},
               "C": C_REF.tolist(), **extra}
        assert main(["check", "--config", write_config(tmp_path, doc)]) == 0
        assert "C: in-set" in capsys.readouterr().out
        assert len(built) == charts

    def test_reports_a_dip_between_grid_points(self, tmp_path, capsys):
        # G* Lambda G = (cos t - cos a)^2 - 1e-9 dips below zero between two
        # points of the 1024-point grid, whose minimum is positive; the
        # exact test reports the violation at the dip's angle, in the words
        # that h_map raises, and no grid is evaluated
        doc = {"filter": {"preset": "covext", "m": 1, "p": 2},
               "Lambda": _counterexample_weight(1e-9).tolist()}
        assert main(["check", "--config", write_config(tmp_path, doc)]) == 0
        line, = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("Lambda:")]
        assert line.startswith("Lambda: VIOLATION G* Lambda G is not positive "
                               "on the unit circle: it is singular at theta = ")
        theta = float(line.rsplit(" ", 1)[1])
        assert abs(abs(theta) - 2 * np.pi * 100.5 / 1024) < 1e-4
        assert "grid" not in line and "3.13332e-06" not in line
        fb = make_covariance_extension_filter(1, 2)
        with pytest.raises(MembershipError) as raised:
            factorization.h_map(fb, _counterexample_weight(1e-9))
        assert line == f"Lambda: VIOLATION {raised.value}"

    @pytest.mark.parametrize("Lam, line", [
        (np.eye(4), "Lambda: positive on the circle"),
        (-np.eye(4), "Lambda: VIOLATION G* Lambda G is not positive on the "
                     "unit circle: its mean J + J* is not positive definite "
                     "(min eigenvalue -2.000000e+00)")],
        ids=["identity", "minus-identity"])
    def test_lambda_line_is_the_exact_finding(self, tmp_path, capsys, Lam,
                                              line):
        doc = base_config(Lambda=Lam.tolist())
        assert main(["check", "--config", write_config(tmp_path, doc)]) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_start_line_of_the_reference(self, fb, prior_ref, tmp_path,
                                         capsys):
        # the start's tangent solve is the one run_continuation makes: its
        # Gram condition is the t = 0 sample's
        doc = base_config(sigma=SIGMA_FROM_REF)
        assert main(["check", "--config", write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" not in out
        line, = [line for line in out.splitlines()
                 if line.startswith("start:")]
        Sigma = moment.moment_g_statespace(fb, prior_ref, C_REF)
        start = run_continuation(fb, prior_ref, Sigma).samples[0]
        assert line == (f"start: ok (Gram condition {start.gram_cond:.3e}, "
                        f"cond(Sigma) {np.linalg.cond(Sigma):.3e})")

    @pytest.mark.parametrize("extra", [
        pytest.param({"prior": {"kind": "polynomial", "b": B_REF}},
                     id="no-sigma"),
        pytest.param({"sigma": SIGMA_FROM_REF}, id="no-prior"),
        pytest.param({"prior": {"kind": "polynomial", "b": [1.0, -2.0]},
                      "sigma": SIGMA_FROM_REF}, id="prior-violation"),
        pytest.param({"prior": {"kind": "polynomial", "b": B_REF},
                      "sigma": {"matrix": np.diag([1.0, 1.0, 2.0, 1.0])
                                .tolist()}}, id="sigma-violation")])
    def test_no_start_line_without_a_valid_prior_and_sigma(self, extra,
                                                           tmp_path, capsys):
        doc = {"filter": {"preset": "covext", "m": 2, "p": 1}, **extra}
        assert main(["check", "--config", write_config(tmp_path, doc)]) == 0
        assert "start:" not in capsys.readouterr().out

    # random banks whose solve fails at the start, one per gate and prior
    # kind: the start's defining equation (rational prior), the Gram gate
    # of its tangent (constant and rational) and its Stein gate
    # (polynomial)
    @pytest.mark.parametrize("seed, gate", [
        pytest.param(73380435, r"maximum-entropy parameter failed its "
                     r"defining equation ", id="start-rational"),
        pytest.param(949303, r"continuation stalled at t = 0: tangent solve "
                     r"failed \(Gram system condition ", id="gram-constant"),
        pytest.param(1184, r"continuation stalled at t = 0: tangent solve "
                     r"failed \(Gram system condition ", id="gram-rational"),
        pytest.param(1530, r"maximum-entropy start failed: Stein solve "
                     r"residual ", id="stein-polynomial")])
    def test_start_violation_is_the_solve_error(self, seed, gate, tmp_path,
                                                capsys):
        cfg = write_config(tmp_path, _random_bank_config(seed))
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "sigma: feasible" in out
        line, = [line for line in out.splitlines()
                 if line.startswith("start:")]
        assert line.startswith("start: VIOLATION ")
        message = line[len("start: VIOLATION "):]
        assert re.match(gate, message), message
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == f"solver error: {message}\n"


def _non_hermitian():
    M = np.eye(4)
    M[0, 1] = 0.5
    return M.tolist()


def _non_finite(bad):
    M = np.eye(4)
    M[1, 1] = bad
    return M.tolist()


def _random_bank_config(seed):
    """The problem of conftest.draw_random_bank(seed) as a config: the
    bank's A and B, its prior, and Sigma = g(psi, C) at a drawn C."""
    fb, prior, rng = draw_random_bank(seed)
    C = draw_param(fb, rng)
    sigma = prior.sigma
    if prior.kind == "constant":
        spec = {"kind": "constant", "value": float(sigma.D[0, 0] ** 2)}
    elif prior.kind == "polynomial":
        b = np.concatenate([sigma.D.ravel(), sigma.C.ravel()])
        spec = {"kind": "polynomial", "b": matrix_to_json(b)[0]}
    else:
        spec = {"kind": "rational", "sigma": {
            key: matrix_to_json(getattr(sigma, key)) for key in "ABCD"}}
    # Sigma is g at the config's own prior: a constant one's square root may
    # differ from the drawn sigma in the last bit
    if prior.kind == "constant":
        prior = statespace.constant_prior(spec["value"])
    Sigma = moment.moment_g_statespace(fb, prior, C)
    return {"filter": {"A": matrix_to_json(fb.A), "B": matrix_to_json(fb.B),
                       "field": fb.field},
            "prior": spec, "sigma": {"matrix": matrix_to_json(Sigma)}}


class TestInvalidSigma:
    """A malformed sigma.matrix is a typed error, never a traceback."""

    @pytest.mark.parametrize("verb", ["maxent", "solve"])
    def test_wrong_shape_is_a_config_error(self, verb, tmp_path, capsys):
        doc = base_config(sigma={"matrix": np.eye(3).tolist()})
        cfg = write_config(tmp_path, doc)
        assert main([verb, "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 2
        assert "sigma.matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["maxent", "solve"])
    def test_non_hermitian_exits_3(self, verb, tmp_path, capsys):
        doc = base_config(sigma={"matrix": _non_hermitian()})
        cfg = write_config(tmp_path, doc)
        assert main([verb, "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 3
        assert "Hermitian" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["maxent", "solve"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_exits_2(self, verb, bad, tmp_path, capsys):
        # a non-finite entry is a configuration error (exit 2) naming
        # sigma.matrix, as for the other sections' data
        doc = base_config(sigma={"matrix": _non_finite(bad)})
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([verb, "--config", cfg, "--out",
                         str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "config error: sigma.matrix: Sigma has non-finite entries\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("matrix, finding", [
        (np.eye(3).tolist(), "sigma.matrix"),
        (_non_hermitian(), "Hermitian"),
        (_non_finite(np.nan), "non-finite"),
        (_non_finite(np.inf), "non-finite")])
    def test_check_reports_it_with_exit_zero(self, matrix, finding, tmp_path,
                                             capsys):
        cfg = write_config(tmp_path, base_config(sigma={"matrix": matrix}))
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "sigma: VIOLATION" in out and finding in out


class TestInvalidParameters:
    """A malformed C or Lambda is a typed outcome, never a traceback."""

    @pytest.mark.parametrize("C, finding", [
        (np.ones((2, 3)).tolist(), "C must be 2x4"),
        (matrix_to_json(C_REF + 0.1j), "imaginary part")])
    def test_condnum_config_error(self, C, finding, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(C=C))
        assert main(["condnum", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: C: ") and finding in err

    @pytest.mark.parametrize("key, matrix, finding", [
        ("C", np.ones((2, 3)).tolist(), "C must be 2x4"),
        ("Lambda", _non_hermitian(), "Lambda is not Hermitian"),
        ("Lambda", _non_finite(np.nan), "Lambda has non-finite entries")])
    def test_check_reports_it_with_exit_zero(self, key, matrix, finding,
                                             tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(**{key: matrix}))
        assert main(["check", "--config", cfg]) == 0
        assert f"{key}: VIOLATION {finding}" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_C_is_its_one_finding(self, bad, tmp_path, capsys):
        C = C_REF.copy()
        C[1, 1] = bad
        cfg = write_config(tmp_path, base_config(C=C.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", cfg]) == 0
            out = capsys.readouterr().out
            assert main(["condnum", "--config", cfg]) == 2
            err = capsys.readouterr().err
        assert "C: VIOLATION C has non-finite entries\n" in out
        assert err == "config error: C: C has non-finite entries\n"


    def test_overflowing_closed_loop_is_a_violation(self, tmp_path, capsys):
        # CB = [[1e-310, 0], [2, 1]]: nonsingular, but the closed loop
        # overflows; both verbs name the failed gates, and numpy's
        # "infs or NaNs" never reaches the user
        C = [[0.5, 0.65, 1e-310, 0.0], [-2.2615, -1.0, 2.0, 1.0]]
        cfg = write_config(tmp_path, base_config(C=C))
        findings = ("diagonal of CB is not positive (min real part "
                    "1.000e-310); closed loop is not Schur stable (spectral "
                    "radius inf)")
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert main(["condnum", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"C: VIOLATION {findings} (closed-loop spectral radius inf)\n" \
            in out
        assert err == ("solver error: C is not in the stable factor set: "
                       f"{findings}\n")


class TestInvalidPrior:
    @pytest.mark.parametrize("value", [0.0, float("inf")])
    def test_check_reports_it_and_solve_rejects_it(self, value, tmp_path,
                                                   capsys):
        doc = base_config(sigma=SIGMA_FROM_REF)
        doc["prior"] = {"kind": "constant", "value": value}
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg]) == 0
        assert ("prior: VIOLATION constant prior must be positive and finite"
                in capsys.readouterr().out)
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 2
        assert "positive and finite" in capsys.readouterr().err


    def test_overflowing_zero_is_a_violation(self, tmp_path, capsys):
        # A - B C / D overflows: the outer check names a zero of modulus
        # inf, where numpy's "infs or NaNs" used to end the verb
        doc = base_config(sigma=SIGMA_FROM_REF)
        doc["prior"] = {"kind": "rational", "sigma": {
            "A": [[0.5]], "B": [[1e300]], "C": [[1e10]], "D": [[0.1]]}}
        cfg = write_config(tmp_path, doc)
        finding = "sigma is not outer: a zero of modulus inf >= 1"
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"prior: VIOLATION {finding}\n" in out
        assert err == f"config error: prior: {finding}\n"


NON_MINIMUM_PHASE = {"kind": "polynomial", "b": [1.0, -2.0]}
# 1 + 0.5i z^{-1}: outer, but psi(theta) = 1.25 + sin(theta) is not even
ODD_PRIOR = {"kind": "polynomial", "b": [[1.0, 0.0], [0.0, 0.5]]}
ODD_MESSAGE = "prior psi is not even"


class TestOddPrior:
    """A psi that is not even makes g(psi, C) complex, so no C of a real
    bank solves for it: a domain violation of the prior, recorded at parse
    time."""

    def test_check_reports_it_with_exit_zero(self, tmp_path, capsys):
        doc = base_config(prior=ODD_PRIOR, sigma=SIGMA_FROM_REF)
        assert main(["check", "--config", write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert f"prior: VIOLATION {ODD_MESSAGE}" in out
        assert f"sigma: VIOLATION prior: {ODD_MESSAGE}" in out

    @pytest.mark.parametrize("verb", ["solve", "condnum"])
    def test_verbs_that_read_it_exit_2(self, verb, tmp_path, capsys):
        doc = base_config(prior=ODD_PRIOR, sigma=SIGMA_FROM_REF,
                          C=C_REF.tolist())
        out = tmp_path / verb
        assert main([verb, "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: prior: {ODD_MESSAGE}")
        assert not out.exists()

    def test_generating_prior_of_maxent(self, tmp_path, capsys):
        sigma = {"from": {"prior": ODD_PRIOR, "C": C_REF.tolist()}}
        cfg = write_config(tmp_path, base_config(sigma=sigma))
        assert main(["maxent", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: sigma.from.prior: {ODD_MESSAGE}")
        assert main(["check", "--config", cfg]) == 0
        assert (f"sigma: VIOLATION sigma.from.prior: {ODD_MESSAGE}"
                in capsys.readouterr().out)

    def test_complex_bank_takes_it(self, tmp_path, capsys):
        doc = base_config(prior=ODD_PRIOR)
        doc["filter"]["field"] = "complex"
        assert main(["check", "--config", write_config(tmp_path, doc)]) == 0
        assert "prior: ok (polynomial, minimum phase)" \
            in capsys.readouterr().out

    def test_phase_rotated_prior_solves(self, tmp_path, capsys):
        # i [1, -1, 0.89] has the reference prior's psi, so the same answer
        rotated = {"kind": "polynomial",
                   "b": [[0.0, b] for b in B_REF]}
        doc = base_config(prior=rotated, sigma=SIGMA_FROM_REF)
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg]) == 0
        assert "prior: ok" in capsys.readouterr().out
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        final = json.loads((out / "final_C.json").read_text())
        assert np.linalg.norm(np.array(final["C"]) - C_REF) < 1e-6


class TestDomainPolicy:
    """Parsing checks structure; the verb that reads a section checks its
    domain, the prior's included (recorded at parse time)."""

    def test_generating_prior_is_reported_and_rejected(self, tmp_path,
                                                       capsys):
        sigma = {"from": {"prior": NON_MINIMUM_PHASE, "C": C_REF.tolist()}}
        cfg = write_config(tmp_path, base_config(sigma=sigma))
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "prior: ok" in out
        assert "sigma: VIOLATION sigma.from.prior: b is not minimum phase" \
            in out
        for verb in ("solve", "maxent"):
            assert main([verb, "--config", cfg, "--out",
                         str(tmp_path / verb)]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: sigma.from.prior: b is not minimum phase")
            assert not (tmp_path / verb).exists()

    def test_invalid_prior_is_not_replaced_by_the_flat_one(self, tmp_path,
                                                           capsys):
        # sigma.from without its own prior reads `prior`: an invalid one is
        # its violation, not a silent fallback to psi = 1
        doc = base_config(sigma=SIGMA_FROM_REF)
        doc["prior"] = NON_MINIMUM_PHASE
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "prior: VIOLATION b is not minimum phase" in out
        assert "sigma: VIOLATION prior: b is not minimum phase" in out
        for verb in ("solve", "maxent"):
            assert main([verb, "--config", cfg, "--out",
                         str(tmp_path / verb)]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: prior: b is not minimum phase")

    def test_every_section_is_read_one_way(self):
        # no parse mode exempts a section from the policy
        for func in (cli.parse_config, cli._load_config):
            assert "lenient_prior" not in inspect.signature(func).parameters

    def test_maxent_reads_no_prior(self, tmp_path, capsys):
        doc = base_config(sigma={"matrix": np.eye(4).tolist()})
        doc["prior"] = NON_MINIMUM_PHASE
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "me"
        assert main(["maxent", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "maxent_C.json").exists()
        # the verbs that read the prior still reject it
        assert main(["solve", "--config", cfg]) == 2
        assert main(["condnum", "--config", write_config(
            tmp_path, dict(doc, C=C_REF.tolist()), "c.json")]) == 2
        assert "config error: prior: " in capsys.readouterr().err

    @pytest.mark.parametrize("verb, section", [
        ("solve", "prior"), ("solve", "sigma"), ("condnum", "prior"),
        ("condnum", "C"), ("maxent", "sigma")])
    def test_one_message_for_a_missing_section(self, verb, section, tmp_path,
                                               capsys):
        doc = base_config(sigma=SIGMA_FROM_REF, C=C_REF.tolist())
        del doc[section]
        assert main([verb, "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {section}: section is required for {verb}\n")

    @pytest.mark.parametrize("section, spec, message", [
        ("filter", {"A": [[float("nan")]], "B": [[1.0]]},
         "filter: filter A has non-finite entries"),
        ("filter", {"A": [[0.5]], "B": [[float("inf")]]},
         "filter: filter B has non-finite entries"),
        ("prior", {"kind": "polynomial", "b": [1.0, float("nan")]},
         "prior: b has non-finite entries"),
        ("prior", {"kind": "polynomial", "b": [float("inf"), 0.5]},
         "prior: b has non-finite entries"),
        ("prior", {"kind": "rational", "sigma": {
            "A": [[0.5]], "B": [[1.0]], "C": [[float("nan")]],
            "D": [[1.0]]}}, "prior: C has non-finite entries")])
    @pytest.mark.parametrize("verb", ["check", "solve"])
    def test_non_finite_data_is_a_config_error_naming_it(
            self, verb, section, spec, message, tmp_path, capsys):
        # JSON's NaN and Infinity reach the library, which names the input
        # before numpy can warn or raise on it
        doc = base_config(sigma=SIGMA_FROM_REF)
        doc[section] = spec
        argv = [verb, "--config", write_config(tmp_path, doc)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestMaxent:
    def test_writes_solution(self, tmp_path, capsys):
        doc = base_config(sigma={"matrix": np.eye(4).tolist()})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "me"
        assert main(["maxent", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "maxent_C.json").read_text())
        got = np.array(payload["C"])
        assert_allclose(got, [[0, 0, 1, 0], [0, 0, 0, 1]], atol=1e-12)
        assert payload["residual"] <= 1e-9

    def test_small_covariance(self, tmp_path, capsys):
        # Sigma from 1000 C_REF is the reference Sigma scaled by 1e-6; the
        # start makes CB exactly triangular, so roundoff at this scale does
        # not fail membership
        doc = base_config(sigma={"from": {"C": (1000.0 * C_REF).tolist()}})
        assert main(["maxent", "--config", write_config(tmp_path, doc)]) == 0

    def test_residual_is_the_defining_gap(self, tmp_path, monkeypatch):
        # the reported residual is ||g(1, C) - Sigma|| bit for bit, taken
        # from the start's own gate: with sigma.from, g is evaluated once
        # for Sigma and once for the start, and never again
        doc = base_config(sigma=SIGMA_FROM_REF)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "me"
        calls = []
        g = cli.moment_g_statespace
        monkeypatch.setattr(cli, "moment_g_statespace",
                            lambda *a: calls.append(a) or g(*a))
        assert main(["maxent", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 1
        payload = json.loads((out / "maxent_C.json").read_text())
        fb = make_covariance_extension_filter(2, 1)
        Sigma = g(fb, cli.prior_from_polynomial(B_REF),
                  FactorParameter(fb, C_REF))
        gap = np.linalg.norm(
            g(fb, None, FactorParameter(fb, np.array(payload["C"]))) - Sigma)
        assert payload["residual"] == float(gap)


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "oracle-equivalence [complex]: PASS" in out

    def test_perturbation_hook_forces_roundtrip_failure(self, capsys,
                                                        monkeypatch):
        # the round-trip suite looks h_map up at call time, so a perturbed
        # map shows that a wrong answer fails it
        h_map = factorization.h_map

        def perturbed(fb, Lam):
            return FactorParameter(fb, (1.0 + 1e-4) * h_map(fb, Lam).C)

        monkeypatch.setattr(factorization, "h_map", perturbed)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        for field in ("real", "complex"):
            assert f"round-trip [{field}]: FAIL" in out
            # the other suites do not call h_map
            assert f"oracle-equivalence [{field}]: PASS" in out
            assert f"finite-difference [{field}]: PASS" in out

    def test_a_suite_that_raises_fails_and_the_rest_still_run(
            self, capsys, monkeypatch):
        ran = []

        def crash(*setup):
            raise RuntimeError("boom")

        def passing(name):
            def suite(*setup):
                ran.append(name)
                return 0.0, 1.0
            return suite

        monkeypatch.setattr(cli, "_suite_oracle", crash)
        monkeypatch.setattr(cli, "_suite_roundtrip", passing("round-trip"))
        monkeypatch.setattr(cli, "_suite_fd", passing("finite-difference"))
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        for field in ("real", "complex"):
            assert (f"oracle-equivalence [{field}]: FAIL (RuntimeError: "
                    "boom)\n") in out
        assert ran == ["round-trip", "finite-difference"] * 2
        assert out.count(": PASS") == 4
        assert "selftest: FAIL" in out

    def test_imports_no_scipy(self):
        # the package is numpy-only: in a fresh interpreter, importing it
        # and running a whole selftest loads no scipy module
        code = (
            "import sys\n"
            "import spectral_homotopy\n"
            "from spectral_homotopy import cli\n"
            "assert cli.main(['selftest']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestOverrides:
    """Each verb accepts only the flags it reads: ``--config`` and, where
    it writes files, ``--out``.  Solver settings live in the config."""

    @pytest.mark.parametrize("argv", [[], ["solve"], ["condnum"], ["check"],
                                      ["maxent"], ["selftest"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: spectral-homotopy")

    def test_help_lists_only_the_paths(self, capsys):
        helps = {}
        for verb in ("solve", "check"):
            with pytest.raises(SystemExit):
                main([verb, "--help"])
            helps[verb] = capsys.readouterr().out
        assert "--out" in helps["solve"]
        assert "--dt" not in helps["solve"] and "--tol" not in helps["solve"]
        assert "--out" not in helps["check"]

    @pytest.mark.parametrize("flag", ["--dt", "--tol"])
    def test_solve_takes_no_solver_setting(self, flag, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(sigma=SIGMA_FROM_REF))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", cfg, "--out", str(out), flag, "0.1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err
        assert not out.exists()

    def test_selftest_takes_no_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--dt", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt" in capsys.readouterr().err

    def test_check_takes_only_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main(["check", "--config", cfg, "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_maxent_rejects_continuation_flags(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(sigma=SIGMA_FROM_REF))
        with pytest.raises(SystemExit) as exc:
            main(["maxent", "--config", cfg, "--dtheta", "1e-3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb", ["solve", "condnum", "check", "maxent",
                                      "selftest"])
    def test_no_verb_takes_a_spacing(self, verb, tmp_path, capsys):
        # no verb builds a quadrature grid, so none takes its spacing
        argv = [verb, "--dtheta", "1e-3"]
        if verb != "selftest":
            argv += ["--config", write_config(tmp_path, base_config())]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --dtheta" in capsys.readouterr().err


class TestParserBuiltOnce:
    """main builds its argument parser on the first call and reuses it."""

    def test_six_parsers_all_in_the_first_call(self, tmp_path, capsys,
                                               monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        cfg = write_config(tmp_path, base_config(C=C_REF.tolist()))

        def condnum(name):
            out = tmp_path / name
            assert main(["condnum", "--config", cfg, "--out", str(out)]) == 0
            return json.loads((out / "condnum.json").read_text())

        first = condnum("first")
        # the root and one parser per verb
        assert len(built) == 6
        assert main(["check", "--config", cfg]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["check", "--config", cfg, "--tol", "1e-9"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: spectral-homotopy [-h] "
            "{solve,condnum,check,maxent,selftest} ...\n"
            "spectral-homotopy: error: unrecognized arguments: --tol 1e-9\n")
        with pytest.raises(SystemExit) as exc:
            main(["condnum", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(
            "usage: spectral-homotopy condnum [-h] --config CONFIG")
        last = condnum("last")
        assert len(built) == 6
        for key in ("cond_g", "cond_f"):
            assert last[key] == first[key]

    def test_importing_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import spectral_homotopy\n"
            "from spectral_homotopy import cli\n"
            "print(len(built), cli._build_parser.cache_info().currsize)\n")
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_importing_fills_no_set_up_cache(self):
        # the shared banks and priors are built by the first call that
        # asks for them, never at import
        code = (
            "from spectral_homotopy import cli, statespace\n"
            "print(statespace._covext_bank.cache_info().currsize,\n"
            "      statespace._polynomial_prior.cache_info().currsize)\n")
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


class TestEntryPoint:
    """The installed ``spectral-homotopy`` script, or ``python -m
    spectral_homotopy.cli`` where it is not on PATH, in a subprocess: exit
    codes and stderr prefixes through a real interpreter.  The checks of
    each verb's behaviour are the in-process tests above."""

    @staticmethod
    def run(*argv):
        script = shutil.which("spectral-homotopy")
        cmd = ([script] if script
               else [sys.executable, "-m", "spectral_homotopy.cli"])
        return subprocess.run(cmd + list(argv), env=_fresh_env(),
                              capture_output=True, text=True, timeout=300)

    def test_help(self):
        proc = self.run("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: spectral-homotopy")

    def test_reference_condition_numbers(self, tmp_path):
        # criterion 1: both within 1% of cond_g = 2.4674e5, cond_f = 3.8187e8
        cfg = write_config(tmp_path, base_config(C=C_REF.tolist()))
        proc = self.run("condnum", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "condnum.json").read_text())
        assert abs(report["cond_g"] / 2.4674e5 - 1.0) <= 0.01
        assert abs(report["cond_f"] / 3.8187e8 - 1.0) <= 0.01

    def test_config_error_exits_2(self, tmp_path):
        doc = base_config(sigma=SIGMA_FROM_REF,
                          continuation={"max_newton": 5})
        proc = self.run("solve", "--config", write_config(tmp_path, doc),
                        "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "config error: continuation.max_newton: unknown key")

    def test_usage_error_exits_2(self):
        proc = self.run("check", "--config", "x.json", "--out", "x")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: spectral-homotopy")
        assert "unrecognized arguments: --out x" in proc.stderr

    def test_solver_error_exits_3(self, tmp_path):
        doc = base_config(
            sigma={"matrix": np.diag([1.0, 1.0, 2.0, 1.0]).tolist()})
        proc = self.run("solve", "--config", write_config(tmp_path, doc),
                        "--out", str(tmp_path / "run"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("solver error: ")
