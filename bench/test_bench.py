"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spectral_homotopy as sh  # noqa: E402

import ops  # noqa: E402
import tracing  # noqa: E402
from workloads import (RADIUS_RANGE, WORKLOADS, CondnumInput,  # noqa: E402
                       Workload, closed_loop_radius)


def _input_bytes(inp):
    if isinstance(inp, CondnumInput):
        return [inp.label, inp.C.tobytes(), json.dumps(inp.config)]
    return [inp.label, inp.prior_b.tobytes(), inp.C_true.tobytes(),
            inp.Sigma.tobytes()]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_bit_identical_inputs(name):
    first = [_input_bytes(Workload(name, 7).make(k)) for k in range(3)]
    again = [_input_bytes(Workload(name, 7).make(k)) for k in (2, 1, 0)][::-1]
    other = [_input_bytes(Workload(name, 8).make(k)) for k in range(3)]
    assert first == again
    # operation 0 of covext-ref and condnum is the fixed reference point
    assert first[1:] != other[1:]


@pytest.mark.parametrize("name", WORKLOADS)
def test_windows_sit_at_their_closed_loop_radius(name):
    wl = Workload(name, 3)
    for k in (1, 2):
        inp = wl.make(k)
        C = inp.C if isinstance(inp, CondnumInput) else inp.C_true
        lo, hi = RADIUS_RANGE[name]
        assert lo - 1e-9 <= closed_loop_radius(wl.fb, C) <= hi + 1e-9


def test_complex_generator_produces_non_real_data():
    wl = Workload("complex", 11)
    for k in range(3):
        inp = wl.make(k)
        for X in (inp.C_true, inp.Sigma):
            assert np.iscomplexobj(X)
            assert np.linalg.norm(X.imag) > 0.1 * np.linalg.norm(X)


def _slice_step(wl, size, seed=0):
    rng = np.random.default_rng(seed)
    V = wl.chart.factor_from_coords(rng.standard_normal(wl.chart.dim))
    return V * (size / np.linalg.norm(V))


def test_gate_counts_perturbed_factor_as_failed(monkeypatch):
    wl = Workload("covext-ref", 5)
    inp = wl.make(1)
    ok, _ = ops.gate_solve(wl.fb, inp, inp.C_true)
    assert ok
    bad = inp.C_true + _slice_step(wl, 1e-3)
    ok, detail = ops.gate_solve(wl.fb, inp, bad)
    assert not ok, detail

    # through the operation: a solve returning the perturbed factor is a
    # failed operation and an incorrect output, not a raised one
    final = SimpleNamespace(C=bad, newton_iters=3)
    fake = SimpleNamespace(final=final, samples=(final,) * 11)
    monkeypatch.setattr(sh, "run_continuation", lambda *a, **k: fake)
    result = ops.run_solve(wl, 1, inp)
    assert not result.ok and not result.raised


def test_condnum_gate_rejects_perturbed_condition_numbers():
    wl = Workload("condnum", 5)
    inp = wl.make(1)
    param = sh.FactorParameter(wl.fb, inp.C)
    cond_g = sh.jacobian_condition_number(wl.chart, wl.prior_ref, param,
                                          route="statespace")
    Lam = sh.h_inverse(wl.chart, param)
    cond_f = sh.jacobian_condition_number(wl.chart, wl.prior_ref, Lam,
                                          which="f", dtheta=ops.CHECK_DTHETA)
    ok, detail = ops.gate_condnum(wl, inp, {"cond_g": cond_g,
                                            "cond_f": cond_f})
    assert ok, detail
    ok, _ = ops.gate_condnum(wl, inp, {"cond_g": cond_g * (1 + 1e-3),
                                       "cond_f": cond_f})
    assert not ok
    ok, _ = ops.gate_condnum(wl, wl.make(0),
                             {"cond_g": 2.4674e5 * 1.02, "cond_f": 3.8187e8})
    assert not ok


def _assert_same_bindings(before, after):
    assert before.keys() == after.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def test_untraced_operation_leaves_every_binding_untouched(tmp_path):
    before = tracing.bindings_snapshot()
    wl = Workload("covext-ref", 2)
    result = ops.run_op(wl, 1, ops.prepare(wl, 1, str(tmp_path)),
                        str(tmp_path))
    assert result.ok, result.detail
    _assert_same_bindings(before, tracing.bindings_snapshot())


def test_tracer_wraps_every_binding_and_removes_them():
    from spectral_homotopy import factorization, matrixeq, moment
    before = tracing.bindings_snapshot()
    original = matrixeq.solve_dlyap
    with tracing.Tracer() as tracer:
        for mod in (sh, matrixeq, moment, factorization):
            assert mod.solve_dlyap is not original
            assert mod.solve_dlyap.__wrapped__ is original
        assert "moment._left_outer_system" in tracer.label_def
        assert "factorization._left_outer_system" in tracer.label_def
        assert sh.FilterBank.__dict__["eval_grid"] is not \
            before[("statespace", "FilterBank.eval_grid")]
    _assert_same_bindings(before, tracing.bindings_snapshot())


def test_spans_nest_and_self_time_excludes_children():
    wl = Workload("covext-ref", 1)
    inp = wl.make(0)
    with tracing.Tracer() as tracer:
        sh.moment_g_statespace(wl.fb, inp.prior, sh.FactorParameter(
            wl.fb, inp.C_true))     # not recorded: no operation is open
        tracer.op = 0
        sh.moment_g_statespace(wl.fb, inp.prior, sh.FactorParameter(
            wl.fb, inp.C_true))
        tracer.op = None
    spans = tracer.spans
    top = [i for i, s in enumerate(spans) if s[0].endswith("moment_g_statespace")]
    assert len(top) == 1 and spans[top[0]][3] == -1
    children = [s for s in spans if s[3] == top[0]]
    assert any(s[0] == "moment.solve_dlyap" for s in children)
    stats = tracing.layer_stats(spans, tracer.label_def.__getitem__)
    g = stats["moment.moment_g_statespace"]
    assert 0.0 <= g["self_s"] <= g["durations"][0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = set(tracing.per_layer_metrics([], {})) | {"trace_overhead_frac"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_cal", "peak_rss_mb"}
    # covext-wide, covext-large and complex stay runnable but out of the set
    # that BENCHMARK.json runs (see README.md)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) - {
        "covext-wide", "complex", "covext-large"}


def test_exits_nonzero_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "covext-ref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
