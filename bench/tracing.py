"""Span tracing of the library's layers, from outside the library.

``Tracer.install`` replaces every binding of each traced function with a
timing wrapper: the defining module's global, every other module's copy made
by ``from .x import name`` (a copy of the reference, so patching the
defining module alone would miss it), and the package namespace.  Calls
inside a module go through its globals, so same-module calls are timed too.
``Tracer.remove`` puts every original object back.  Nothing is installed
unless tracing is asked for, so an untraced run executes the library as is.

A span is ``(label, start, end, parent, op, failed, value)``: ``label`` is
``<binding module>.<name>``, ``parent`` the index of the enclosing span (or
-1), ``op`` the operation id, ``value`` an optional number taken from the
return value.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np

PACKAGE = "spectral_homotopy"
LAYERS = ("statespace", "matrixeq", "factorization", "moment",
          "continuation", "cli")

# (defining module, attribute path): the functions the per-layer metrics
# name, plus run_continuation as the root span of a solve.  Missing ones are
# skipped, so the tracer survives a refactor that deletes a function.
TARGETS = (
    ("statespace", "is_in_Cplus"),
    ("statespace", "FilterBank.eval_grid"),
    ("matrixeq", "solve_dlyap"),
    ("matrixeq", "solve_dare_appendix"),
    ("matrixeq", "_additive_positivity"),
    ("factorization", "_left_outer_system"),
    ("factorization", "homotopy_prior"),
    ("moment", "moment_g_statespace"),
    ("moment", "apply_g2_statespace"),
    ("moment", "_kernel_grid"),
    ("moment", "make_chart"),
    ("moment", "assemble_jacobian_matrix"),
    ("moment", "solve_jacobian_system"),
    ("continuation", "maxent_initialization"),
    ("continuation", "predictor_step"),
    ("continuation", "corrector_newton"),
    ("continuation", "run_continuation"),
    ("cli", "main"),
)

# numbers pulled from return values: Newton iterations of a corrector call
VALUE_OF = {"continuation.corrector_newton": lambda result: result[2]}


def modules():
    """The package namespace plus its six layer modules, by short name."""
    mods = {PACKAGE: importlib.import_module(PACKAGE)}
    for name in LAYERS:
        mods[name] = importlib.import_module(f"{PACKAGE}.{name}")
    return mods


def bindings_snapshot():
    """Every global of every package module and every traced class attribute.

    Two snapshots compare equal binding by binding (``is``) when no wrapper
    was left behind.
    """
    mods = modules()
    snap = {}
    for short, mod in mods.items():
        for name, value in vars(mod).items():
            snap[(short, name)] = value
    for short, path in TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            snap[(short, path)] = getattr(mods[short], cls_name).__dict__.get(attr)
    return snap


class Tracer:
    """Timing wrappers on every binding of the traced functions."""

    def __init__(self):
        self.spans = []
        self.label_def = {}       # binding label -> defining label
        self._stack = []
        self._saved = []          # (owner, attribute, original)
        self.op = None            # spans are recorded only while set

    # -- install / remove -------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = modules()
        for short, path in TARGETS:
            defined = f"{short}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mods[short], cls_name, None)
                fn = cls.__dict__.get(attr) if cls is not None else None
                if fn is None:
                    continue
                self._patch(cls, attr, fn, defined, defined)
                continue
            fn = getattr(mods[short], path, None)
            if fn is None:
                continue
            for owner_name, owner in mods.items():
                for name, value in list(vars(owner).items()):
                    if value is fn:
                        self._patch(owner, name, fn, f"{owner_name}.{name}",
                                    defined)
        return self

    def remove(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    def _patch(self, owner, name, fn, label, defined):
        self.label_def[label] = defined
        setattr(owner, name, self._wrap(fn, label, VALUE_OF.get(defined)))
        self._saved.append((owner, name, fn))

    def _wrap(self, fn, label, value_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            failed = True
            value = None
            try:
                result = fn(*args, **kwargs)
                failed = False
                if value_of is not None:
                    value = value_of(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op, failed, value)

        traced.__wrapped__ = fn
        return traced

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for label, start, end, parent, op, failed, value in self.spans:
                fh.write(json.dumps({
                    "name": label, "defined": self.label_def[label],
                    "start": start, "end": end, "parent": parent, "op": op,
                    "failed": failed, "value": value}) + "\n")


def layer_stats(spans, key_of):
    """Call counts, failures, self and total durations grouped by ``key_of(label)``.

    Grouping by defining label counts every binding of a function together
    (``matrixeq.solve_dlyap``); grouping by binding label keeps
    ``moment._left_outer_system`` apart from factorization's own binding.
    """
    child_time = [0.0] * len(spans)
    for label, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (label, start, end, parent, op, failed, value) in enumerate(spans):
        s = stats.setdefault(key_of(label), {
            "calls": 0, "failed": 0, "self_s": 0.0, "durations": [],
            "values": 0})
        s["calls"] += 1
        s["failed"] += int(failed)
        s["self_s"] += (end - start) - child_time[i]
        s["durations"].append(end - start)
        if value is not None:
            s["values"] += value
    return stats


def children_count(spans, child_def, parent_def, label_def):
    """Calls of ``child_def`` whose direct parent span is ``parent_def``."""
    return sum(1 for label, _, _, parent, *_ in spans
               if label_def[label] == child_def and parent >= 0
               and label_def[spans[parent][0]] == parent_def)


def _get(stats, key, field, default=0):
    return stats[key][field] if key in stats else default


def _quantile(stats, key, q, scale):
    if key not in stats:
        return 0.0
    return float(np.quantile(stats[key]["durations"], q)) * scale


def per_layer_metrics(spans, label_def):
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    st = layer_stats(spans, label_def.__getitem__)
    # the two bindings of the outer-factor routine are reported apart
    for key, value in layer_stats(spans, lambda label: label).items():
        if key.endswith("._left_outer_system"):
            st[key] = value
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def basic(key, fields=("calls", "self_s")):
        for f in fields:
            if f == "self_s":
                put(f"{key}.self_s", float(_get(st, key, "self_s", 0.0)), "s")
            else:
                put(f"{key}.{f}", int(_get(st, key, f)), "count")

    def ratio(num, den):
        return float(num) / den if den else 0.0

    dare = "matrixeq.solve_dare_appendix"
    basic(dare, ("calls", "failed", "self_s"))
    calls = _get(st, dare, "calls")
    put(f"{dare}.ok_ratio", ratio(calls - _get(st, dare, "failed"), calls),
        "ratio")
    basic("matrixeq._additive_positivity")

    g2 = "moment.apply_g2_statespace"
    basic(g2)
    put(f"{g2}.p50_ms", _quantile(st, g2, 0.5, 1e3), "ms")
    put(f"{g2}.p90_ms", _quantile(st, g2, 0.9, 1e3), "ms")
    g2_calls = _get(st, g2, "calls")
    put("moment.g2_attempts_per_call",
        ratio(_get(st, "moment._left_outer_system", "calls"), g2_calls),
        "ratio")
    basic("moment._left_outer_system", ("calls", "failed", "self_s"))
    basic("factorization._left_outer_system", ("calls", "failed", "self_s"))

    sjs = "moment.solve_jacobian_system"
    basic(sjs, ("calls", "failed", "self_s"))
    put("moment.g2_evals_per_solve",
        ratio(children_count(spans, g2, sjs, label_def),
              _get(st, sjs, "calls")), "ratio")

    dlyap = "matrixeq.solve_dlyap"
    basic(dlyap)
    put(f"{dlyap}.p50_us", _quantile(st, dlyap, 0.5, 1e6), "us")

    basic("moment.moment_g_statespace")
    basic("factorization.homotopy_prior")

    pred, corr = "continuation.predictor_step", "continuation.corrector_newton"
    basic(pred, ("calls", "failed", "self_s"))
    basic(corr, ("calls", "failed", "self_s"))
    attempts = _get(st, pred, "calls")
    accepted = _get(st, corr, "calls") - _get(st, corr, "failed")
    put("continuation.steps_accepted", int(accepted), "count")
    put("continuation.steps_rejected", int(attempts - accepted), "count")
    put("continuation.newton_iters", int(_get(st, corr, "values")), "count")
    put("continuation.step_accept_ratio", ratio(accepted, attempts), "ratio")

    basic("statespace.is_in_Cplus")
    basic("moment.assemble_jacobian_matrix")
    basic("moment._kernel_grid", ("self_s",))
    basic("statespace.FilterBank.eval_grid")
    basic("moment.make_chart")
    basic("continuation.maxent_initialization")
    basic("cli.main", ("self_s",))
    return out
