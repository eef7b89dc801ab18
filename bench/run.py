"""Benchmark of spectral-homotopy, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload covext-ref --seed 1 --seconds 20 --trace 0

Workloads: covext-ref, covext-wide, covext-large, complex, condnum (see
bench/README.md).  Each is a closed loop with one caller: operations run one
after another until the next one would end after ``--seconds``; at least two
run.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
interpreters, three before the first operation and one after each), the
median over the operations after the warm-up operation 0
of each one's time in units of the calibration loop that bracket it
(``op_cal``; see calibrate.py), and peak resident memory.  It also prints the
median wall seconds per operation (``op_s``) and the failed fraction.  ``--trace 1`` runs operation
0 untraced twice, then once more with span wrappers on every library
binding, and reports per-layer metrics; the spans go to
``.bench_work/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when an operation returned a result that fails its gate; an operation
that raises counts as failed without making the output incorrect.
"""

import os
import sys

# one BLAS thread and the library's default Jacobian threading, fixed before
# numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SPECTRAL_HOMOTOPY_THREADS", None)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
# set-up probes before the first operation; one more follows each operation
SETUP_REPS = 3
SETUP_TIMEOUT_S = 60


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import the package from this checkout's ``src``, nowhere else."""
    init = SRC / "spectral_homotopy" / "__init__.py"
    if not init.is_file():
        fail(f"no library source at {init.relative_to(ROOT)}; run from a "
             "checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import spectral_homotopy
    if Path(spectral_homotopy.__file__).resolve() != init.resolve():
        fail(f"imported {spectral_homotopy.__file__} instead of {init}")


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "SPECTRAL_HOMOTOPY_THREADS": os.environ.get(
            "SPECTRAL_HOMOTOPY_THREADS"),
    }


def measure_setup(name, seed):
    """Set-up seconds of one fresh interpreter, which runs alone."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
         str(WORKDIR)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        cwd=str(ROOT))
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def show(result):
    status = "ok" if result.ok else ("raised" if result.raised else "WRONG")
    extra = (f", {result.steps} steps, {result.newton_iters} Newton"
             if result.steps else "")
    print(f"  op {result.index} ({result.label}): {result.seconds:.3f} s "
          f"{status}{extra}; {result.detail}")


def run_untraced(wl, seconds, ops, calibrate, setups):
    """Operations until the next would end after ``seconds``; at least two.

    Operation 0 is the warm-up: it is gated and counted like any other, but
    its time, which includes first-call set-up inside the library, is left
    out of the timing metrics.  After every operation the calibration loop
    runs, then one set-up probe, whose time is appended to ``setups``, so
    set-up is sampled across the whole run.  (results, calibration seconds)
    with one calibration per result, the one that followed it.
    """
    results, cals, laps = [], [], []
    calibrate.seconds()                      # first-call set-up of numpy
    start = time.perf_counter()
    index = 0
    while True:
        if len(results) >= 2:
            typical = statistics.median(laps[1:])
            if time.perf_counter() - start + typical > seconds:
                break
        lap_start = time.perf_counter()
        inp = ops.prepare(wl, index, str(WORKDIR))
        results.append(ops.run_op(wl, index, inp, str(WORKDIR)))
        cals.append(calibrate.seconds())
        setups.append(measure_setup(wl.name, wl.seed))
        laps.append(time.perf_counter() - lap_start)
        show(results[-1])
        index += 1
    return results, cals


def run_traced(wl, ops, tracing):
    """Operation 0 untraced twice (warm-up, then timed), then traced;
    (results, tracer)."""
    results = []
    tracer = tracing.Tracer()
    for traced in (False, False, True):
        inp = ops.prepare(wl, 0, str(WORKDIR))
        if traced:
            with tracer:
                results.append(ops.run_op(wl, 0, inp, str(WORKDIR), tracer))
        else:
            results.append(ops.run_op(wl, 0, inp, str(WORKDIR)))
        show(results[-1])
    return results, tracer


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    import calibrate
    import ops
    import tracing
    from workloads import WORKLOADS, Workload
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r} "
             f"(choose from {', '.join(WORKLOADS)})")

    WORKDIR.mkdir(exist_ok=True)
    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    wl = Workload(args.workload, args.seed)

    if args.trace:
        results, tracer = run_traced(wl, ops, tracing)
        spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"wrote {len(tracer.spans)} spans to "
              f"{spans_path.relative_to(ROOT)}")
        layer = tracing.per_layer_metrics(tracer.spans, tracer.label_def)
        layer["trace_overhead_frac"] = (
            results[2].seconds / results[1].seconds - 1.0, "frac")
        metrics = {k: metric(v, u) for k, (v, u) in layer.items()}
    else:
        setups = [measure_setup(args.workload, args.seed)
                  for _ in range(SETUP_REPS)]
        results, cals = run_untraced(wl, args.seconds, ops, calibrate,
                                     setups)
        times = [r.seconds for r in results[1:]]
        # operation k ran between calibrations k - 1 and k
        relative = [r.seconds / (0.5 * (before + after)) for r, before, after
                    in zip(results[1:], cals, cals[1:])]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "op_cal": metric(statistics.median(relative), "cal"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        print(f"op_s {statistics.median(times):.6g} s (median wall time; "
              f"calibration loop {statistics.median(cals):.4g} s, from "
              f"{min(cals):.4g} to {max(cals):.4g} s)")
        print(f"op_s and op_cal are medians of {len(times)} operations "
              "after the warm-up")
        print(f"setup_s is the median of {len(setups)} set-up runs: "
              f"{', '.join(f'{t:.4f}' for t in setups)} s")
    failed = sum(not r.ok for r in results)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"operations {len(results)}")
    print(f"failed_frac {failed / len(results):.6g} ({failed}/{len(results)})")
    for sub in WORKDIR.glob("condnum-*"):
        shutil.rmtree(sub, ignore_errors=True)
    print(json.dumps({
        "correct": not any(not r.ok and not r.raised for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
