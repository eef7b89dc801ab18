"""Time one workload set-up in a fresh interpreter.

Prints the seconds from interpreter start-up (this module's first line)
through importing the package and building every input of the first
operation.  ``run.py`` starts it several times and reports the median.

    python3 bench/setup_probe.py <workload> <seed> <workdir>
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]

from ops import prepare  # noqa: E402
from workloads import Workload  # noqa: E402


def main(name, seed, workdir):
    prepare(Workload(name, int(seed)), 0, workdir)
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main(*sys.argv[1:4])
