"""A fixed calibration loop: how fast this machine runs at the moment.

On a shared host the same operation can take twice as long from one minute
to the next, because of what other tenants do.  The loop below times a fixed
mix of the work the library does (interpreted Python, small LAPACK calls,
vectorised numpy on 1024 and 65 536 points), which slows down with the
operations it brackets.  It uses numpy alone, never the library, so a change
to the library cannot move it.  ``run.py`` divides each operation's time by
the mean of the loop's times just before and just after it.
"""

import time

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = [_RNG.standard_normal((4, 4)) * 0.3 for _ in range(64)]
_SHIFT = 4.0 * np.eye(4)
_GRID = _RNG.standard_normal(1024)
_LONG = _RNG.standard_normal(1 << 16)
REPS = 20


def _once():
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    for a in _SMALL:
        np.linalg.eigvals(a)
        np.linalg.solve(a + _SHIFT, a)
        acc += float(np.exp(1j * _GRID * a[0, 0]).real.sum())
    acc += float(np.abs(np.exp(1j * _LONG)).sum())
    return acc


def seconds():
    """Wall seconds of one pass of the calibration loop (about 0.25 s)."""
    start = time.perf_counter()
    for _ in range(REPS):
        _once()
    return time.perf_counter() - start
