"""Host-speed reference for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts by a
quarter or more over minutes, with every instruction slowed alike: the
fastest pass of one 25 s run can be 40 % slower than that of the next.  So
the run times a fixed reference job, which uses no code of the repository,
around every pass, and reports the pass in reference units: its wall time
divided by the mean time of the reference jobs around it, times
``NOMINAL_S``, the reference job's time on a quiet host.  A change to
``dendrop`` moves the pass and not the reference, so it moves the reported
time by the same share as the raw time; drift of the host moves both and
cancels.

The job is plain Python of the kind the library runs: nested loops over
small tuples, modular integer arithmetic, dict and set lookups of tuple
keys, ``Fraction`` arithmetic and small function calls.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Seconds the reference job takes on a quiet Intel Xeon vCPU with Python 3.11.
# It only sets the scale of the reported times; any fixed value would do.
NOMINAL_S = 0.02

_P = 7
_N = 3
_ITERATIONS = 8


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(_N)) % _P for j in range(_N))
                 for i in range(_N))


def _job() -> int:
    seen, table = set(), {}
    m = ((1, 2, 0), (0, 1, 3), (4, 0, 1))
    x = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for step in range(200):
        x = _mat_mul(x, m)
        seen.add(x)
        table[x] = table.get(x, 0) + step
    q = Fraction(0)
    for i in range(1, 120):
        q += Fraction(i % 5 - 2, i % 7 + 1) * Fraction(3, i % 4 + 1)
    return len(seen) + sum(table.values()) + q.numerator % _P


CHECK = _job()


def reference_s() -> float:
    """Wall time of one run of the reference job (about ``NOMINAL_S``)."""
    t0 = time.perf_counter()
    for _ in range(_ITERATIONS):
        if _job() != CHECK:
            raise RuntimeError("reference job gave a different result")
    return time.perf_counter() - t0
