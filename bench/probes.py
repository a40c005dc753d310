"""Kernel probes for the traced run: time per call of single library functions.

Each probe builds seeded inputs first, then times a fixed number of calls
``ROUNDS`` times and reports the median round divided by its call count,
together with the total number of calls made.  Candidate samples for the
validators are drawn uniformly from the enumerators' candidate spaces, so
they carry the enumerators' mix of accepted and rejected candidates.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from fractions import Fraction
from statistics import median

from workloads import small_invertible

ROUNDS = 5


def _per_call(batch, calls: int):
    """Median seconds per call over ROUNDS runs of ``batch``, and calls made."""
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        batch()
        rounds.append(time.perf_counter() - t0)
    return median(rounds) / calls, calls * ROUNDS


def _small_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _tensor(dp, field, n, scalar):
    return dp.StructureTensor(field, tuple(tuple(tuple(scalar() for _ in range(n))
                                                 for _ in range(n)) for _ in range(n)))


def kernel_probes(dp, seed: int) -> dict:
    """Per-call cost of field ops, matvec/apply/invert, tensor building, validators."""
    rng = random.Random(seed)
    Q, F2, F3 = dp.RATIONALS, dp.prime_field(2), dp.prime_field(3)
    out = {}

    def scalar_ops(field, pairs):
        add, mul, sub = field.add, field.mul, field.sub

        def batch():
            for a, b in pairs:
                add(a, b)
                mul(a, b)
                sub(a, b)
        return _per_call(batch, 3 * len(pairs))

    per, calls = scalar_ops(F3, [(rng.randrange(3), rng.randrange(3)) for _ in range(3000)])
    out["fields.prime_op_ns"], out["fields.prime_op_calls"] = per * 1e9, calls
    per, calls = scalar_ops(Q, [(_small_fraction(rng), _small_fraction(rng))
                                for _ in range(1000)])
    out["fields.rational_op_ns"], out["fields.rational_op_calls"] = per * 1e9, calls

    def matvec_probe(field, scalar, count=400):
        cases = [(dp.Matrix(field, tuple(tuple(scalar() for _ in range(3)) for _ in range(3))),
                  tuple(scalar() for _ in range(3))) for _ in range(count)]
        return _per_call(lambda: [M.matvec(v) for M, v in cases], count)

    def apply_probe(field, scalar, count=200):
        cases = [(_tensor(dp, field, 3, scalar), tuple(scalar() for _ in range(3)),
                  tuple(scalar() for _ in range(3))) for _ in range(count)]
        return _per_call(lambda: [t.apply(u, v) for t, u, v in cases], count)

    qs = lambda: _small_fraction(rng)  # noqa: E731
    f3s = lambda: rng.randrange(3)     # noqa: E731
    per, calls = matvec_probe(Q, qs)
    out["linalg.matvec_us"], out["linalg.matvec_calls"] = per * 1e6, calls
    out["linalg.matvec_fp_us"] = matvec_probe(F3, f3s)[0] * 1e6
    per, calls = apply_probe(Q, qs)
    out["linalg.apply_us"], out["linalg.apply_calls"] = per * 1e6, calls
    out["linalg.apply_fp_us"] = apply_probe(F3, f3s)[0] * 1e6
    mats = [small_invertible(dp, rng, 3) for _ in range(150)]
    per, calls = _per_call(lambda: [dp.invert(M) for M in mats], len(mats))
    out["linalg.invert_us"], out["linalg.invert_calls"] = per * 1e6, calls

    # Dimension-2 candidates over F_2, as the brute-force enumerators build them.
    def nested(flat):
        return tuple(tuple(flat[4 * i + 2 * j:4 * i + 2 * j + 2] for j in range(2))
                     for i in range(2))

    flats = [tuple(rng.randrange(2) for _ in range(16)) for _ in range(2000)]
    grids = [nested(f[:8]) for f in flats]
    per, calls = _per_call(lambda: [dp.StructureTensor(F2, g) for g in grids], len(grids))
    out["linalg.tensor_build_us"], out["linalg.tensor_build_calls"] = per * 1e6, calls

    dis = [dp.DendriformDi(dp.StructureTensor(F2, nested(f[:8])),
                           dp.StructureTensor(F2, nested(f[8:]))) for f in flats]
    per, calls = _per_call(lambda: [dp.validate_dendriform_di(d, max_violations=1,
                                                              early_stop=True)
                                    for d in dis], len(dis))
    out["structures.validate_di_us"], out["structures.validate_di_calls"] = per * 1e6, calls
    algs = [dp.Algebra(dp.StructureTensor(F2, g)) for g in grids[:1000]]
    per, calls = _per_call(lambda: [dp.validate_associativity(a, max_violations=1,
                                                              early_stop=True)
                                    for a in algs], len(algs))
    out["structures.validate_assoc_us"], out["structures.validate_assoc_calls"] = \
        per * 1e6, calls
    assoc = dp.enumerate_associative_products(2, 2)
    rbs = [dp.RotaBaxterOperator(rng.choice(assoc), dp.Matrix(F2, (f[0:2], f[2:4])), 0)
           for f in flats[:1000]]
    per, calls = _per_call(lambda: [dp.validate_rota_baxter(rb, max_violations=1,
                                                            early_stop=True)
                                    for rb in rbs], len(rbs))
    out["operators.validate_rb_us"], out["operators.validate_rb_calls"] = per * 1e6, calls
    return out


def child_seconds(env, code: str, repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=env.tmp, env=env.child_env,
                       check=True, capture_output=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return median(walls)
