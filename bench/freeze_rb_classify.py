#!/usr/bin/env python3
"""Freeze the expected values of the fp-rb-classify workload.

Over F_3 in dimension 2: the associative products, their weight-0
Rota-Baxter operators, the distinct domain dialgebras of those, and the
isomorphism classes of the dialgebras, with class sizes.  The values come from the naive
functions in ``tests/oracle_enumeration.py`` and a naive orbit closure over
GL_2(F_3); nothing here imports ``dendrop`` for them.  They are written to
``bench/expected_rb_classify.json`` only when the library run of the
workload gives the same values.

    python3 bench/freeze_rb_classify.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracle_enumeration import (all_matrices, all_tensors, is_associative,  # noqa: E402
                                is_rota_baxter, mul_vec, weight_zero_domain_pair)

DIM, P = 2, 3
OUT = BENCH / "expected_rb_classify.json"


def invertible(n, p):
    """GL_2(F_p), by the determinant (n = 2 only)."""
    return [F for F in all_matrices(n, p)
            if (F[0][0] * F[1][1] - F[0][1] * F[1][0]) % p]


def inverse(F, p):
    """Inverse of a 2 x 2 matrix over F_p."""
    det_inv = pow((F[0][0] * F[1][1] - F[0][1] * F[1][0]) % p, -1, p)
    return ((F[1][1] * det_inv % p, -F[0][1] * det_inv % p),
            (-F[1][0] * det_inv % p, F[0][0] * det_inv % p))


def act(F, pair, p, n):
    """Transport (prec, succ) along F: x <' y = F(F^-1 x < F^-1 y), likewise for >."""
    Finv = inverse(F, p)
    cols = [tuple(Finv[r][i] for r in range(n)) for i in range(n)]

    def image(v):
        return tuple(sum(F[r][t] * v[t] for t in range(n)) % p for r in range(n))

    return tuple(tuple(tuple(image(mul_vec(c, cols[i], cols[j], p, n)) for j in range(n))
                       for i in range(n)) for c in pair)


def oracle_values(n, p) -> dict:
    algebras = [c for c in all_tensors(n, p) if is_associative(c, p, n)]
    operators = [(c, op) for c in algebras for op in all_matrices(n, p)
                 if is_rota_baxter(c, op, 0, p, n)]
    images = {weight_zero_domain_pair(c, op, p, n) for c, op in operators}
    gl = invertible(n, p)
    left, sizes = set(images), []
    while left:
        d = min(left)
        orbit = {act(F, d, p, n) for F in gl}
        stabilizer = sum(act(F, d, p, n) == d for F in gl)
        if not orbit <= images or len(orbit) * stabilizer != len(gl):
            raise SystemExit(f"orbit of {d} breaks GL invariance or orbit-stabilizer")
        sizes.append(len(orbit))
        left -= orbit
    return {"assoc": len(algebras), "rb_operators": len(operators),
            "images": len(images), "classes": len(sizes),
            "class_sizes": sorted(sizes), "gl_order": len(gl)}


def library_values(n, p) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import dendrop
    from tracing import NullTracer
    from workloads import rb_classify

    got = rb_classify(dendrop, NullTracer(), n, p, [])
    return {k: got[k] for k in ("assoc", "rb_operators", "images", "classes",
                                "class_sizes", "gl_order")}


def main() -> int:
    oracle = oracle_values(DIM, P)
    library = library_values(DIM, P)
    print(f"oracle:  {oracle}\nlibrary: {library}")
    if oracle != library:
        print("the oracle and the library disagree; nothing written", file=sys.stderr)
        return 1
    frozen = {"dim": DIM, "p": P, **oracle,
              "source": "tests/oracle_enumeration.py and a naive GL orbit closure, "
                        "checked against the library run by bench/freeze_rb_classify.py"}
    OUT.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
