"""Exhaustive classification over prime fields in low dimension.

Candidate spaces are walked in lexicographic order of their flattened
structure constants (mixed-radix odometer).  Each candidate stays a raw
table: the flat tuple is sliced into nested tuples and tested with the
validators' failure scans for a verdict only (the first failure ends the
scan, and no report is built).  Algebras, operators and dialgebras are
built only for the accepted candidates.  Index ranges can be partitioned
across worker processes, capped at the CPU count and the number of
candidates, with one process pool per public call (the image experiment's
stages share it); chunks are merged in range order, so parallel and serial
runs produce identical lists.  Candidate counts above the configured
budget raise instead of truncating.

Dendriform dialgebras are fibred over their associative star products
``x * y = x < y + x > y``: the dialgebra axioms make the star associative
(every dialgebra comes from the identity O-operator onto its star), so
enumerating the associative stars first and then every ``prec`` with
``succ = star - prec`` reaches every dialgebra.  The budget counts the
candidates of each stage: ``p^(n^3)`` products for the star stage, then
``#stars * p^(n^3)`` pairs for the fibre stage, instead of the
``p^(2 n^3)`` pairs of the full square.

The image experiment compares the dendriform dialgebras reachable from
Rota-Baxter operators with the full enumeration.  This is a finite-field
analogue of a statement over the complex numbers; results are labeled as
such and neither confirm nor refute the original claim.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .constructions import canonical_operator_from_di, domain_dendriform_di
from .errors import BudgetExceededError, InvalidDendriformError
from .fields import FieldSpec, prime_field
from .linalg import Matrix, StructureTensor
from .operators import (RotaBaxterOperator, _rota_baxter_failures,
                        rb_as_module_operator)
from .structures import (Algebra, DendriformDi, _associativity_failures,
                         _dendriform_di_failures)

DEFAULT_BUDGET = 1 << 24

ANALOGUE_LABEL = ("finite-field analogue over F_{p}; says nothing about "
                  "the corresponding statement in characteristic zero")


def _check_budget(total: int, budget: int | None) -> int:
    cap = DEFAULT_BUDGET if budget is None else budget
    if total > cap:
        raise BudgetExceededError(f"{total} candidates exceed budget {cap}")
    return cap


def _digit_tuples(p: int, length: int, start: int, stop: int):
    """Mixed-radix odometer: flattened candidate tuples for indices [start, stop)."""
    digits = []
    idx = start
    for _ in range(length):
        digits.append(idx % p)
        idx //= p
    digits.reverse()
    for _ in range(start, stop):
        yield tuple(digits)
        for pos in range(length - 1, -1, -1):
            digits[pos] += 1
            if digits[pos] < p:
                break
            digits[pos] = 0


def _nested(flat, n: int) -> tuple:
    """Row-major flat structure constants as the nested table ``c[i][j][k]``."""
    rows = zip(*[iter(flat)] * n)
    return tuple(zip(*[rows] * n))


def _tensor_from_flat(field: FieldSpec, n: int, flat) -> StructureTensor:
    return StructureTensor(field, _nested(flat, n))


def _matrix_from_flat(field: FieldSpec, n: int, flat) -> Matrix:
    return Matrix(field, tuple(flat[r * n:(r + 1) * n] for r in range(n)))


# -- chunk filters (top level so worker processes can unpickle them) -----------------

def _assoc_chunk(args):
    p, n, start, stop = args
    field = prime_field(p)
    return [flat for flat in _digit_tuples(p, n ** 3, start, stop)
            if next(_associativity_failures(field, _nested(flat, n)), None) is None]


def _rb_chunk(args):
    algebra, weight, start, stop = args
    field, n = algebra.field, algebra.dim
    product = algebra.product.entries
    return [flat for flat in _digit_tuples(field.p, n * n, start, stop)
            if next(_rota_baxter_failures(field, product, tuple(flat[j::n] for j in range(n)),
                                          weight), None) is None]


def _fibre_chunk(args):
    """Pairs (prec, star - prec) for fibre indices [start, stop) that are dialgebras.

    Index ``i`` is star ``i // p^(n^3)`` with prec number ``i % p^(n^3)``; the
    odometer keeps only the low ``n^3`` digits, so it wraps to the next fibre.
    """
    p, n, stars, start, stop = args
    field = prime_field(p)
    size = p ** (n ** 3)
    out = []
    for idx, prec in enumerate(_digit_tuples(p, n ** 3, start, stop), start):
        succ = tuple((s - a) % p for s, a in zip(stars[idx // size], prec))
        if next(_dendriform_di_failures(field, _nested(prec, n), _nested(succ, n)),
                None) is None:
            out.append(prec + succ)
    return out


def _worker_count(requested: int, total: int) -> int:
    """Processes to start: at least one, at most the CPUs and the candidates."""
    return max(1, min(requested, os.cpu_count() or 1, total))


class _Chunks:
    """Chunk runner of one public call: starts at most one process pool, when first needed."""

    def __init__(self, workers: int):
        self.workers = workers
        self.pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()

    def run(self, chunk_fn, fixed_args, total: int):
        workers = _worker_count(self.workers, total)
        if workers == 1:
            return chunk_fn(fixed_args + (0, total))
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=min(self.workers, os.cpu_count() or 1))
        bounds = [total * k // workers for k in range(workers + 1)]
        jobs = [fixed_args + (bounds[k], bounds[k + 1]) for k in range(workers)]
        parts = list(self.pool.map(chunk_fn, jobs))
        return [flat for part in parts for flat in part]


# -- public enumerations ---------------------------------------------------------------

def enumerate_associative_products(dim: int, p: int, budget: int | None = None,
                                   workers: int = 1) -> list:
    """All associative structure tensors on F_p^dim, in lexicographic order."""
    with _Chunks(workers) as chunks:
        return _associative_products(dim, p, budget, chunks)


def _associative_products(dim: int, p: int, budget, chunks: _Chunks) -> list:
    total = p ** (dim ** 3)
    _check_budget(total, budget)
    field = prime_field(p)
    flats = chunks.run(_assoc_chunk, (p, dim), total)
    return [Algebra(_tensor_from_flat(field, dim, flat)) for flat in flats]


def enumerate_rb_operators(algebra: Algebra, weight, budget: int | None = None,
                           workers: int = 1) -> list:
    """All matrices satisfying the weight-``weight`` relation on ``algebra``."""
    with _Chunks(workers) as chunks:
        return _rb_operators(algebra, weight, budget, chunks)


def _rb_operators(algebra: Algebra, weight, budget, chunks: _Chunks) -> list:
    if not algebra.field.is_finite:
        from .errors import FieldNotFiniteError
        raise FieldNotFiniteError("enumeration requires a prime field")
    n = algebra.dim
    total = algebra.field.p ** (n * n)
    _check_budget(total, budget)
    weight = algebra.field.coerce(weight)
    flats = chunks.run(_rb_chunk, (algebra, weight), total)
    return [RotaBaxterOperator(algebra, _matrix_from_flat(algebra.field, n, flat), weight)
            for flat in flats]


def enumerate_dendriform_di(dim: int, p: int, budget: int | None = None,
                            workers: int = 1) -> list:
    """All dendriform dialgebras on F_p^dim (pairs of tensors), lexicographic.

    Scans each associative star product's fibre ``{(prec, star - prec)}``.
    """
    with _Chunks(workers) as chunks:
        return _dendriform_di(dim, p, budget, chunks)


def _dendriform_di(dim: int, p: int, budget, chunks: _Chunks) -> list:
    size = p ** (dim ** 3)
    _check_budget(size, budget)
    stars = chunks.run(_assoc_chunk, (p, dim), size)
    total = len(stars) * size
    _check_budget(total, budget)
    flats = sorted(chunks.run(_fibre_chunk, (p, dim, stars), total))
    field = prime_field(p)
    cube = dim ** 3
    return [DendriformDi(_tensor_from_flat(field, dim, flat[:cube]),
                         _tensor_from_flat(field, dim, flat[cube:]))
            for flat in flats]


# -- the image experiment ---------------------------------------------------------------

@dataclass(frozen=True)
class PhiImageResult:
    """Rota-Baxter image vs all dendriform dialgebras on F_p^dim.

    ``witnesses`` pairs each image structure with one producing
    (algebra, operator matrix); ``missing`` lists the structures outside the
    image explicitly.  ``round_trip_failures`` collects dialgebras whose
    canonical-operator reconstruction failed (expected empty).
    """

    dim: int
    p: int
    label: str
    all_structures: tuple
    image: tuple
    missing: tuple
    witnesses: tuple
    image_subset_of_all: bool
    round_trip_failures: tuple

    @property
    def counts(self) -> dict:
        return {"all": len(self.all_structures),
                "image": len(self.image),
                "missing": len(self.missing)}


def _dd_sort_key(d: DendriformDi):
    return (d.prec.entries, d.succ.entries)


def phi_image_experiment(dim: int, p: int, budget: int | None = None,
                         workers: int = 1) -> PhiImageResult:
    """Compare the Rota-Baxter weight-zero image with all dendriform dialgebras."""
    first_witness: dict = {}
    with _Chunks(workers) as chunks:
        algebras = _associative_products(dim, p, budget, chunks)
        all_dd = _dendriform_di(dim, p, budget, chunks)
        for alg in algebras:
            for rb in _rb_operators(alg, alg.field.zero, budget, chunks):
                d = domain_dendriform_di(rb_as_module_operator(rb))
                if d not in first_witness:
                    first_witness[d] = (alg, rb.matrix)
    all_set = set(all_dd)
    image = sorted(first_witness, key=_dd_sort_key)
    missing = [d for d in all_dd if d not in first_witness]
    failures = []
    for d in all_dd:
        try:
            canonical_operator_from_di(d)  # verifies the round trip internally
        except InvalidDendriformError:
            failures.append(d)
    return PhiImageResult(
        dim=dim, p=p,
        label=ANALOGUE_LABEL.format(p=p),
        all_structures=tuple(all_dd),
        image=tuple(image),
        missing=tuple(missing),
        witnesses=tuple((d, first_witness[d][0], first_witness[d][1]) for d in image),
        image_subset_of_all=all(d in all_set for d in image),
        round_trip_failures=tuple(failures),
    )
