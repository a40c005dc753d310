"""Exhaustive classification over prime fields in low dimension.

Every enumeration is one depth-first search over partial tables
(``_search``): orderly generation in the sense of Read 1978, without
isomorph rejection.  A product table is filled one basis pair at a time:
the search fixes the whole vector ``e_u e_v`` for one pair ``(u, v)`` per
level, pairs in lexicographic order, each trying the ``p^n`` vectors in
lexicographic order.  A Rota-Baxter operator is filled one column at a
time in the same loop.

Each instance of each identity row is tested at the first node where every
entry it reads is fixed, with the arithmetic of the validators' scans
(``_combine``).  A composition instance ``(x a y) b z = x c (y d z)`` reads
``x a y`` and ``y d z``, then ``m b z`` for each ``m`` in the support of
``x a y`` and ``x c m`` for each ``m`` in the support of ``y d z``: a zero
coefficient reads no further entries, so sparse partial tables are tested
early.  The rows are the validators' own: ``_ASSOCIATIVITY``, and for
dialgebras ``_DENDRIFORM_DI``, whose star table is fixed in advance and
whose ``succ = star - prec`` is fixed with ``prec``.  A Rota-Baxter
instance is a basis pair (i, j) of the homomorphism row out of the
induced star (``operators._induced``): it
reads the columns i and j, then the columns in the support of the star of
``b_i`` and ``b_j``.  A failing instance cuts its subtree, so every
complete table the search reaches satisfies every instance.  Algebras,
operators and dialgebras are built only for these leaves.

Dendriform dialgebras are fibred over their associative star products
``x * y = x < y + x > y``: the dialgebra axioms make the star associative
(every dialgebra comes from the identity O-operator onto its star), so
searching every ``prec`` under each associative star, with ``succ = star -
prec``, reaches every dialgebra.

Worker processes split the product search and the fibre stage: the
vectors of the first pair, and the star products.  A public call starts at
most one process pool (the image experiment's stages share it), capped at
the CPU count and the number of first-level choices.  Parts are merged in
order and results sorted lexicographically by their flattened entries, so
parallel and serial runs produce identical lists.  Rota-Baxter searches run
in-process: each searches one algebra's ``p^(n^2)`` matrices, too small a
space for a pool to pay for its start.

The budget is checked before any search, on the sizes of the complete
candidate spaces: ``p^(n^3)`` products for the star stage, ``p^(n^2)``
operator matrices, and ``#stars * p^(n^3)`` (prec, succ) pairs for the
fibre stage.  A space above it raises instead of truncating.

The image experiment compares the dendriform dialgebras reachable from
Rota-Baxter operators with the full enumeration.  This is a finite-field
analogue of a statement over the complex numbers; results are labeled as
such and neither confirm nor refute the original claim.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

from .constructions import canonical_operator_from_di, domain_dendriform_di
from .errors import BudgetExceededError, InvalidDendriformError
from .fields import prime_field
from .linalg import Matrix, StructureTensor, _combine
from .operators import RotaBaxterOperator, _induced, rb_as_module_operator
from .structures import _ASSOCIATIVITY, _DENDRIFORM_DI, Algebra, DendriformDi

DEFAULT_BUDGET = 1 << 24

ANALOGUE_LABEL = ("finite-field analogue over F_{p}; says nothing about "
                  "the corresponding statement in characteristic zero")


def _check_budget(total: int, budget: int | None) -> int:
    cap = DEFAULT_BUDGET if budget is None else budget
    if total > cap:
        raise BudgetExceededError(f"{total} candidates exceed budget {cap}")
    return cap


# -- the search ------------------------------------------------------------------------

def _search(choices, slots, checks, later, holds, leaf) -> list:
    """Leaves of a depth-first search over partial tables, in choice order.

    Level ``t`` writes each value tuple of ``choices[t]`` into the
    ``(container, key)`` pairs ``slots[t]``.  ``checks[t]`` lists the
    instances whose first reads are all fixed at level ``t``; ``later(inst)``
    is the level at which the last entry the instance reads, given the
    values fixed so far, is fixed, and the instance is tested by
    ``holds(inst)`` at that level.  ``leaf()`` copies a complete assignment.
    """
    last = len(choices) - 1
    pending = [[] for _ in choices]
    leaves = []

    def descend(t):
        for values in choices[t]:
            for (container, key), value in zip(slots[t], values):
                container[key] = value
            deferred = []
            for inst in checks[t]:
                at = later(inst)
                if at > t:
                    pending[at].append(inst)
                    deferred.append(at)
                elif not holds(inst):
                    break
            else:
                if all(map(holds, pending[t])):
                    if t == last:
                        leaves.append(leaf())
                    else:
                        descend(t + 1)
            for at in deferred:
                pending[at].pop()

    descend(0)
    return leaves


def _table_leaves(p: int, n: int, rows, choices, free: int, fixed=()) -> list:
    """The ``free`` product tables, filled by basis pair, on which ``rows`` hold.

    ``choices[u * n + v]`` lists the values of pair (u, v), one vector per
    free table; the complete tables ``fixed`` follow the free ones in the
    rows' table indices.  A leaf is the tuple of the free nested tables.
    """
    pairs = list(product(range(n), repeat=2))
    # entries not yet fixed hold zero vectors, which ``_combine`` reads only for their length
    tables = [[[(0,) * n] * n for _ in range(n)] for _ in range(free)] + list(fixed)
    level = ([[[u * n + v for v in range(n)] for u in range(n)]] * free
             + [[[-1] * n] * n] * len(fixed))
    checks = [[] for _ in pairs]
    for _, _, _, a, b, c, d in rows:
        for x, y, z in product(range(n), repeat=3):
            first = max(level[a][x][y], level[d][y][z])
            checks[first].append((first, a, b, c, d, x, y, z))

    def later(inst):
        at, a, b, c, d, x, y, z = inst
        lb, lc = level[b], level[c][x]
        for m, coef in enumerate(tables[a][x][y]):
            if coef and lb[m][z] > at:
                at = lb[m][z]
        for m, coef in enumerate(tables[d][y][z]):
            if coef and lc[m] > at:
                at = lc[m]
        return at

    def holds(inst):
        _, a, b, c, d, x, y, z = inst
        return (_combine(tables[a][x][y], tables[b], p, 0, z)
                == _combine(tables[d][y][z], tables[c][x], p, 0))

    slots = [tuple((tables[r][u], v) for r in range(free)) for u, v in pairs]
    return _search(choices, slots, checks, later, holds,
                   lambda: tuple(tuple(map(tuple, tables[r])) for r in range(free)))


def _rb_part(p: int, table, weight) -> list:
    """Rota-Baxter operators of weight ``weight`` on ``table``, as column tuples."""
    n = len(table)
    cols = [(0,) * n] * n
    star = _induced(prime_field(p), cols, table, table, weight, table)[2]
    target = sum(table, ())
    checks = [[] for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        checks[max(i, j)].append((i, j))

    def later(inst):
        at = max(inst)
        for m, coef in enumerate(star(*inst)):
            if coef and m > at:
                at = m
        return at

    def holds(inst):
        i, j = inst
        return (_combine(star(i, j), cols, p, 0)
                == _combine([a * b if a and b else 0 for a in cols[i] for b in cols[j]],
                            target, p, 0))

    choices = [[(v,) for v in product(range(p), repeat=n)]] * n
    slots = [((cols, j),) for j in range(n)]
    return _search(choices, slots, checks, later, holds, lambda: tuple(cols))


# -- search parts (top level so worker processes can unpickle them) ---------------------

def _assoc_part(args):
    """Associative tables whose first pair takes vector number start .. stop - 1 of ``F_p^n``."""
    p, n, start, stop = args
    vectors = [(v,) for v in product(range(p), repeat=n)]
    choices = [vectors[start:stop]] + [vectors] * (n * n - 1)
    return [tables[0] for tables in _table_leaves(p, n, _ASSOCIATIVITY, choices, 1)]


def _fibre_part(args):
    """(prec, succ) table pairs with ``prec + succ`` one of ``stars[start:stop]``."""
    p, n, stars, start, stop = args
    vectors = list(product(range(p), repeat=n))
    leaves = []
    for star in stars[start:stop]:
        choices = [[(a, tuple((s - c) % p for s, c in zip(star[u][v], a))) for a in vectors]
                   for u in range(n) for v in range(n)]
        leaves += _table_leaves(p, n, _DENDRIFORM_DI, choices, 2, (star,))
    return leaves


def _worker_count(requested: int, total: int) -> int:
    """Processes to start: at least one, at most the CPUs and the first-level choices."""
    return max(1, min(requested, os.cpu_count() or 1, total))


class _Chunks:
    """Search runner of one public call: starts at most one process pool, when first needed.

    ``run(part, fixed_args, total)`` calls ``part(fixed_args + (start, stop))``
    on consecutive ranges of the ``total`` first-level choices and joins the
    leaves in range order.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()

    def run(self, part_fn, fixed_args, total: int):
        workers = _worker_count(self.workers, total)
        if workers == 1:
            return part_fn(fixed_args + (0, total))
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=min(self.workers, os.cpu_count() or 1))
        bounds = [total * k // workers for k in range(workers + 1)]
        jobs = [fixed_args + (bounds[k], bounds[k + 1]) for k in range(workers)]
        parts = list(self.pool.map(part_fn, jobs))
        return [leaf for part in parts for leaf in part]


# -- public enumerations ---------------------------------------------------------------

def enumerate_associative_products(dim: int, p: int, budget: int | None = None,
                                   workers: int = 1) -> list:
    """All associative structure tensors on F_p^dim, in lexicographic order."""
    with _Chunks(workers) as chunks:
        tables = _associative_tables(dim, p, budget, chunks)
    return [Algebra(StructureTensor(prime_field(p), table)) for table in tables]


def _associative_tables(dim: int, p: int, budget, chunks: _Chunks) -> list:
    _check_budget(p ** (dim ** 3), budget)
    return chunks.run(_assoc_part, (p, dim), p ** dim)


def enumerate_rb_operators(algebra: Algebra, weight, budget: int | None = None) -> list:
    """All matrices satisfying the weight-``weight`` relation on ``algebra``."""
    field = algebra.field
    if not field.is_finite:
        from .errors import FieldNotFiniteError
        raise FieldNotFiniteError("enumeration requires a prime field")
    n = algebra.dim
    _check_budget(field.p ** (n * n), budget)
    weight = field.coerce(weight)
    cols = _rb_part(field.p, algebra.product.entries, weight)
    return [RotaBaxterOperator(algebra, Matrix(field, rows), weight)
            for rows in sorted(tuple(zip(*c)) for c in cols)]


def enumerate_dendriform_di(dim: int, p: int, budget: int | None = None,
                            workers: int = 1) -> list:
    """All dendriform dialgebras on F_p^dim (pairs of tensors), lexicographic.

    Searches each associative star product's fibre ``{(prec, star - prec)}``.
    """
    with _Chunks(workers) as chunks:
        return _dendriform_di(dim, p, budget, chunks, _associative_tables(dim, p, budget, chunks))


def _dendriform_di(dim: int, p: int, budget, chunks: _Chunks, stars: list) -> list:
    """The dialgebras whose star products are the associative tables ``stars``."""
    _check_budget(len(stars) * p ** (dim ** 3), budget)
    field = prime_field(p)
    return [DendriformDi(StructureTensor(field, prec), StructureTensor(field, succ))
            for prec, succ in sorted(chunks.run(_fibre_part, (p, dim, stars), len(stars)))]


# -- the image experiment ---------------------------------------------------------------

@dataclass(frozen=True)
class PhiImageResult:
    """Rota-Baxter image vs all dendriform dialgebras on F_p^dim.

    ``witnesses`` pairs each image structure with one producing
    (algebra, operator matrix); ``missing`` lists the structures outside the
    image explicitly.  ``round_trip_failures`` pairs each dialgebra whose
    canonical-operator reconstruction failed with the error message that
    says why (expected empty).
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
    field = prime_field(p)
    with _Chunks(workers) as chunks:
        stars = _associative_tables(dim, p, budget, chunks)
        all_dd = _dendriform_di(dim, p, budget, chunks, stars)
    for table in stars:
        alg = Algebra(StructureTensor(field, table))
        for rb in enumerate_rb_operators(alg, field.zero, budget):
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
        except InvalidDendriformError as e:
            failures.append((d, str(e)))
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
