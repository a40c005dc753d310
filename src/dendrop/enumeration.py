"""Exhaustive classification over prime fields in low dimension.

Every enumeration here, and the walk over GL_n(F_p) (``gl_matrices`` and
``_gl_choices``, which ``equivalence`` imports), is one depth-first search
over partial assignments (``_search``): orderly generation in the sense of
Read 1978, with isomorph rejection through scalar orbits and the star
orbits of the dialgebras (both below).  Level ``t`` fixes one entry, trying
the values ``choices(t)`` in order; the choices may read the entries fixed
above.  Each instance of an identity is tested, with the arithmetic of the
validators' scans (``_combine``), at the first node where every entry it
reads is fixed.  A failing instance cuts its subtree, so every leaf
satisfies every instance, and results are built only for the leaves.  The
instances are the validators' own, read from the one walk of each identity
shape in ``structures`` (``_composition_instances``,
``_homomorphism_instances``); the searches only file them by level.  Two
instance families share the engine:

* Product tables (``_table_leaves``), filled one basis pair ``(u, v)`` per
  level, pairs and the vectors ``e_u e_v`` in lexicographic order.  A
  composition instance ``(x a y) b z = x c (y d z)`` reads ``x a y`` and
  ``y d z``, then ``m b z`` for each ``m`` in the support of ``x a y`` and
  ``x c m`` for each ``m`` in the support of ``y d z``: a zero coefficient
  reads no further entries, so sparse partial tables are tested early.
  The search takes a validator's tables, None for each free one, and its
  ``(sizes, rows)`` groups: ``_ASSOCIATIVITY`` on one free table, and for
  dialgebras ``_DENDRIFORM_DI`` on free ``prec`` and ``succ`` and the star
  table fixed in advance, ``succ = star - prec`` fixed with ``prec``.
  Free tables are n x n x n; non-square ones (the actions on a module of
  another dimension) are not searched yet.
* Linear maps F (``_column_leaves``), filled one column per level.  The
  rows are the validators' homomorphism rows (none for ``gl_matrices``):
  ``validate_rota_baxter``'s, whose ``o`` is the star the operator induces,
  and those of ``verify_dendriform_iso``.  An instance F(b_i o b_j) =
  F(b_i) o' F(b_j) is filed at level max(i, j), where ``b_i o b_j`` is
  first known, and waits there for the last column in its support.
  Rota-Baxter operators try every vector at each column (at weight 0, one
  per scalar orbit, below); ``gl_matrices`` the vectors outside the span of
  the columns above, and the isomorphism search those of them in the class
  of the basis vector the column replaces.  An instance with i, j < t whose
  ``b_i o b_j`` has its last nonzero coordinate at t determines column t:
  it is linear in column t with every other column it reads fixed.  Level t
  then tries only the vector it forces, if that is among its values.  Every
  other vector fails that instance, so the leaves and their order do not
  change (propagation, as in McKay and Piperno 2014).

Associativity and the weight-0 Rota-Baxter relation are homogeneous of
degree 2: for c in F_p^*, cT is associative iff T is, and cP is a weight-0
operator iff P is (``_assoc_part`` and ``enumerate_rb_operators`` prove
it; other weights scale with P, so their search takes every matrix).
These two searches take one leaf per scalar orbit, by one rule
(``_one_per_scalar``): while every vector fixed above is zero, a level
offers only zero and the vectors whose first nonzero coordinate is 1.
Each leaf found is emitted with its p - 1 multiples, the zero leaf once
(``_multiples``), and the results are sorted as before.  At (2, 3) the
product search assigns 713 vectors where the full one assigned 1,422.

Dendriform dialgebras are fibred over their associative star products
``x * y = x < y + x > y``: the dialgebra axioms make the star associative
(every dialgebra comes from the identity O-operator onto its star), so
searching every ``prec`` under each associative star, with ``succ = star -
prec``, reaches every dialgebra.  A dialgebra isomorphism is also an
isomorphism of the stars, so the fibre over g.A is g applied to the fibre
over A, where g.T is the table of (x, y) -> g T(g^-1 x, g^-1 y).  The stars
are therefore split into their GL_n(F_p) orbits first (``_star_orbits``,
one walk of GL), the fibre is searched over each orbit's least star only,
and each of its dialgebras is moved along g to every other star g.A of the
orbit (``_moved``, on ``linalg._transport``; only prec is moved, succ being
g.A - g.prec).  An invertible map keeps the axioms, so every moved
dialgebra keeps the verdict of the one searched.  The image experiment
uses the same orbits for its Rota-Baxter operators: g is an algebra
isomorphism A -> g.A, so the operators on g.A are g P g^-1, P those on A,
and only the representatives are searched (``_rb_operators_by_star``).
This is isomorph rejection at the star, fibre and image stages (McKay
1998): 28 stars in 8 orbits at (2, 2), 121 in 8 at (2, 3), 1,688 in 28 at
(3, 2).

Worker processes split the product search and the fibre stage: the first
pair's vectors, one per scalar orbit, and the orbit representatives.  A
public call starts at most one process pool (the image experiment's stages
share it), capped at the CPUs the process may run on and the number of
first-level choices.  Parts are merged in order and results sorted
lexicographically by their flattened entries, so parallel and serial runs
produce identical lists.  Rota-Baxter searches run in-process, one per star
orbit: each searches one algebra's ``p^(n^2)`` matrices, too small a space
for a pool to pay for its start.

The dimension, the field and the budget are checked before any search, the
budget on the sizes of the complete candidate spaces: ``p^(n^3)`` products
for the star stage, ``p^(n^2)`` operator matrices, and ``#stars *
p^(n^3)`` (prec, succ) pairs for the fibre stage, checked before GL is
walked.  A space above it raises instead of truncating.  Dimension 0 has
one structure of each kind.

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

from .constructions import canonical_operator_from_di
from .errors import (BudgetExceededError, FieldNotFiniteError, InvalidDendriformError,
                     _expect)
from .fields import FieldSpec, prime_field
from .linalg import Matrix, StructureTensor, _check_size, _combine, _transport, invert
from .operators import RotaBaxterOperator, _o_relation_row
from .structures import (_ASSOCIATIVITY, _DENDRIFORM_DI, Algebra, DendriformDi, _transpose,
                         _composition_instances, _homomorphism_instances, _keep, _moved_actions)

DEFAULT_BUDGET = 1 << 24

ANALOGUE_LABEL = ("finite-field analogue over F_{p}; says nothing about "
                  "the corresponding statement in characteristic zero")


def _check_budget(p: int, exponent: int, budget: int | None, factor: int = 1) -> None:
    """Refuse ``factor * p**exponent`` candidates above the budget.

    A budget that is neither None nor an int >= 1 is refused first
    (``ArgumentError``).  With ``p >= 2`` and ``factor >= 1``, a cap of at
    most ``exponent`` bits is below the count, which is then refused
    without computing the power.
    """
    cap = DEFAULT_BUDGET if budget is None else budget
    _check_size(cap, "budget", 1)
    if exponent >= cap.bit_length() or factor * p ** exponent > cap:
        count = f"{p}^{exponent}" if factor == 1 else f"{factor} * {p}^{exponent}"
        raise BudgetExceededError(f"{count} candidates exceed budget {cap}")


# -- the search ------------------------------------------------------------------------

def _search(choices, slots, checks, later, holds, leaf):
    """Leaves of a depth-first search over partial assignments, in choice order.

    Level ``t`` writes each value tuple of ``choices(t, waiting)``, which
    may read the values fixed above it, into the ``(container, key)`` pairs
    ``slots[t]``; ``waiting`` lists the instances whose last read is at
    level ``t`` given those values.  ``checks[t]`` lists the instances filed
    at level ``t``; ``later(inst)`` is the level at which the last entry the
    instance reads, given the values fixed so far, is fixed, and the
    instance is tested by ``holds(inst)`` at that level.  ``leaf()`` copies
    a complete assignment (with no levels, the empty one); leaves are
    yielded as they are reached.
    """
    depth = len(slots)
    pending = [[] for _ in slots]

    def descend(t):
        if t == depth:
            yield leaf()
            return
        level, check, waiting = slots[t], checks[t], pending[t]
        for values in choices(t, waiting):
            for (container, key), value in zip(level, values):
                container[key] = value
            deferred = []
            for inst in check:
                at = later(inst)
                if at > t:
                    pending[at].append(inst)
                    deferred.append(at)
                elif not holds(inst):
                    break
            else:
                if all(map(holds, waiting)):
                    yield from descend(t + 1)
            for at in deferred:
                pending[at].pop()

    return descend(0)


def _table_leaves(p: int, n: int, tables, groups, choices):
    """The free product tables, filled by basis pair, on which the instances of ``groups`` hold.

    ``tables`` and ``groups`` are a validator's own (``structures``), with
    None for each free table; the instances are those its scan runs
    (``_composition_instances``), positions and index sizes included.  A
    free table is n x n x n, filled one basis pair (u, v) per level:
    ``choices(u * n + v, above)`` lists its values, one vector per free
    table in table order, where ``above`` iterates over the vectors fixed
    at the levels before it.  A leaf is the tuple of the free nested tables.
    """
    free = [r for r, t in enumerate(tables) if t is None]
    level = [[[u * n + v for v in range(n)] for u in range(n)] if t is None
             else [[-1] * len(plane) for plane in t] for t in tables]
    # entries not yet fixed hold zero vectors, which ``_combine`` reads only for their length
    tables = [[[(0,) * n] * n for _ in range(n)] if t is None else t for t in tables]
    checks = [[] for _ in range(n * n)]
    for _, _, _, a, b, c, d, x, y, z in _composition_instances(groups):
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

    def above(t):
        return (tables[r][k // n][k % n] for k in range(t) for r in free)

    slots = [tuple((tables[r][u], v) for r in free) for u, v in product(range(n), repeat=2)]
    return _search(lambda t, waiting: choices(t, above(t)), slots, checks, later, holds,
                   lambda: tuple(tuple(map(tuple, tables[r])) for r in free))


def _column_leaves(p: int, cols: list, rows, choices):
    """The linear maps F, filled one column of ``cols`` per level, on which ``rows`` hold.

    ``rows`` are the rows of ``structures._homomorphism_failures``, with
    ``cols`` as their ``fcols``, and the instances are those its scan runs
    (``_homomorphism_instances``): F(b_i o b_j) = F(b_i) o' F(b_j) per
    basis pair, its ``source_row(i, j)`` being the coordinates s of
    ``b_i o b_j``.  A source row reads the columns i and j
    at most (a table none, an induced star both), so every instance is
    filed at level max(i, j), where s is first known, and ``later`` defers
    it from there to the last column in the support of s.

    ``choices(t, among)`` gives, in order, the values of column t among the
    value tuples ``among``.  An instance with i, j < t whose s has its last
    nonzero coordinate s_t at t determines column t: with every other
    column it reads fixed, it holds only for c_t = s_t^-1 (c_i o' c_j -
    sum_{m<t} s_m c_m).  These are the instances of ``waiting`` at level t
    with i, j < t.  Level t then offers the vector the first of them
    forces, and every vector of F_p^n when there is none.  The other
    vectors fail that instance, so the leaves and their order are those of
    offering every vector; ``holds`` still tests each instance, the
    determining one included.  A leaf is the tuple of columns.
    """
    n = len(cols)
    last = n - 1
    vectors = [(v,) for v in product(range(p), repeat=n)]

    def later(inst):
        source, _, i, j = inst
        at = i if i > j else j
        if at < last:
            coords = source(i, j)
            for m in range(last, at, -1):
                if coords[m]:
                    return m
        return at

    def image(inst):
        _, target, i, j = inst
        return _combine([a * b if a and b else 0 for a in cols[i] for b in cols[j]],
                        target, p, 0)

    def holds(inst):
        source, _, i, j = inst
        return _combine(source(i, j), cols, p, 0) == image(inst)

    def narrowed(t, waiting):
        for inst in waiting:
            source, _, i, j = inst
            if i < t and j < t:
                coords = source(i, j)
                inverse = pow(coords[t], -1, p)
                fixed_part = _combine(coords[:t], cols, p, 0)
                return choices(t, [(tuple((a - b) * inverse % p
                                          for a, b in zip(image(inst), fixed_part)),)])
        return choices(t, vectors)

    checks = [[] for _ in cols]
    for _, _, source, flat, _, i, j in _homomorphism_instances(rows):
        checks[max(i, j)].append((source, flat, i, j))
    return _search(narrowed, [((cols, t),) for t in range(n)], checks, later, holds,
                   lambda: tuple(cols))


# -- scalar orbits -----------------------------------------------------------------------

def _one_per_scalar(values, above):
    """Level values of a search for a homogeneous identity, one per scalar orbit of its leaves.

    ``values`` are value tuples led by a vector, ``above`` the vectors
    fixed at the levels before.  While every one of those is zero, only the
    zero vector and the vectors whose first nonzero coordinate is 1 are
    kept.  So the leaves are the zero one, if it is a leaf, and those whose
    first nonzero entry, in level order, is 1: one per orbit of F_p^*
    acting by scalars, each nonzero orbit having p - 1 members.
    """
    if any(map(any, above)):
        return values
    return [v for v in values if next(filter(None, v[0]), 1) == 1]


def _times(c: int, entries: tuple, p: int) -> tuple:
    """c times a nested tuple of F_p entries."""
    return tuple(_times(c, a, p) if type(a) is tuple else c * a % p for a in entries)


def _multiples(p: int, leaves) -> set:
    """The leaves of a ``_one_per_scalar`` search with their multiples c L, c = 2 .. p-1.

    c 0 = 0 for every c, so the set holds the zero leaf once.
    """
    leaves = set(leaves)
    return leaves.union(*({_times(c, leaf, p) for leaf in leaves} for c in range(2, p)))


# -- the general linear group ---------------------------------------------------------

def _span_with(span: set, v: tuple, p: int) -> set:
    """The span of ``span`` and ``v``, as a set of coordinate tuples."""
    return {tuple((a + c * b) % p for a, b in zip(w, v)) for w in span for c in range(p)}


def _gl_choices(p: int, cols: list):
    """Level t of the GL walk: the vectors of ``among`` outside the span of ``cols[:t]``.

    A matrix is invertible exactly when each of its vectors lies outside
    the span of those before it.
    """
    n = len(cols)
    spans = [{(0,) * n}] * (n + 1)

    def choices(t, among):
        if t:
            spans[t] = _span_with(spans[t - 1], cols[t - 1], p)
        span = spans[t]
        return [v for v in among if v[0] not in span]

    return choices


def gl_matrices(field, n: int):
    """All invertible n x n matrices over a prime field, lazily.

    Lexicographic on the row-major entry tuple (entries 0..p-1), singular
    candidates skipped; the order is the search order, so "first witness"
    is well defined.
    """
    _expect(field, FieldSpec)
    if not field.is_finite:
        raise FieldNotFiniteError("matrix enumeration requires a prime field")
    _check_size(n)
    rows = [(0,) * n] * n
    # each leaf is n vectors of range(p)^n: an n x n matrix over the field
    return (Matrix._of(field, leaf)
            for leaf in _column_leaves(field.p, rows, (), _gl_choices(field.p, rows)))


def _moved(field, table, g, inverse):
    """T moved along g: the table of (x, y) -> g T(g^-1 x, g^-1 y).

    g and its inverse are given by their columns, None for the identity.
    """
    return _transport(field, table, inverse, inverse, g)


def _star_orbits(field, n: int, stars: list) -> list:
    """The GL_n(F_p) orbits of the tables ``stars``, each a list of (j, g, g^-1).

    Each orbit starts with its least star r, as (r, None, None); every other
    entry names a star j of the orbit and the first g the GL walk reaches
    with ``stars[j] = _moved(stars[r], g, g^-1)``.  GL is walked once, by
    ``gl_matrices``.  ``stars`` holds every associative table, a set that
    moving along any g maps onto itself, so every image is a star.
    """
    # the rows of each matrix are the columns of g: it is g^T, and its inverse (g^-1)^T
    # has the columns of g^-1 as rows
    gl = [(g.entries, invert(g).entries) for g in gl_matrices(field, n)]
    index = {star: j for j, star in enumerate(stars)}
    orbits, seen = [], set()
    for r, star in enumerate(stars):
        if r not in seen:
            orbit = {r: (None, None)}
            for g, inverse in gl:
                orbit.setdefault(index[_moved(field, star, g, inverse)], (g, inverse))
            seen.update(orbit)
            orbits.append([(j, g, inverse) for j, (g, inverse) in orbit.items()])
    return orbits


# -- search parts (top level so worker processes can unpickle them) ---------------------

def _assoc_part(args):
    """Associative tables, sorted, whose first pair takes ``_one_per_scalar`` vector
    start .. stop - 1, or a multiple of it.

    Associativity is homogeneous of degree 2.  With x . y = c T(x, y) and
    c in F_p^*, (x . y) . z - x . (y . z) = c^2 (T(T(x, y), z) - T(x, T(y,
    z))), which is zero exactly when the bracket is.  So cT is associative
    iff T is: the search takes one table per scalar orbit, and each leaf
    found stands for its multiples, which keep its proved verdict.
    """
    p, n, start, stop = args
    vectors = [(v,) for v in product(range(p), repeat=n)]
    first = _one_per_scalar(vectors, ())[start:stop]

    def choices(t, above):
        return first if t == 0 else _one_per_scalar(vectors, above)

    groups = (((n, n, n), _ASSOCIATIVITY),)
    return sorted(_multiples(p, (tables[0] for tables in
                                 _table_leaves(p, n, (None,), groups, choices))))


def _fibre_part(args):
    """The (prec, succ) table pairs over each star of ``stars[start:stop]``, one list per star."""
    p, n, stars, start, stop = args
    vectors = list(product(range(p), repeat=n))
    groups = (((n, n, n), _DENDRIFORM_DI),)
    fibres = []
    for star in stars[start:stop]:
        pairs = [[(a, tuple((s - c) % p for s, c in zip(star[u][v], a))) for a in vectors]
                 for u in range(n) for v in range(n)]
        fibres.append(list(_table_leaves(p, n, (None, None, star), groups,
                                         lambda t, above: pairs[t])))
    return fibres


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the system has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(requested: int, total: int) -> int:
    """Processes to start: at least one, at most the CPUs and the first-level choices."""
    return max(1, min(requested, _cpu_count(), total))


class _Chunks:
    """Search runner of one public call: starts at most one process pool, when first needed.

    ``run(part, fixed_args, total)`` calls ``part(fixed_args + (start, stop))``
    on consecutive ranges of the ``total`` first-level choices and joins the
    leaves in range order.  A worker count that is not an int >= 1 is
    refused (``ArgumentError``), before any search.
    """

    def __init__(self, workers: int):
        _check_size(workers, "workers", 1)
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
            self.pool = ProcessPoolExecutor(max_workers=min(self.workers, _cpu_count()))
        bounds = [total * k // workers for k in range(workers + 1)]
        jobs = [fixed_args + (bounds[k], bounds[k + 1]) for k in range(workers)]
        parts = list(self.pool.map(part_fn, jobs))
        return [leaf for part in parts for leaf in part]


# -- public enumerations ---------------------------------------------------------------

def enumerate_associative_products(dim: int, p: int, budget: int | None = None,
                                   workers: int = 1) -> list:
    """All associative structure tensors on F_p^dim, in lexicographic order."""
    _check_size(dim)
    field = prime_field(p)
    with _Chunks(workers) as chunks:
        tables = _associative_tables(dim, p, budget, chunks)
    return _algebras(field, tables)


def _algebras(field, tables: list) -> list:
    """The algebras of the associative tables the search found.

    Every leaf passed every instance of associativity: each verdict is known.
    """
    # each leaf is an n x n x n table of vectors of range(p)^n, or a multiple of one mod p
    return [_keep(Algebra(StructureTensor._of(field, table)), True) for table in tables]


def _associative_tables(dim: int, p: int, budget, chunks: _Chunks) -> list:
    _check_budget(p, dim ** 3, budget)
    # the first pair's vectors, one per scalar orbit: zero and (p^dim - 1) / (p - 1) lines
    return sorted(chunks.run(_assoc_part, (p, dim), 1 + (p ** dim - 1) // (p - 1)))


def enumerate_rb_operators(algebra: Algebra, weight, budget: int | None = None) -> list:
    """All matrices satisfying the weight-``weight`` relation on ``algebra``, row-major sorted.

    The relation is P(x * y) = P(x) P(y), * the star P induces:
    P(x) P(y) = P(P(x) y + x P(y) + weight x y).  For c in F_p^*, cP gives
    c^2 P(x) P(y) on the left and c^2 P(P(x) y + x P(y)) + c weight P(x y)
    on the right, so cP has weight c * weight.  At weight 0 both sides are
    homogeneous of degree 2, and cP is an operator iff P is: the search
    takes one matrix per scalar orbit (``_one_per_scalar``, columns in
    order) and each leaf stands for its multiples.  Any other weight
    searches every matrix.
    """
    _expect(algebra, Algebra)
    field = algebra.field
    if not field.is_finite:
        raise FieldNotFiniteError("enumeration requires a prime field")
    n, p = algebra.dim, field.p
    _check_budget(p, n * n, budget)
    weight = field.coerce(weight)
    table = algebra.product.entries
    cols = [(0,) * n] * n
    row = _o_relation_row(field, "rb", table, cols, table, table, weight, table)
    if weight:
        leaves = _column_leaves(p, cols, [row], lambda t, among: among)
    else:
        leaves = _multiples(p, _column_leaves(
            p, cols, [row], lambda t, among: _one_per_scalar(among, cols[:t])))
    # every leaf passed every instance of the relation, or is a multiple of one that did at
    # weight 0: its verdict is known.  Its n columns are vectors of range(p)^n, forced vectors
    # reduced mod p or their multiples mod p: an n x n matrix over the field
    return [_keep(RotaBaxterOperator(algebra, Matrix._of(field, rows), weight), True)
            for rows in sorted(tuple(zip(*c)) for c in leaves)]


def enumerate_dendriform_di(dim: int, p: int, budget: int | None = None,
                            workers: int = 1) -> list:
    """All dendriform dialgebras on F_p^dim (pairs of tensors), lexicographic.

    Searches each associative star product's fibre ``{(prec, star - prec)}``.
    """
    _check_size(dim)
    field = prime_field(p)
    with _Chunks(workers) as chunks:
        return _dendriform_di(field, dim, chunks, *_star_stage(field, dim, budget, chunks))


def _star_stage(field, dim: int, budget, chunks: _Chunks) -> tuple:
    """The algebras of the associative tables, and the tables' GL orbits (``_star_orbits``).

    The fibre stage's budget is checked before GL is walked.
    """
    stars = _associative_tables(dim, field.p, budget, chunks)
    _check_budget(field.p, dim ** 3, budget, len(stars))
    return _algebras(field, stars), _star_orbits(field, dim, stars)


def _dendriform_di(field, dim: int, chunks: _Chunks, algebras: list, orbits: list) -> list:
    """The dialgebras whose star products are the associative ``algebras``.

    One fibre is searched per orbit of ``orbits``, the GL orbits of the
    stars, and moved to every other star of the orbit by the map that
    carries the representative there.  Each dialgebra keeps the algebra of
    its star as derived data, which ``structures.star_product`` returns.
    """
    p = field.p
    stars = [alg.product.entries for alg in algebras]
    fibres = chunks.run(_fibre_part, (p, dim, [stars[orbit[0][0]] for orbit in orbits]),
                        len(orbits))
    # Only prec is moved.  Moving a table is linear in it: g.(S - T)(x, y) =
    # g (S - T)(g^-1 x, g^-1 y) = g.S(x, y) - g.T(x, y).  So the moved succ,
    # g.(A - prec) with A the representative's star, is g.A - g.prec = stars[j] - g.prec.
    leaves = []
    for orbit, fibre in zip(orbits, fibres):
        for j, g, inverse in orbit:
            star = stars[j]
            for prec, _ in fibre:
                prec = _moved(field, prec, g, inverse)
                leaves.append((prec, tuple(tuple(tuple((s - c) % p for s, c in zip(a, b))
                                                 for a, b in zip(*planes))
                                           for planes in zip(star, prec)), j))
    found = []
    for prec, succ, j in sorted(leaves):
        # prec is a leaf of range(p)^n vectors or _moved output, succ the entries of
        # stars[j] - prec mod p: both n x n x n tables over F_p.  Every leaf passed every
        # instance of the dialgebra axioms, or is the image of one that did under an
        # invertible map, which is a dialgebra isomorphism: each verdict is known
        d = _keep(DendriformDi(StructureTensor._of(field, prec), StructureTensor._of(field, succ)),
                  True)
        # succ = stars[j] - prec mod p, so prec + succ = stars[j]: algebras[j] is the star
        vars(d)["_star"] = algebras[j]
        found.append(d)
    return found


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


def _rb_operators_by_star(field, algebras: list, orbits: list, budget) -> list:
    """The weight-zero Rota-Baxter matrices on each algebra, as sorted row tuples.

    ``enumerate_rb_operators`` searches each orbit's representative A only.
    A star j = g.A of the orbit takes the operators g P g^-1, P those of A,
    sorted into the search's row-major order.  They are all of its
    operators: g is an algebra isomorphism A -> g.A, g(x y) = g(x) g(y),
    since g.A(g x, g y) = g A(x, y).  So if P(x) P(y) = P(P(x) y + x P(y))
    on A, then Q = g P g^-1 at u = g x, v = g y gives Q(u) Q(v) =
    g(P(x) P(y)) = g P(P(x) y + x P(y)) = Q(g(P(x) y) + g(x P(y))) =
    Q(Q(u) v + u Q(v)) on g.A; and g^-1 is an isomorphism g.A -> A that
    moves Q back to P.  Conjugation by g is a bijection between the two
    weight-zero Rota-Baxter sets.
    """
    p = field.p
    found = [None] * len(algebras)
    for orbit in orbits:
        r = orbit[0][0]
        found[r] = [rb.matrix.entries
                    for rb in enumerate_rb_operators(algebras[r], field.zero, budget)]
        cols = [_transpose(rows) for rows in found[r]]
        # column t of g P g^-1 is g(P(g^-1 e_t)); g and g^-1 are given by their columns
        for j, g, inverse in orbit[1:]:
            found[j] = sorted(_transpose(_combine(_combine(v, c, p, 0), g, p, 0)
                                         for v in inverse) for c in cols)
    return found


def phi_image_experiment(dim: int, p: int, budget: int | None = None,
                         workers: int = 1) -> PhiImageResult:
    """Compare the Rota-Baxter weight-zero image with all dendriform dialgebras.

    The witness of each image structure is the first (algebra, operator)
    that produces it: algebras in the order of
    ``enumerate_associative_products``, and each algebra's operators in
    that of ``enumerate_rb_operators``, row-major on the matrix entries.
    """
    _check_size(dim)
    field = prime_field(p)
    with _Chunks(workers) as chunks:
        algebras, orbits = _star_stage(field, dim, budget, chunks)
        all_dd = _dendriform_di(field, dim, chunks, algebras, orbits)
    operators = _rb_operators_by_star(field, algebras, orbits, budget)
    # each image is the domain dialgebra of the operator on the canonical
    # bimodule, whose actions are both the star's table, moved along (P, None, None)
    first_witness: dict = {}
    for j, (alg, ops) in enumerate(zip(algebras, operators)):
        star = alg.product.entries
        for rows in ops:
            succ, prec = _moved_actions(field, star, star, _transpose(rows), None, None)
            first_witness.setdefault((prec, succ), (j, rows))
    by_tables = {(d.prec.entries, d.succ.entries): d for d in all_dd}
    image, witnesses = [], []
    for tables in sorted(first_witness):
        d = by_tables.get(tables)
        if d is None:  # outside the enumeration: ``image_subset_of_all`` is false
            d = DendriformDi(*(StructureTensor(field, t) for t in tables))
        j, rows = first_witness[tables]
        image.append(d)
        # rows: a searched operator's entries, or g P g^-1 as transposed _combine columns mod p
        witnesses.append((d, algebras[j], Matrix._of(field, rows)))
    missing = [d for d in all_dd if (d.prec.entries, d.succ.entries) not in first_witness]
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
        witnesses=tuple(witnesses),
        image_subset_of_all=all(tables in by_tables for tables in first_witness),
        round_trip_failures=tuple(failures),
    )
