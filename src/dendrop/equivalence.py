"""Witness-based isomorphism and equivalence checks, plus exhaustive search.

Two dendriform structures on the same space are isomorphic when a linear
bijection intertwines each product.  Two invertible operators into the same
algebra are isomorphic when a domain isomorphism g identifies them
(alpha1 = alpha2 g) and equivalent when additionally a range automorphism f
is allowed (f alpha1 = alpha2 g, with the actions of the first domain
twisted through f^{-1}).

Over a prime field, dendriform isomorphism in small dimension is decided by
the column search of ``enumeration._column_leaves``.  Column t of F is
taken, in lexicographic order, from the vectors outside the span of the
columns before it, which gives every invertible matrix without a rank
computation.  That walk (``_gl_choices``, with ``_span_with``) lives in
``enumeration``, beside ``gl_matrices``, the same walk with no instances,
its columns read as rows, which the star-orbit stage iterates and this
module re-exports.  The instances are F(b_i p1 b_j) = F(b_i) p2 F(b_j) for
each product p, the very rows ``verify_dendriform_iso`` scans
(``_iso_rows``), so every complete matrix the walk reaches is an
isomorphism, and it reaches all of them.

The walk is refined by vertex invariants (McKay and Piperno 2014): column
t is drawn only from the vectors w whose class in the second structure
(for each product, whether ``w o w`` is zero and whether it is parallel
to w; ``DendriformDi._vector_classes``) equals the class of ``b_t`` in the
first.  An isomorphism preserves the classes, so this removes only
non-isomorphisms and leaves the set of leaves unchanged.  Where an
instance fixes column t from the columns before it (b_i p1 b_j, with i,
j < t, has its last nonzero coordinate at t), the walk offers only the
vector it forces, if that vector is among those drawn (propagation, the
other half of individualisation and refinement).  The classes also refuse
a pair before the walk: an isomorphism is a bijection of F_p^n that keeps
each class, so two structures whose multisets of classes differ are not
isomorphic.

The witness is the least isomorphism in row-major lexicographic order,
the first one a scan of ``gl_matrices`` would meet.  ``candidates_tried``
is its position in that scan, in closed form (``_gl_position``): each row
adds the vectors before it that lie outside the span of the rows above,
times the completions of the rows below.  The walk fills columns, so the
least leaf may come late; it keeps the least so far and cuts every column
whose row-0 prefix exceeds that leaf's, which leaves the least one in
place.  None of the cuts changes the witness or its position.  ``nodes``
counts the columns the walk assigned after all of them.  A ``Matrix`` is
built only for the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .errors import (DimensionCapError, DimensionMismatchError, FieldNotFiniteError,
                     KindMismatchError, SingularMatrixError, _expect)
from .fields import FieldSpec, same_field
from .enumeration import _column_leaves, _gl_choices, _span_with, gl_matrices
from .linalg import Matrix, _require_invertible, invert
from .operators import (ALGEBRA, OOperator, _comparable_domains, _domain_morphism_failures,
                        compose_with_domain_iso, pullback_domain,
                        twist_by_range_automorphism)
from .structures import (DEFAULT_MAX_VIOLATIONS, DendriformDi, DendriformTri,
                         ValidationReport, _collect, _homomorphism_failures, _transpose)

DEFAULT_DIMENSION_CAP = 3

DENDRIFORM_ISO = "dendriform-iso"


@dataclass(frozen=True)
class IsoWitness:
    matrix: Matrix
    role: str


@dataclass(frozen=True)
class IsoSearchResult:
    """Outcome of an exhaustive witness search over invertible matrices.

    ``nodes`` (the columns the walk assigned, after refinement,
    propagation and the row-0 bound; 0 for a pair refused by its class
    counts) is work done, not part of the outcome, so it takes no part in
    comparisons.
    """

    witness: IsoWitness | None
    candidates_tried: int
    nodes: int = dataclass_field(compare=False)

    @property
    def found(self) -> bool:
        return self.witness is not None


def _iso_rows(d1, d2, fcols) -> list:
    """F(x p1 y) = F(x) p2 F(y) for each product p, as homomorphism-scan rows.

    ``fcols`` are the columns of F.
    """
    return [(axiom, fcols, t1.row, t2.entries, True) for axiom, t1, t2 in
            zip(("iso_prec", "iso_succ", "iso_dot"), d1.tensors(), d2.tensors())]


def _dendriform_pair(d1, d2) -> FieldSpec:
    """The common field of two dendriform structures of one kind and dimension."""
    for d in (d1, d2):
        _expect(d, DendriformDi, DendriformTri)
    if type(d1) is not type(d2):
        raise KindMismatchError("cannot compare a dialgebra with a trialgebra")
    field = same_field(d1.field, d2.field)
    if d1.dim != d2.dim:
        raise DimensionMismatchError(f"structures have different dimensions: "
                                     f"{d1.dim} vs {d2.dim}")
    return field


def verify_dendriform_iso(d1, d2, F: Matrix,
                          max_violations: int = DEFAULT_MAX_VIOLATIONS
                          ) -> ValidationReport:
    """Check F(x p1 y) = F(x) p2 F(y) for each product p of the two structures."""
    field = _dendriform_pair(d1, d2)
    _require_invertible(F, field, d1.dim, "witness matrix")
    failures = _homomorphism_failures(field, _iso_rows(d1, d2, _transpose(F.entries)))
    return _collect("dendriform_iso", failures, max_violations)


def verify_operator_iso(op1: OOperator, op2: OOperator, g: Matrix,
                        max_violations: int = DEFAULT_MAX_VIOLATIONS
                        ) -> ValidationReport:
    """Check that g is a domain isomorphism with alpha1 = alpha2 g.

    Axiom ids: intertwine_left / intertwine_right / intertwine_product for
    the domain morphism identities, weight_eq for matching weights, map_eq
    (column-wise) for the matrix equation.  ``weight_eq`` and ``map_eq``
    are not bilinear identities, so they fit neither scan shape and are
    checked here by hand; ``operators._domain_morphism_failures`` says why
    the intertwining laws are too.
    """
    for op in (op1, op2):
        _expect(op, OOperator)
    _comparable_domains(op1.domain, op2.domain)
    _require_invertible(g, op1.field, op1.domain.dim, "candidate g")

    def failures():
        if op1.kind == ALGEBRA and op1.weight != op2.weight:
            yield "weight_eq", (), (op1.weight,), (op2.weight,)
        yield from _domain_morphism_failures(g, op1.domain, op2.domain)
        composed = op2.matrix.mul(g)
        for j in range(op1.domain.dim):
            if op1.matrix.col(j) != composed.col(j):
                yield "map_eq", (j,), op1.matrix.col(j), composed.col(j)

    return _collect("operator_iso", failures(), max_violations)


def verify_operator_equiv(op1: OOperator, op2: OOperator, f: Matrix, g: Matrix,
                          max_violations: int = DEFAULT_MAX_VIOLATIONS
                          ) -> ValidationReport:
    """Check f alpha1 = alpha2 g with g an isomorphism out of the f-twisted domain.

    ``twist_by_range_automorphism`` refuses a bad f and ``verify_operator_iso``
    a bad g.
    """
    twisted = twist_by_range_automorphism(op1, f)  # raises NotMultiplicativeError
    return verify_operator_iso(twisted, op2, g, max_violations=max_violations)


def induced_intertwiner(op1: OOperator, op2: OOperator):
    """g = alpha2^{-1} alpha1, with the report of verifying it as an operator iso."""
    for op in (op1, op2):
        _expect(op, OOperator)
    g = invert(op2.matrix).mul(op1.matrix)  # raises SingularMatrixError
    try:
        invert(g)  # kept on g, where the check of g reads it
    except (DimensionMismatchError, SingularMatrixError):  # alpha1 not square, or singular
        raise SingularMatrixError("alpha1 is singular") from None
    return g, verify_operator_iso(op1, op2, g)


# -- exhaustive search over GL_n(F_p) ---------------------------------------------

def _completions(p: int, n: int, r: int) -> int:
    """Ways to extend r independent rows of F_p^n to an invertible matrix."""
    return math.prod(p ** n - p ** k for k in range(r, n))


def _gl_position(p: int, rows: tuple) -> int:
    """1-based position of an invertible matrix (row tuples) in the ``gl_matrices`` order.

    Row r contributes, for each vector before it in lexicographic order
    and outside the span of the rows above, the completions of the rows
    below.
    """
    n = len(rows)
    position, span = 1, {(0,) * n}
    for r, row in enumerate(rows):
        before = sum(a * p ** (n - 1 - k) for k, a in enumerate(row))
        before -= sum(w < row for w in span)
        position += before * _completions(p, n, r + 1)
        span = _span_with(span, row, p)
    return position


def search_dendriform_iso_fp(d1, d2) -> IsoSearchResult:
    """First intertwining bijection in enumeration order, or an exhausted search.

    ``candidates_tried`` is the witness's position in the ``gl_matrices``
    order; on a NotFound outcome it equals the order of the general
    linear group.  An isomorphism maps each vector class onto the same
    class, so structures whose multisets of classes differ are refused
    before the walk, with ``nodes`` 0.  The walk keeps the least leaf so
    far and cuts a column t whose row-0 prefix (c_0[0], ..., c_t[0])
    exceeds that leaf's: every leaf below it is greater in row-major order.
    """
    field = _dendriform_pair(d1, d2)
    if not field.is_finite:
        raise FieldNotFiniteError("exhaustive search requires a prime field")
    if d1.dim > DEFAULT_DIMENSION_CAP:
        raise DimensionCapError(
            f"dimension {d1.dim} above the search cap {DEFAULT_DIMENSION_CAP}")
    p, n = field.p, d1.dim
    classes = d2._vector_classes
    if sorted(d1._vector_classes.values()) != sorted(classes.values()):
        return IsoSearchResult(None, _completions(p, n, 0), 0)
    cols = [(0,) * n] * n
    gl = _gl_choices(p, cols)
    wanted = [d1._vector_classes[tuple(int(k == t) for k in range(n))] for t in range(n)]
    nodes, rows = 0, None

    def choices(t, among):
        nonlocal nodes
        values = [v for v in gl(t, among) if classes[v[0]] == wanted[t]]
        if rows is not None:
            head, bound = tuple(c[0] for c in cols[:t]), rows[0][:t + 1]
            values = [v for v in values if head + (v[0][0],) <= bound]
        nodes += len(values)
        return values

    for leaf in _column_leaves(p, cols, _iso_rows(d1, d2, cols), choices):
        leaf = _transpose(leaf)
        if rows is None or leaf < rows:
            rows = leaf
    if rows is None:
        return IsoSearchResult(None, _completions(p, n, 0), nodes)
    return IsoSearchResult(IsoWitness(Matrix(field, rows), DENDRIFORM_ISO),
                           _gl_position(p, rows), nodes)


# -- transport helper used by equivalence tests -------------------------------------

def transported_pair(op: OOperator, f: Matrix, h: Matrix):
    """Equivalence-related copy of ``op``: twist the range by f, pull the domain back along h.

    Returns ``(op2, g)`` where ``f alpha = alpha2 g`` holds with ``g = h^{-1}``,
    so ``verify_operator_equiv(op, op2, f, g)`` passes for valid witnesses.
    """
    twisted = twist_by_range_automorphism(op, f)
    source = pullback_domain(twisted.domain, h)
    op2 = compose_with_domain_iso(twisted, h, source)
    return op2, invert(h)
