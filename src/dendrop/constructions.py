"""Constructions between operators and dendriform structures.

Domain side: a validated operator induces dendriform products on its source
(u < v = u r(alpha v), u > v = l(alpha u) v, u . v = weight * (u o v)), and
the operator becomes an algebra homomorphism from the summed product to the
codomain.  Range side: an invertible operator transports those products onto
the codomain, splitting its multiplication; a non-invertible operator still
induces products on its image when its kernel is an ideal of the domain
product.  Both cases run one loop, ``_range_tensors``, on sections of an
image basis: the columns of alpha^{-1} and the standard basis, or solved
preimages of the reduced-echelon basis of the image.  Conversely every
dendriform structure arises from the identity map viewed as an operator out
of a canonically built domain structure.

Constructors refuse operators or dendriform structures that fail their
validators: the output guarantees only hold under those hypotheses, and
constructing from unvalidated inputs would poison downstream checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (ArgumentError, DimensionMismatchError, InvalidDendriformError,
                     InvalidOperatorError, KernelNotIdealError,
                     KindMismatchError)
from .linalg import (Matrix, StructureTensor, _combine, column_space_basis,
                     invert, kernel_basis, rank, solve)
from .structures import (Algebra, Bimodule, BimoduleAlgebra, DendriformDi,
                         DendriformTri, DEFAULT_MAX_VIOLATIONS, ValidationReport,
                         _action_matrices, _action_tables, _collect,
                         _homomorphism_failures, _transpose, star_product,
                         validate_bimodule, validate_bimodule_algebra,
                         validate_dendriform_di, validate_dendriform_tri)
from .operators import (ALGEBRA, MODULE, OOperator, _induced, validate_o_algebra,
                        validate_o_module, validate_o_operator)


def _require_valid(op: OOperator) -> None:
    rep = validate_o_operator(op, max_violations=1, early_stop=True)
    if not rep.passed:
        v = rep.first()
        raise InvalidOperatorError(
            f"operator fails its defining relation at basis pair {v.indices}")


def _domain_products(op: OOperator):
    """Structure tensors of the induced products on the operator's source."""
    f = op.field
    m = op.domain.dim
    rows = _induced(f, _transpose(op.matrix.entries), *_action_tables(op.domain))[:2]
    return tuple(StructureTensor(f, tuple(tuple(row(i, j) for j in range(m))
                                          for i in range(m)))
                 for row in rows)


def _domain_structure(op: OOperator):
    """The induced dendriform structure, built without validating ``op``."""
    prec, succ = _domain_products(op)
    if op.kind == ALGEBRA:
        return DendriformTri(prec, succ, op.domain.product.scale(op.weight))
    return DendriformDi(prec, succ)


def _validated_domain_structure(op: OOperator, validate):
    """``_domain_structure`` after ``validate`` (which also checks the kind) passes."""
    rep = validate(op, max_violations=1, early_stop=True)
    if not rep.passed:
        raise InvalidOperatorError(
            f"operator fails its defining relation at basis pair {rep.first().indices}")
    return _domain_structure(op)


def domain_dendriform_tri(op: OOperator) -> DendriformTri:
    """Dendriform trialgebra on the source of a validated algebra-kind operator."""
    return _validated_domain_structure(op, validate_o_algebra)


def domain_dendriform_di(op: OOperator) -> DendriformDi:
    """Dendriform dialgebra on the source of a validated module-kind operator."""
    return _validated_domain_structure(op, validate_o_module)


def check_operator_homomorphism(op: OOperator, dend,
                                max_violations: int = DEFAULT_MAX_VIOLATIONS
                                ) -> ValidationReport:
    """Check alpha(u star v) = alpha(u) * alpha(v) on all source basis pairs."""
    if dend.dim != op.domain.dim:
        raise DimensionMismatchError("the structure must live on the operator's source")
    rows = (("hom", _transpose(op.matrix.entries), star_product(dend).product.row,
             op.codomain.product.entries, True),)
    return _collect("operator_homomorphism", _homomorphism_failures(op.field, rows),
                    max_violations)


# -- canonical operators (surjectivity witnesses) --------------------------------

def canonical_operator_from_tri(tri: DendriformTri):
    """Identity map as a weight-one operator from (V, dot, L_succ, R_prec) to (V, star).

    Returns ``(structure, operator)``.  Verifies that the built structure
    and operator validate and that the operator reproduces ``tri`` exactly.
    """
    rep = validate_dendriform_tri(tri, max_violations=1, early_stop=True)
    if not rep.passed:
        raise InvalidDendriformError(
            f"trialgebra axioms fail at {rep.first().indices}")
    alg = star_product(tri)
    left, right = _action_matrices(tri.field, tri.succ.entries, tri.prec.entries)
    structure = BimoduleAlgebra(Bimodule(alg, left, right), tri.dot)
    op = OOperator(structure, alg, Matrix.identity(tri.field, tri.dim), tri.field.one)
    _verify_canonical(structure, op, tri, validate_bimodule_algebra, validate_o_algebra)
    return structure, op


def canonical_operator_from_di(di: DendriformDi):
    """Identity map as a module-kind operator from (V, L_succ, R_prec) to (V, star)."""
    rep = validate_dendriform_di(di, max_violations=1, early_stop=True)
    if not rep.passed:
        raise InvalidDendriformError(
            f"dialgebra axioms fail at {rep.first().indices}")
    alg = star_product(di)
    left, right = _action_matrices(di.field, di.succ.entries, di.prec.entries)
    structure = Bimodule(alg, left, right)
    op = OOperator(structure, alg, Matrix.identity(di.field, di.dim), None)
    _verify_canonical(structure, op, di, validate_bimodule, validate_o_module)
    return structure, op


def _verify_canonical(structure, op, dend, validate_structure, validate_op):
    rep = validate_structure(structure, max_violations=1, early_stop=True)
    if not rep.passed:
        raise InvalidDendriformError(
            f"canonical domain structure fails {rep.first().axiom} at {rep.first().indices}")
    rep = validate_op(op, max_violations=1, early_stop=True)
    if not rep.passed:
        raise InvalidDendriformError(
            f"canonical operator fails its relation at {rep.first().indices}")
    if _domain_structure(op) != dend:
        raise InvalidDendriformError("canonical operator does not reproduce its input")


# -- range constructions -----------------------------------------------------------

def kernel_ideal_check(op: OOperator) -> bool:
    """True iff ker(alpha) is a two-sided ideal of the domain product.

    One elimination: the kernel is an ideal exactly when adding every
    product u o b_v and b_v o u (u in the kernel basis) leaves the rank at
    the kernel's dimension.
    """
    if op.kind != ALGEBRA:
        raise KindMismatchError("kernel ideal check applies to algebra-kind operators")
    ker = kernel_basis(op.matrix)
    if not ker:
        return True
    prod = op.domain.product
    rows = list(ker)
    for u in ker:
        for v in range(op.domain.dim):
            rows += [prod.apply_basis_right(u, v), prod.apply_basis_left(v, u)]
    return rank(Matrix.from_rows(op.field, rows)) == len(ker)


def _range_tensors(op: OOperator, sections, basis, pivots) -> tuple:
    """Products alpha induces on its image, in the image basis ``basis``.

    ``sections[s]`` is a preimage u_s of the image basis vector w_s, and
    ``pivots[s]`` a coordinate where w_s is 1 and every other w_t is 0, so
    a vector of the image has its image coordinates at ``pivots``.  Returns
    the tensors of
        w_s < w_t = alpha(u_s r(w_t)),  w_s > w_t = alpha(l(w_s) u_t),
    and for algebra-kind operators also w_s . w_t = alpha(weight u_s o u_t).
    Each is alpha of something, so it lies in the image and reading it at
    the pivots loses nothing.
    """
    f = op.field
    p, zero = f.p, f.zero
    # alpha in image coordinates: the pivot rows of its columns
    acols = tuple(tuple(col[i] for i in pivots) for col in zip(*op.matrix.entries))

    def image(v):
        return _combine(v, acols, p, zero)

    # alpha(u_s r(b_j)) and alpha(l(b_j) u_s) for every algebra basis vector b_j
    right = [[image(M.matvec(u)) for M in op.domain.right] for u in sections]
    left = [[image(M.matvec(u)) for M in op.domain.left] for u in sections]
    tensors = [tuple(tuple(_combine(wt, rs, p, zero) for wt in basis) for rs in right),
               tuple(tuple(_combine(ws, lt, p, zero) for lt in left) for ws in basis)]
    if op.kind == ALGEBRA:
        wcols = tuple(_combine((op.weight,), (c,), p, zero) for c in acols)
        prod = op.domain.product
        tensors.append(tuple(tuple(_combine(prod.apply(us, ut), wcols, p, zero)
                                   for ut in sections) for us in sections))
    return tuple(StructureTensor(f, t) for t in tensors)


def _invertible_range(op: OOperator) -> tuple:
    """Range tensors of an invertible operator: sections alpha^{-1}(e_i), standard basis."""
    n = op.codomain.dim
    basis = Matrix.identity(op.field, n).entries
    return _range_tensors(op, invert(op.matrix).columns(), basis, range(n))


def range_dendriform_tri(op: OOperator) -> DendriformTri:
    """Transport the domain trialgebra onto the codomain of an invertible operator."""
    if op.kind != ALGEBRA:
        raise KindMismatchError("expected an algebra-kind operator")
    _require_valid(op)
    return DendriformTri(*_invertible_range(op))  # raises SingularMatrixError


def range_dendriform_di(op: OOperator) -> DendriformDi:
    """Transport the domain dialgebra onto the codomain of an invertible operator."""
    if op.kind != MODULE:
        raise KindMismatchError("expected a module-kind operator")
    _require_valid(op)
    return DendriformDi(*_invertible_range(op))


@dataclass(frozen=True)
class QuotientDendriform:
    """Range trialgebra of a non-injective operator, in a canonical image basis.

    ``embedding`` maps image-basis coordinates into the codomain; the image
    basis is the reduced-echelon basis of the column space of the operator,
    so for invertible operators the tensors coincide with the full range
    construction.  ``image_algebra`` is the codomain product restricted to
    the image.
    """

    structure: DendriformTri
    embedding: Matrix
    image_algebra: Algebra


def range_dendriform_quotient(op: OOperator, section_rule: str = "first") -> QuotientDendriform:
    """Range trialgebra through a section of alpha; requires an ideal kernel.

    ``section_rule`` ("first" or "last") picks which preimage coordinates are
    treated as free during the section solve; the resulting tensors are
    independent of this choice exactly because the kernel is an ideal.
    """
    if section_rule not in ("first", "last"):
        raise ArgumentError(f"unknown section rule {section_rule!r}")
    if op.kind != ALGEBRA:
        raise KindMismatchError("expected an algebra-kind operator")
    _require_valid(op)
    if not kernel_ideal_check(op):
        raise KernelNotIdealError("kernel of alpha is not an ideal of the domain product")
    f = op.field
    basis = column_space_basis(op.matrix)
    # each reduced-echelon basis vector is 1 at its own pivot and 0 at the others
    pivots = [next(i for i, a in enumerate(w) if a) for w in basis]
    emb = Matrix.from_columns(f, basis) if basis else Matrix.zeros(f, op.codomain.dim, 0)
    sections = [solve(op.matrix, w, pivot_rule=section_rule) for w in basis]
    tri = DendriformTri(*_range_tensors(op, sections, basis, pivots))
    # alpha(u) alpha(v) = alpha(u star v): the image is closed under the codomain product
    prod = op.codomain.product
    star = tuple(tuple(tuple(prod.apply(ws, wt)[i] for i in pivots) for wt in basis)
                 for ws in basis)
    return QuotientDendriform(tri, emb, Algebra(StructureTensor(f, star)))


def check_splitting(dend, alg: Algebra,
                    max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    """Check that the dendriform products sum entrywise to the algebra product."""
    if dend.dim != alg.dim:
        raise DimensionMismatchError("splitting check needs matching dimensions")
    total = star_product(dend).product
    n = alg.dim
    failures = (("split", (i, j), total.row(i, j), alg.product.row(i, j))
                for i in range(n) for j in range(n) if total.row(i, j) != alg.product.row(i, j))
    return _collect("splitting", failures, max_violations)
