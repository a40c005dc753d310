"""Constructions between operators and dendriform structures.

Domain side: a validated operator induces dendriform products on its source
(u < v = u r(alpha v), u > v = l(alpha u) v, u . v = weight * (u o v)), and
the operator becomes an algebra homomorphism from the summed product to the
codomain.  Range side: an invertible operator transports those products onto
the codomain, splitting its multiplication; a non-invertible operator still
induces products on its image when its kernel is an ideal of the domain
product.  Conversely every dendriform structure arises from the identity map
viewed as an operator out of a canonically built domain structure.

Constructors refuse operators or dendriform structures that fail their
validators: the output guarantees only hold under those hypotheses, and
constructing from unvalidated inputs would poison downstream checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (DimensionMismatchError, InvalidDendriformError,
                     InvalidOperatorError, KernelNotIdealError,
                     KindMismatchError)
from .linalg import (Matrix, StructureTensor, _combine, column_space_basis,
                     in_span, invert, kernel_basis, solve)
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


def domain_dendriform_tri(op: OOperator) -> DendriformTri:
    """Dendriform trialgebra on the source of a validated algebra-kind operator."""
    if op.kind != ALGEBRA:
        raise KindMismatchError("expected an algebra-kind operator")
    rep = validate_o_algebra(op, max_violations=1, early_stop=True)
    if not rep.passed:
        raise InvalidOperatorError(
            f"operator fails its defining relation at basis pair {rep.first().indices}")
    prec, succ = _domain_products(op)
    dot = op.domain.product.scale(op.weight)
    return DendriformTri(prec, succ, dot)


def domain_dendriform_di(op: OOperator) -> DendriformDi:
    """Dendriform dialgebra on the source of a validated module-kind operator."""
    if op.kind != MODULE:
        raise KindMismatchError("expected a module-kind operator")
    rep = validate_o_module(op, max_violations=1, early_stop=True)
    if not rep.passed:
        raise InvalidOperatorError(
            f"operator fails its defining relation at basis pair {rep.first().indices}")
    prec, succ = _domain_products(op)
    return DendriformDi(prec, succ)


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
    _verify_canonical(structure, op, tri, validate_bimodule_algebra,
                      validate_o_algebra, domain_dendriform_tri)
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
    _verify_canonical(structure, op, di, validate_bimodule,
                      validate_o_module, domain_dendriform_di)
    return structure, op


def _verify_canonical(structure, op, dend, validate_structure, validate_op, rebuild):
    rep = validate_structure(structure, max_violations=1, early_stop=True)
    if not rep.passed:
        raise InvalidDendriformError(
            f"canonical domain structure fails {rep.first().axiom} at {rep.first().indices}")
    rep = validate_op(op, max_violations=1, early_stop=True)
    if not rep.passed:
        raise InvalidDendriformError(
            f"canonical operator fails its relation at {rep.first().indices}")
    if rebuild(op) != dend:
        raise InvalidDendriformError("canonical operator does not reproduce its input")


# -- range constructions -----------------------------------------------------------

def kernel_ideal_check(op: OOperator) -> bool:
    """True iff ker(alpha) is a two-sided ideal of the domain product."""
    if op.kind != ALGEBRA:
        raise KindMismatchError("kernel ideal check applies to algebra-kind operators")
    ker = kernel_basis(op.matrix)
    if not ker:
        return True
    prod = op.domain.product
    f = op.field
    m = op.domain.dim
    for u in ker:
        for v in range(m):
            if not in_span(ker, prod.apply_basis_right(u, v), f):
                return False
            if not in_span(ker, prod.apply_basis_left(v, u), f):
                return False
    return True


def range_dendriform_tri(op: OOperator) -> DendriformTri:
    """Transport the domain trialgebra onto the codomain of an invertible operator."""
    if op.kind != ALGEBRA:
        raise KindMismatchError("expected an algebra-kind operator")
    _require_valid(op)
    ainv = invert(op.matrix)  # raises SingularMatrixError
    return _range_products(op, ainv, with_dot=True)


def range_dendriform_di(op: OOperator) -> DendriformDi:
    """Transport the domain dialgebra onto the codomain of an invertible operator."""
    if op.kind != MODULE:
        raise KindMismatchError("expected a module-kind operator")
    _require_valid(op)
    ainv = invert(op.matrix)
    tri = _range_products(op, ainv, with_dot=False)
    return DendriformDi(tri.prec, tri.succ)


def _range_products(op: OOperator, ainv: Matrix, with_dot: bool):
    f = op.field
    n = op.codomain.dim
    left, right = op.domain.left, op.domain.right
    pre = [ainv.col(i) for i in range(n)]  # alpha^{-1}(e_i)
    zero = StructureTensor.zero(f, n)
    prec_rows, succ_rows, dot_rows = [], [], []
    for i in range(n):
        prow, srow, drow = [], [], []
        for j in range(n):
            # x < y = alpha(alpha^{-1}(x) r(y))
            prow.append(op.matrix.matvec(right[j].matvec(pre[i])))
            # x > y = alpha(l(x) alpha^{-1}(y))
            srow.append(op.matrix.matvec(left[i].matvec(pre[j])))
            if with_dot:
                u = op.domain.product.apply(pre[i], pre[j])
                drow.append(op.matrix.matvec(tuple(f.mul(op.weight, a) for a in u)))
        prec_rows.append(tuple(prow))
        succ_rows.append(tuple(srow))
        if with_dot:
            dot_rows.append(tuple(drow))
    prec = StructureTensor(f, tuple(prec_rows))
    succ = StructureTensor(f, tuple(succ_rows))
    dot = StructureTensor(f, tuple(dot_rows)) if with_dot else zero
    return DendriformTri(prec, succ, dot)


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
    if op.kind != ALGEBRA:
        raise KindMismatchError("expected an algebra-kind operator")
    _require_valid(op)
    if not kernel_ideal_check(op):
        raise KernelNotIdealError("kernel of alpha is not an ideal of the domain product")
    f = op.field
    basis = column_space_basis(op.matrix)
    d = len(basis)
    emb = Matrix.from_columns(f, basis) if d else Matrix.zeros(f, op.codomain.dim, 0)
    sections = [solve(op.matrix, w, pivot_rule=section_rule) for w in basis]
    left, right = op.domain.left, op.domain.right

    def image_coords(vec):
        return solve(emb, vec)

    prec_rows, succ_rows, dot_rows, star_rows = [], [], [], []
    for s in range(d):
        prow, srow, drow, trow = [], [], [], []
        for t in range(d):
            # w_s < w_t = alpha(u_s r(w_t)) with r(w) = sum_j w_j rho_j
            z = _combine(basis[t], [M.matvec(sections[s]) for M in right], f.p, f.zero)
            prow.append(image_coords(op.matrix.matvec(z)))
            z = _combine(basis[s], [M.matvec(sections[t]) for M in left], f.p, f.zero)
            srow.append(image_coords(op.matrix.matvec(z)))
            z = op.domain.product.apply(sections[s], sections[t])
            drow.append(image_coords(op.matrix.matvec(
                tuple(f.mul(op.weight, a) for a in z))))
            trow.append(image_coords(op.codomain.product.apply(basis[s], basis[t])))
        prec_rows.append(tuple(prow))
        succ_rows.append(tuple(srow))
        dot_rows.append(tuple(drow))
        star_rows.append(tuple(trow))
    tri = DendriformTri(StructureTensor(f, tuple(prec_rows)),
                        StructureTensor(f, tuple(succ_rows)),
                        StructureTensor(f, tuple(dot_rows)))
    image_alg = Algebra(StructureTensor(f, tuple(star_rows)))
    return QuotientDendriform(tri, emb, image_alg)


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
