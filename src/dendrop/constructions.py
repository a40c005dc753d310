"""Constructions between operators and dendriform structures.

Domain side: a validated operator induces dendriform products on its source
(u < v = u r(alpha v), u > v = l(alpha u) v, u . v = weight * (u o v)), and
the operator becomes an algebra homomorphism from the summed product to the
codomain.  Range side: an invertible operator transports those products onto
the codomain, splitting its multiplication; a non-invertible operator still
induces products on its image when its kernel is an ideal of the domain
product.  prec and succ move the domain's action tables by the one rule
``structures._moved_actions``, and dot the scaled domain product, the
module argument, the acting argument and the value each along one map
(``_moved_products``).  The domain products move the acting argument
along alpha.  Both range cases move the module argument along sections
of an image basis (the columns of alpha^{-1}, or solved preimages of the
reduced-echelon basis of the image), the acting argument along that
basis, and the value through alpha read at the basis pivots
(``_range_tensors``).  ``linalg.invert`` keeps the inverse it finds on
the matrix, so the range of an operator whose matrix was inverted
before, such as one pulled back from an identity operator
(``operators.compose_with_domain_iso``, whose matrix is then g itself),
eliminates nothing.  Conversely every dendriform structure arises from
the identity map viewed as an operator out of a canonically built domain
structure.

Constructors refuse operators or dendriform structures that fail their
validators: the output guarantees only hold under those hypotheses, and
constructing from unvalidated inputs would poison downstream checks.  Both
are checked through the verdict they keep (``structures._Checked``), and
scanned again only to name the first failure of one that fails.  The
canonical operator is handed the verdict true, its relation holding by
construction, and its domain structure takes the input's verdict.  The
structures built here from an operator record no axiom verdict, since the
relation of an operator says nothing about the laws of its domain bimodule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import (ArgumentError, DimensionMismatchError, InvalidDendriformError,
                     InvalidOperatorError, KernelNotIdealError,
                     KindMismatchError, _expect)
from .fields import same_field
from .linalg import (Matrix, StructureTensor, _transport, column_space_basis,
                     invert, kernel_basis, rank, solve)
from .structures import (Algebra, Bimodule, BimoduleAlgebra, DendriformDi,
                         DendriformTri, DEFAULT_MAX_VIOLATIONS, ValidationReport,
                         _collect, _homomorphism_failures,
                         _keep, _moved_actions, _require_holds, _transpose, star_product)
from .operators import ALGEBRA, MODULE, OOperator, _expect_kind


def _valid(op: OOperator, kind: str) -> OOperator:
    """``op``, once it is of ``kind`` and its relation verdict holds."""
    _expect_kind(op, kind)
    _require_holds(op, InvalidOperatorError,
                   "operator fails its defining relation at basis pair {indices}")
    return op


def _moved_products(op: OOperator, sections, acting, value) -> list:
    """Tables of prec, succ (and dot, for algebra kind) moved from the source of ``op``.

    u < v = u r(alpha v) is the right action table and u > v = l(alpha u) v
    the left one, both moved by ``_moved_actions`` with the module argument
    along ``sections``, the acting argument along ``acting`` and the value
    along ``value``; u . v = weight (u o v) moves the scaled source product
    along (sections, sections, value).  Each map is a list of columns, None
    for the identity.
    """
    f, dom = op.field, op.domain
    succ, prec = _moved_actions(f, dom.left, dom.right, acting, sections, value)
    tables = [prec, succ]
    if op.kind == ALGEBRA:
        tables.append(_transport(f, dom.product.scale(op.weight).entries,
                                 sections, sections, value))
    return tables


def _domain_products(op: OOperator) -> list:
    """Tables of the products on the source: the action tables moved along (None, alpha, None).

    An identity alpha is passed as None.
    """
    acols = None if op.matrix.is_identity() else _transpose(op.matrix.entries)
    return _moved_products(op, None, acols, None)


def _domain_structure(op: OOperator):
    """The induced dendriform structure, built without validating ``op``."""
    # _transport output over op.field: the checked n x m x m and m x n x m action tables with
    # the acting argument along alpha's m columns (and the m x m x m product): m x m x m
    tensors = (StructureTensor._of(op.field, t) for t in _domain_products(op))
    return (DendriformTri if op.kind == ALGEBRA else DendriformDi)(*tensors)


def domain_dendriform_tri(op: OOperator) -> DendriformTri:
    """Dendriform trialgebra on the source of a validated algebra-kind operator."""
    return _domain_structure(_valid(op, ALGEBRA))


def domain_dendriform_di(op: OOperator) -> DendriformDi:
    """Dendriform dialgebra on the source of a validated module-kind operator."""
    return _domain_structure(_valid(op, MODULE))


def _star_homomorphism(kind: str, axiom: str, fcols, dend, alg: Algebra,
                       max_violations: int) -> ValidationReport:
    """Report on F(u star v) = F(u) * F(v), F given by its columns ``fcols``.

    ``star`` is the sum of the products of ``dend``, ``*`` the product of ``alg``.
    """
    field = same_field(dend.field, alg.field)
    rows = ((axiom, fcols, star_product(dend).product.row, alg.product.entries, True),)
    return _collect(kind, _homomorphism_failures(field, rows), max_violations)


def check_operator_homomorphism(op: OOperator, dend,
                                max_violations: int = DEFAULT_MAX_VIOLATIONS
                                ) -> ValidationReport:
    """Check alpha(u star v) = alpha(u) * alpha(v) on all source basis pairs."""
    _expect(op, OOperator)
    _expect(dend, DendriformDi, DendriformTri)
    if dend.dim != op.domain.dim:
        raise DimensionMismatchError("the structure must live on the operator's source")
    return _star_homomorphism("operator_homomorphism", "hom", _transpose(op.matrix.entries),
                              dend, op.codomain, max_violations)


def check_splitting(dend, alg: Algebra,
                    max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    """Check that the dendriform products sum entrywise to the algebra product.

    That is the identity map being a homomorphism from the star product to ``alg``.
    """
    _expect(dend, DendriformDi, DendriformTri)
    _expect(alg, Algebra)
    if dend.dim != alg.dim:
        raise DimensionMismatchError("splitting check needs matching dimensions")
    return _star_homomorphism("splitting", "split", Matrix.identity(alg.field, alg.dim).entries,
                              dend, alg, max_violations)


# -- canonical operators (surjectivity witnesses) --------------------------------

def _canonical_operator(dend, kind):
    """The identity map of V as an operator onto the star product (V, star).

    Its domain is (V, L_succ, R_prec), carrying the product dot for a
    trialgebra, which makes the operator algebra kind of weight one.  The
    laws of this domain structure are the dendriform axioms of ``dend``,
    instance for instance (the bimodule laws di3, di1, di2, or tri3, tri1,
    tri2, then tri4, tri6, tri5 and tri7 for a bimodule algebra), so the
    domain structure takes the axiom verdict of ``dend``.  A false verdict
    is scanned again on the domain structure, to name its first failing
    instance.  The built operator must reproduce ``dend`` exactly.  Returns
    ``(structure, operator)``.
    """
    _expect(dend, kind)
    f = dend.field
    alg = star_product(dend)
    # both actions are checked n x n x n tables of dend, over the star's field and dimension
    structure = Bimodule._of(alg, dend.succ.entries, dend.prec.entries)
    weight = None
    if kind is DendriformTri:
        structure = BimoduleAlgebra(structure, dend.dot)
        weight = f.one
    _require_holds(_keep(structure, dend._holds), InvalidDendriformError,
                   kind._noun + " axioms fail: canonical domain structure fails "
                   "{axiom} at {indices}")
    # With alpha = id, l = L_succ and r = R_prec (and weight one on the product
    # dot), alpha(u) * alpha(v) and alpha(l(alpha u) v + u r(alpha v) [+ u . v])
    # are both u star v, since star is the table sum of the products: the
    # relation holds by construction.
    op = _keep(OOperator(structure, alg, Matrix.identity(f, dend.dim), weight), True)
    if _domain_products(op) != [t.entries for t in dend.tensors()]:
        raise InvalidDendriformError("canonical operator does not reproduce its input")
    return structure, op


def canonical_operator_from_tri(tri: DendriformTri):
    """Identity map as a weight-one operator from (V, dot, L_succ, R_prec) to (V, star)."""
    return _canonical_operator(tri, DendriformTri)


def canonical_operator_from_di(di: DendriformDi):
    """Identity map as a module-kind operator from (V, L_succ, R_prec) to (V, star)."""
    return _canonical_operator(di, DendriformDi)


# -- range constructions -----------------------------------------------------------

def kernel_ideal_check(op: OOperator) -> bool:
    """True iff ker(alpha) is a two-sided ideal of the domain product.

    One elimination: the kernel is an ideal exactly when adding every
    product u o b_v and b_v o u (u in the kernel basis) leaves the rank at
    the kernel's dimension.
    """
    _expect(op, OOperator)
    if op.kind != ALGEBRA:
        raise KindMismatchError("kernel ideal check applies to algebra-kind operators")
    ker = kernel_basis(op.matrix)
    if not ker:
        return True
    f, prod = op.field, op.domain.product.entries
    rows = chain(ker, *_transport(f, prod, ker, None, None),
                 *_transport(f, prod, None, ker, None))
    return rank(Matrix(f, rows)) == len(ker)


def _range_tensors(op: OOperator, sections, basis, pivots) -> tuple:
    """Products alpha induces on its image, in the image basis w_s = alpha(u_s).

    ``sections[s]`` is a preimage u_s of the image basis vector w_s, whose
    codomain coordinates are ``basis[s]`` (None for the standard basis), and
    ``pivots[s]`` a coordinate where w_s is 1 and every other w_t is 0, so
    a vector of the image has its image coordinates at ``pivots``.  As
    alpha u_t = w_t, w_s < w_t = alpha(u_s < u_t) = alpha(u_s r(w_t)),
    w_s > w_t = alpha(l(w_s) u_t) and, for algebra-kind operators,
    w_s . w_t = alpha(weight u_s o u_t): the products ``_moved_products``
    moves along (sections, basis, alpha read at the pivots), with no step
    through the domain products.  Each is alpha of something, so it lies
    in the image and reading it at the pivots loses nothing.
    """
    acols = tuple(tuple(col[i] for i in pivots) for col in _transpose(op.matrix.entries))
    # _transport output over op.field, r = len(pivots): the module argument along r sections,
    # the acting one along r basis vectors (the identity when r = n), the value onto the r
    # pivots: r x r x r tables
    return tuple(StructureTensor._of(op.field, t)
                 for t in _moved_products(op, sections, basis, acols))


def _invertible_range(op: OOperator) -> tuple:
    """Range tensors of an invertible operator: sections alpha^{-1}(e_i), standard basis."""
    return _range_tensors(op, _transpose(invert(op.matrix).entries), None, range(op.codomain.dim))


def range_dendriform_tri(op: OOperator) -> DendriformTri:
    """Transport the domain trialgebra onto the codomain of an invertible operator."""
    # raises SingularMatrixError
    return DendriformTri(*_invertible_range(_valid(op, ALGEBRA)))


def range_dendriform_di(op: OOperator) -> DendriformDi:
    """Transport the domain dialgebra onto the codomain of an invertible operator."""
    return DendriformDi(*_invertible_range(_valid(op, MODULE)))


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
    _valid(op, ALGEBRA)
    if not kernel_ideal_check(op):
        raise KernelNotIdealError("kernel of alpha is not an ideal of the domain product")
    f = op.field
    basis = column_space_basis(op.matrix)
    # each reduced-echelon basis vector is 1 at its own pivot and 0 at the others
    pivots = [next(i for i, a in enumerate(w) if a) for w in basis]
    emb = Matrix.from_columns(f, basis) if basis else Matrix.zeros(f, op.codomain.dim, 0)
    sections = [solve(op.matrix, w, pivot_rule=section_rule) for w in basis]
    tri = DendriformTri(*_range_tensors(op, sections, basis, pivots))
    # alpha(u) alpha(v) = alpha(u star v): the image is closed under the codomain
    # product, so its products are read at the pivots
    at_pivots = [tuple(f.one if i == q else f.zero for q in pivots)
                 for i in range(op.codomain.dim)]
    star = _transport(f, op.codomain.product.entries, basis, basis, at_pivots)
    # _transport output along r basis vectors and r pivot rows: an r x r x r table over f
    return QuotientDendriform(tri, emb, Algebra(StructureTensor._of(f, star)))

